package ibp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// figure1b is the shuffled row-major indexing of an 8x8 grid exactly as
// printed in the paper's Figure 1(b). figure1b[row][col].
var figure1b = [8][8]uint64{
	{0, 1, 4, 5, 16, 17, 20, 21},
	{2, 3, 6, 7, 18, 19, 22, 23},
	{8, 9, 12, 13, 24, 25, 28, 29},
	{10, 11, 14, 15, 26, 27, 30, 31},
	{32, 33, 36, 37, 48, 49, 52, 53},
	{34, 35, 38, 39, 50, 51, 54, 55},
	{40, 41, 44, 45, 56, 57, 60, 61},
	{42, 43, 46, 47, 58, 59, 62, 63},
}

func TestFigure1aRowMajor(t *testing.T) {
	for y := uint64(0); y < 8; y++ {
		for x := uint64(0); x < 8; x++ {
			want := y*8 + x
			if got := CellIndex(RowMajor, x, y, 3, 3); got != want {
				t.Fatalf("row-major (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestFigure1bShuffledRowMajor(t *testing.T) {
	for y := uint64(0); y < 8; y++ {
		for x := uint64(0); x < 8; x++ {
			want := figure1b[y][x]
			if got := CellIndex(ShuffledRowMajor, x, y, 3, 3); got != want {
				t.Fatalf("shuffled (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestInterleavePaperExamples(t *testing.T) {
	// "Suppose index1 = 001, index2 = 010, and index3 = 110. Then the
	// interleaved index would be 001011100."
	if got := Interleave([]uint64{0b001, 0b010, 0b110}, []int{3, 3, 3}); got != 0b001011100 {
		t.Errorf("equal-width interleave = %b, want 001011100", got)
	}
	// "if index1 = 101, index2 = 01, and index3 = 0, then the interleaved
	// index would be 100110."
	if got := Interleave([]uint64{0b101, 0b01, 0b0}, []int{3, 2, 1}); got != 0b100110 {
		t.Errorf("unequal-width interleave = %b, want 100110", got)
	}
}

func TestInterleaveOneDimensionIsIdentity(t *testing.T) {
	for _, v := range []uint64{0, 1, 5, 127, 1023} {
		if got := Interleave([]uint64{v}, []int{10}); got != v {
			t.Errorf("Interleave([%d]) = %d", v, got)
		}
	}
}

func TestInterleavePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Interleave([]uint64{1, 2}, []int{3})
}

func TestIndexingString(t *testing.T) {
	if RowMajor.String() != "row-major" || ShuffledRowMajor.String() != "shuffled-row-major" {
		t.Error("String names wrong")
	}
}

func TestPartitionBalanced(t *testing.T) {
	g := gen.PaperGraph(167)
	for _, ix := range []Indexing{RowMajor, ShuffledRowMajor} {
		for _, parts := range []int{2, 4, 8} {
			p, err := Partition(g, parts, ix)
			if err != nil {
				t.Fatalf("%v parts=%d: %v", ix, parts, err)
			}
			if err := p.Validate(g); err != nil {
				t.Fatal(err)
			}
			if !p.Balanced() {
				t.Errorf("%v parts=%d: sizes %v", ix, parts, p.PartSizes())
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	// No coordinates.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	if _, err := Partition(b.Build(), 2, RowMajor); err == nil {
		t.Error("coordinate-free graph accepted")
	}
	g := gen.Mesh(20, 1)
	if _, err := Partition(g, 0, RowMajor); err == nil {
		t.Error("0 parts accepted")
	}
}

func TestShuffledBeatsRowMajorOnSquareMesh(t *testing.T) {
	// On a square mesh split into 4+ parts, shuffled row-major produces
	// blocky parts while row-major produces strips; Z-order should yield
	// a cut at least as good on average. We assert both produce sane
	// partitions and that shuffled is not catastrophically worse.
	g := gen.Grid(16, 16)
	pRM, err := Partition(g, 4, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	pZ, err := Partition(g, 4, ShuffledRowMajor)
	if err != nil {
		t.Fatal(err)
	}
	cutRM, cutZ := pRM.CutSize(g), pZ.CutSize(g)
	if cutZ > 2*cutRM {
		t.Errorf("shuffled cut %v vs row-major %v", cutZ, cutRM)
	}
	// 16x16 grid into 4 parts: strips cut 3*16 = 48; quadrants cut 32.
	if cutZ > 48 {
		t.Errorf("shuffled cut = %v, want <= 48", cutZ)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := gen.PaperGraph(144)
	a, _ := Partition(g, 8, ShuffledRowMajor)
	b, _ := Partition(g, 8, ShuffledRowMajor)
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("IBP not deterministic")
		}
	}
}

// Property: interleaving is injective over the cell grid (it is a bijection
// onto [0, 2^(bx+by)) but injectivity is what partitioning needs).
func TestQuickInterleaveInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bx, by := 1+rng.Intn(5), 1+rng.Intn(5)
		seen := make(map[uint64]bool)
		for x := uint64(0); x < 1<<uint(bx); x++ {
			for y := uint64(0); y < 1<<uint(by); y++ {
				idx := CellIndex(ShuffledRowMajor, x, y, bx, by)
				if seen[idx] {
					return false
				}
				seen[idx] = true
				if idx >= 1<<uint(bx+by) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// Property: IBP partitions are always balanced (part sizes differ by <= 1)
// regardless of mesh, parts, or indexing.
func TestQuickIBPBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(7)
		ix := []Indexing{RowMajor, ShuffledRowMajor}[rng.Intn(2)]
		p, err := Partition(g, parts, ix)
		if err != nil {
			return false
		}
		return p.Balanced()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Error(err)
	}
}
