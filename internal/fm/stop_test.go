package fm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// stopCase is one graph and part count the stop-rule tests refine from a
// random balanced start.
type stopCase struct {
	name  string
	g     *graph.Graph
	parts int
}

// stopCases are random meshes, RGGs and power-law graphs at 2–13 parts,
// large enough that full-length passes run hundreds of moves past their best
// prefixes.
func stopCases() []stopCase {
	var cases []stopCase
	for i := 0; i < 12; i++ {
		seed := int64(100 + i)
		rng := rand.New(rand.NewSource(seed))
		n := 800 + rng.Intn(1600)
		var g *graph.Graph
		var family string
		switch i % 3 {
		case 0:
			family, g = "mesh", gen.Mesh(n, seed)
		case 1:
			family, g = "rgg", gen.RandomGeometric(rng, n, math.Sqrt(8/(math.Pi*float64(n))))
		default:
			family, g = "powerlaw", gen.PowerLaw(n, 2+i%3, seed)
		}
		parts := 2 + i
		cases = append(cases, stopCase{fmt.Sprintf("%s-%d-p%d", family, n, parts), g, parts})
	}
	return cases
}

// passRecord is what one heap pass did: its pass-start assignment, its move
// log, the best prefix it kept and the gain it reported.
type passRecord struct {
	start []uint16
	log   []move
	bestK int
	gain  float64
}

// lockstep runs the heap pass of a and b alternately from equal partitions,
// handing each pair of pass records to check, until a pass gains nothing, the
// pass budget runs out, or check returns false.
func lockstep(a, b *refinement, check func(pass int, ra, rb passRecord) bool) {
	record := func(r *refinement) passRecord {
		start := slices.Clone(r.p.Assign)
		gain := r.heapPass()
		return passRecord{start: start, log: slices.Clone(r.s.log), bestK: r.bestK, gain: gain}
	}
	for pass := 0; pass < 16; pass++ {
		ra, rb := record(a), record(b)
		if !check(pass, ra, rb) || ra.gain <= 0 || rb.gain <= 0 {
			return
		}
	}
}

// improvements replays a pass's log from its start assignment and returns
// the log lengths at which the cumulative cut gain reached a new best,
// starting with 0 — the best-prefix candidates, recomputed from scratch.
func improvements(g *graph.Graph, rec passRecord) []int {
	a := slices.Clone(rec.start)
	var cum, best float64
	ks := []int{0}
	for k, m := range rec.log {
		from, to := a[m.v], uint16(m.to)
		ws := g.EdgeWeights(m.v)
		for i, u := range g.Neighbors(m.v) {
			switch a[u] {
			case to:
				cum += ws[i]
			case from:
				cum -= ws[i]
			}
		}
		a[m.v] = to
		if cum > best {
			best = cum
			ks = append(ks, k+1)
		}
	}
	return ks
}

// newTestRefinement builds a refinement of a fresh clone of start.
func newTestRefinement(tc stopCase, start *partition.Partition, obj partition.Objective) *refinement {
	return newRefinement(tc.g, start.Clone(), nil, Config{Objective: obj, Workers: 1})
}

// Under TotalCut no heap pass ends more than fruitlessMoves+1 moves past its
// best prefix, and the Scratch counters add up the passes' logs exactly.
func TestHeapPassEndsFruitlessMovesPastBest(t *testing.T) {
	stopped := 0
	for _, tc := range stopCases() {
		var scratch Scratch
		start := partition.RandomBalanced(tc.g.NumNodes(), tc.parts, rand.New(rand.NewSource(int64(tc.parts))))
		r := newRefinement(tc.g, start, nil, Config{Scratch: &scratch})
		var want Counts
		for pass := 0; pass < 16; pass++ {
			gain := r.heapPass()
			if len(r.s.log) > r.bestK+fruitlessMoves+1 {
				t.Errorf("%s: pass ended %d moves past its best prefix %d", tc.name, len(r.s.log)-r.bestK, r.bestK)
			}
			if len(r.s.log) == r.bestK+fruitlessMoves+1 {
				stopped++
			}
			want.Passes++
			want.Moves += len(r.s.log)
			want.Kept += r.bestK
			if gain <= 0 {
				break
			}
		}
		if got := scratch.Counts(); got != want {
			t.Errorf("%s: counts %+v, passes logged %+v", tc.name, got, want)
		}
	}
	if stopped == 0 {
		t.Error("no pass ended on the fruitless-move limit: the cases do not exercise it")
	}
}

// The stop rule only ends a pass early: the limited pass makes the
// full-length pass's moves up to its stop, so whenever the full-length pass
// reaches its best prefix without running more than fruitlessMoves moves
// between improvements, both keep the same moves and report the same gain.
// The full-length pass is the same refinement with the limit lifted, and its
// best-prefix candidates are recomputed here by replaying its log.
func TestHeapPassStopMatchesFullLengthPass(t *testing.T) {
	same, shortened := 0, 0
	for _, tc := range stopCases() {
		start := partition.RandomBalanced(tc.g.NumNodes(), tc.parts, rand.New(rand.NewSource(int64(tc.parts))))
		limited := newTestRefinement(tc, start, partition.TotalCut)
		full := newTestRefinement(tc, start, partition.TotalCut)
		full.fruitless = math.MaxInt
		lockstep(limited, full, func(pass int, ra, rb passRecord) bool {
			label := fmt.Sprintf("%s pass %d", tc.name, pass)
			ks := improvements(tc.g, rb)
			if ks[len(ks)-1] != rb.bestK {
				t.Fatalf("%s: replayed best prefix %d, full pass kept %d", label, ks[len(ks)-1], rb.bestK)
			}
			// The limited pass keeps the last improvement before the first
			// gap of more than fruitlessMoves non-improving moves, and stops
			// fruitlessMoves+1 moves after it unless the heap empties first.
			wantK := ks[len(ks)-1]
			for i := 1; i < len(ks); i++ {
				if ks[i]-ks[i-1] > fruitlessMoves+1 {
					wantK = ks[i-1]
					break
				}
			}
			wantLen := min(len(rb.log), wantK+fruitlessMoves+1)
			if ra.bestK != wantK || len(ra.log) != wantLen {
				t.Fatalf("%s: limited pass kept %d of %d moves, want %d of %d", label, ra.bestK, len(ra.log), wantK, wantLen)
			}
			if !slices.Equal(ra.log, rb.log[:wantLen]) {
				t.Fatalf("%s: limited pass's moves are not a prefix of the full-length pass's", label)
			}
			if len(ra.log) < len(rb.log) {
				shortened++
			}
			if wantK != rb.bestK {
				return false // the runs diverge from here on
			}
			same++
			if ra.gain != rb.gain || !slices.Equal(limited.p.Assign, full.p.Assign) {
				t.Fatalf("%s: same kept moves, but gain %v vs %v or the partitions differ", label, ra.gain, rb.gain)
			}
			return true
		})
	}
	t.Logf("%d passes kept the full-length moves, %d were shortened", same, shortened)
	if same == 0 || shortened == 0 {
		t.Errorf("%d passes kept the full-length moves, %d were shortened: the cases do not exercise the rule", same, shortened)
	}
}

// Under WorstCut the rule is off: every heap pass makes exactly the moves
// of the full-length pass, though some of those passes run far more than
// fruitlessMoves moves past their best prefixes.
func TestHeapPassWorstCutRunsFullLength(t *testing.T) {
	longTail := 0
	for _, tc := range stopCases() {
		start := partition.RandomBalanced(tc.g.NumNodes(), tc.parts, rand.New(rand.NewSource(int64(tc.parts))))
		def := newTestRefinement(tc, start, partition.WorstCut)
		full := newTestRefinement(tc, start, partition.WorstCut)
		full.fruitless = math.MaxInt
		lockstep(def, full, func(pass int, ra, rb passRecord) bool {
			if !slices.Equal(ra.log, rb.log) || ra.bestK != rb.bestK || ra.gain != rb.gain {
				t.Fatalf("%s pass %d: %d moves (kept %d, gain %v), full-length pass %d (kept %d, gain %v)",
					tc.name, pass, len(ra.log), ra.bestK, ra.gain, len(rb.log), rb.bestK, rb.gain)
			}
			if len(rb.log) > rb.bestK+fruitlessMoves+1 {
				longTail++
			}
			return true
		})
	}
	if longTail == 0 {
		t.Error("no WorstCut pass ran past the TotalCut limit: the cases do not exercise the exemption")
	}
}
