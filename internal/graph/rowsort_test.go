package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// A row kind names where a row falls against RowSorter's paths.
const (
	rowShort  = iota // at most shortRow entries: insertion sort
	rowDense         // longer, span within the dense rule: linear placement
	rowSparse        // longer, span past the dense rule: sort.Sort
)

// rowKind classifies a row of d ids spread over span consecutive ids.
func rowKind(d, span int) int {
	switch {
	case d <= shortRow:
		return rowShort
	case denseRow(d, span):
		return rowDense
	default:
		return rowSparse
	}
}

// randomRow draws d ids from [base, base+span) with random weights: distinct
// ids, or, with repeat, one id given twice (d >= 2, span >= d-1). The span
// is drawn as given, so the row's own span may be narrower.
func randomRow(rng *rand.Rand, d, span int, repeat bool) ([]int32, []float64) {
	base := rng.Intn(1000)
	distinct := d
	if repeat {
		distinct--
	}
	idx := make([]int32, 0, d)
	seen := make(map[int]bool, d)
	for len(idx) < distinct {
		if k := rng.Intn(span); !seen[k] {
			seen[k] = true
			idx = append(idx, int32(base+k))
		}
	}
	if repeat {
		idx = append(idx, idx[rng.Intn(len(idx))])
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	wts := make([]float64, d)
	for i := range wts {
		wts[i] = rng.Float64()
	}
	return idx, wts
}

// limitSpan is the widest span a row of d > shortRow ids may have and still
// be dense.
func limitSpan(d int) int { return 64 * d * bits.Len(uint(d-1)) }

// One RowSorter, reused across rows of every kind and width in turn, must
// sort each like the reference: for distinct ids, the one ascending
// order with each weight on its id. A row that repeats an id keeps today's
// comparison sort, so it must come out exactly as the insertion sort (short
// rows, which is the stable reference) or sort.Sort (longer rows) leave it.
func TestRowSorterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var s RowSorter
	var kinds [3][2]int // [kind][repeat] rows sorted
	for trial := 0; trial < 3000; trial++ {
		var d, span int
		switch trial % 6 {
		case 0: // every length around the short cutoff
			d = 1 + trial/6%(2*shortRow)
			span = 4 * d
		case 1: // dense: a permutation of consecutive ids, or a little wider
			d = shortRow + 1 + rng.Intn(400)
			span = d + rng.Intn(3*d)
		case 2: // right at the dense limit
			d = shortRow + 1 + rng.Intn(200)
			span = limitSpan(d)
		case 3: // just past the dense limit
			d = shortRow + 1 + rng.Intn(200)
			span = limitSpan(d) + 64
		case 4: // far sparser
			d = shortRow + 1 + rng.Intn(200)
			span = 1 << 20
		case 5: // hub rows
			d = 1000 + rng.Intn(3000)
			span = d + rng.Intn(limitSpan(d))
		}
		repeat := d >= 2 && rng.Intn(4) == 0
		idx, wts := randomRow(rng, d, span, repeat)
		lo, hi := slices.Min(idx), slices.Max(idx)
		kind := rowKind(d, int(hi-lo)+1)
		want, wantW := slices.Clone(idx), slices.Clone(wts)
		if repeat && kind != rowShort {
			sort.Sort(&adjSorter{want, wantW})
		} else {
			refSortRow(want, wantW)
		}
		s.Sort(idx, wts)
		if !slices.Equal(idx, want) || !slices.Equal(wts, wantW) {
			t.Fatalf("trial %d (d %d, span %d, kind %d, repeat %v): rows differ", trial, d, hi-lo+1, kind, repeat)
		}
		if repeat {
			kinds[kind][1]++
		} else {
			kinds[kind][0]++
		}
	}
	for kind, n := range kinds {
		if n[0] < 50 || n[1] < 10 {
			t.Errorf("kind %d: %d rows of distinct ids and %d with a repeat; want both sides of every path", kind, n[0], n[1])
		}
	}
}

// BenchmarkRowSorter times one long row per op on both sides of the dense
// rule: its span's bitset at a quarter, half, one and two times the rule's
// d·⌈log2 d⌉ words (the last takes sort.Sort), against sort.Sort itself.
func BenchmarkRowSorter(b *testing.B) {
	for _, d := range []int{32, 256, 4096} {
		for _, frac := range []float64{0.25, 0.5, 1, 2} {
			span := int(frac * float64(limitSpan(d)))
			rng := rand.New(rand.NewSource(1))
			idx, wts := randomRow(rng, d, span, false)
			row, rowW := make([]int32, d), make([]float64, d)
			var s RowSorter
			b.Run(fmt.Sprintf("d=%d/words=%.2fx/sorter", d, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(row, idx)
					copy(rowW, wts)
					s.Sort(row, rowW)
				}
			})
			b.Run(fmt.Sprintf("d=%d/words=%.2fx/sort.Sort", d, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(row, idx)
					copy(rowW, wts)
					sort.Sort(&adjSorter{row, rowW})
				}
			})
		}
	}
}
