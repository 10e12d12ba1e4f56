package kl

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The climb's commit order must be the order the float comparator gave it:
// gain descending under cmp.Compare (NaN below every number, -0 tied with
// +0), ties by ascending member index. Every class size from 1 to 600 is
// drawn three times, through one sweeper so its buffers are reused: twice
// with heavy ties, signed zeros, infinities, NaN, subnormals and arbitrary
// finite gains, and once with integral gains and -Inf only, whose keys
// differ in few enough bytes that long classes take the radix sort.
func TestCommitOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, math.Inf(1), math.Inf(-1), math.NaN(),
		-math.NaN(), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	var s sweeper
	var radix, merge int
	for trial := 0; trial < 1800; trial++ {
		m := 1 + trial%600
		s.score = ensureFloat(s.score, m)
		for j := range s.score {
			switch {
			case trial/600 == 2 && rng.Intn(8) == 0:
				s.score[j] = math.Inf(-1)
			case trial/600 == 2:
				s.score[j] = float64(rng.Intn(81) - 40)
			case rng.Intn(3) == 0:
				s.score[j] = rng.NormFloat64() * 100
			default:
				s.score[j] = pool[rng.Intn(len(pool))]
			}
		}
		if m > shortClass {
			keys := make([]keyedMember, m)
			for j, f := range s.score {
				keys[j] = keyedMember{key: gainKey(f), j: int32(j)}
			}
			if radixSort(keys, make([]keyedMember, m)) {
				radix++
			} else {
				merge++
			}
		}
		want := make([]int32, m)
		for j := range want {
			want[j] = int32(j)
		}
		slices.SortFunc(want, func(a, b int32) int {
			if c := cmp.Compare(s.score[b], s.score[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for k, o := range s.commitOrder(m) {
			if o.j != want[k] {
				t.Fatalf("class of %d: slot %d commits member %d (gain %v), comparator gives %d (gain %v)",
					m, k, o.j, s.score[o.j], want[k], s.score[want[k]])
			}
		}
	}
	if radix < 100 || merge < 100 {
		t.Errorf("%d long classes radix-sorted and %d merge-sorted; want both paths", radix, merge)
	}
}
