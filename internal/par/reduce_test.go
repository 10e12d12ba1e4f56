package par

import (
	"fmt"
	"testing"
)

func TestReduceSum(t *testing.T) {
	n := 10_000
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := Reduce(workers, n, 0,
			func(acc, i int) int { return acc + i },
			func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

// A non-commutative merge (string concatenation) exposes any dependence of
// the merge order on the worker count: the fixed chunk grid must yield the
// ascending-chunk concatenation for every width.
func TestReduceDeterministicNonCommutativeMerge(t *testing.T) {
	n := 3*ReduceChunk + 7
	run := func(workers int) string {
		return Reduce(workers, n, "",
			func(acc string, i int) string {
				if i%ReduceChunk == 0 {
					return acc + fmt.Sprintf("[%d]", i/ReduceChunk)
				}
				return acc
			},
			func(a, b string) string { return a + b })
	}
	ref := run(1)
	if ref != "[0][1][2][3]" {
		t.Fatalf("unexpected reference %q", ref)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		if got := run(workers); got != ref {
			t.Fatalf("workers=%d: %q != %q", workers, got, ref)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(4, 0, -1, func(acc, i int) int { return 0 }, func(a, b int) int { return 0 })
	if got != -1 {
		t.Errorf("empty reduce returned %d, want identity", got)
	}
}
