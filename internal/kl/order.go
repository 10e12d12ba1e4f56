package kl

import (
	"math"
	"math/bits"
	"slices"
)

// keyedMember is one class member j in Climb's commit order, keyed by
// gainKey of its provisional gain.
type keyedMember struct {
	key uint64
	j   int32
}

// gainKey maps a gain to a key whose ascending order is the gains'
// descending order under cmp.Compare: -0 and +0 tie, and NaN, which
// cmp.Compare puts below every number, gets the largest key. The float's
// sign and magnitude become a two's-complement integer, so the keys of
// whole-number gains, which integral weights give, share their low bytes
// and differ only in the high two or three.
func gainKey(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	b := math.Float64bits(f)
	m := int64(b &^ (1 << 63))
	if b>>63 != 0 {
		m = -m
	}
	// m orders like f, and is 0 for both zeros; flipping its sign bit
	// orders it unsigned, and the complement reverses the order.
	return ^(uint64(m) ^ 1<<63)
}

// shortClass is the run a merge sort of a class starts from: runs this
// long are insertion-sorted, and so is a class no longer than one.
const shortClass = 16

// sortStable sorts a by key, keeping tied members in their order, with tmp
// (grown and returned) as scratch: radixSort when it takes the class,
// mergeSort otherwise.
func sortStable(a, tmp []keyedMember) []keyedMember {
	if len(a) > shortClass {
		tmp = slices.Grow(tmp[:0], len(a))[:len(a)]
		if radixSort(a, tmp) {
			return tmp
		}
	}
	mergeSort(a, tmp)
	return tmp
}

// mergeSort sorts a by key, stably: insertion-sorted runs of shortClass
// members, then bottom-up merges through tmp, which must be as long as a
// when a is longer than one run.
func mergeSort(a, tmp []keyedMember) {
	n := len(a)
	for lo := 0; lo < n; lo += shortClass {
		run := a[lo:min(lo+shortClass, n)]
		for i := 1; i < len(run); i++ {
			x := run[i]
			k := i
			for ; k > 0 && run[k-1].key > x.key; k-- {
				run[k] = run[k-1]
			}
			run[k] = x
		}
	}
	src, dst := a, tmp
	for width := shortClass; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, k, out := lo, mid, lo
			for i < mid && k < hi {
				if src[k].key < src[i].key {
					dst[out] = src[k]
					k++
				} else {
					dst[out] = src[i]
					i++
				}
				out++
			}
			out += copy(dst[out:], src[i:mid])
			copy(dst[out:], src[k:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &a[0] {
		copy(a, src)
	}
}

// radixSort sorts a by key, stably, a byte at a time from the least
// significant, passing only over the bytes in which some keys differ, with
// tmp (as long as a) as the other buffer, and reports true. A pass costs
// about what one level of mergeSort does (the insertion-sorted runs, then
// each merge), plus a 256-entry histogram, so when the passes would cost
// more than mergeSort's levels it leaves a as it is and reports false.
// Integral gains differ in two or three bytes, which wins from about 100
// members; fractional gains differ in all eight, which loses at every class
// size a tileSize tile allows.
func radixSort(a, tmp []keyedMember) bool {
	and, or := ^uint64(0), uint64(0)
	for _, x := range a {
		and &= x.key
		or |= x.key
	}
	differ := and ^ or
	passes := 0
	for d := differ; d != 0; d >>= 8 {
		if d&0xff != 0 {
			passes++
		}
	}
	n := len(a)
	if levels := bits.Len(uint(n-1)) - 3; passes*(n+64) > levels*n {
		return false
	}
	src, dst := a, tmp
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var at [256]int32
		for _, x := range src {
			at[byte(x.key>>shift)]++
		}
		sum := int32(0)
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for _, x := range src {
			d := byte(x.key >> shift)
			dst[at[d]] = x
			at[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(a, src)
	}
	return true
}
