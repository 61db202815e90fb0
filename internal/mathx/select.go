package mathx

import (
	"fmt"
	"sort"
)

// KthSmallest returns the k-th smallest element (1-based rank) of vs
// without fully sorting it. It panics if k is out of [1, len(vs)].
// The input slice is not modified.
func KthSmallest(vs []int, k int) int {
	if k < 1 || k > len(vs) {
		panic(fmt.Sprintf("mathx: rank %d out of range for %d values", k, len(vs)))
	}
	buf := make([]int, len(vs))
	copy(buf, vs)
	return quickselect(buf, k-1)
}

// KthSmallestInPlace is KthSmallest for a caller-owned scratch slice:
// it reorders buf instead of copying it, so a caller that refills the
// same buffer every call selects without allocating.
func KthSmallestInPlace(buf []int, k int) int {
	if k < 1 || k > len(buf) {
		panic(fmt.Sprintf("mathx: rank %d out of range for %d values", k, len(buf)))
	}
	return quickselect(buf, k-1)
}

// KthLargest returns the k-th largest element (1-based rank) of vs.
func KthLargest(vs []int, k int) int {
	return KthSmallest(vs, len(vs)-k+1)
}

// quickselect returns the element that would be at index i of the
// sorted slice, reordering buf in place. Median-of-three pivoting keeps
// the expected running time linear; a fallback to sort.Ints guards
// against adversarial degradation on equal-heavy inputs.
func quickselect(buf []int, i int) int {
	lo, hi := 0, len(buf)-1
	for depth := 0; ; depth++ {
		if lo == hi {
			return buf[lo]
		}
		if depth > 64 {
			sub := buf[lo : hi+1]
			sort.Ints(sub)
			return buf[i]
		}
		p := medianOfThree(buf, lo, hi)
		lt, gt := threeWayPartition(buf, lo, hi, p)
		switch {
		case i < lt:
			hi = lt - 1
		case i > gt:
			lo = gt + 1
		default:
			return buf[i] // inside the equal-to-pivot run
		}
	}
}

func medianOfThree(buf []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	a, b, c := buf[lo], buf[mid], buf[hi]
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	default:
		return c
	}
}

// threeWayPartition rearranges buf[lo:hi+1] into (<p)(=p)(>p) runs and
// returns the index range [lt, gt] of the equal run.
func threeWayPartition(buf []int, lo, hi, p int) (lt, gt int) {
	lt, gt = lo, hi
	i := lo
	for i <= gt {
		switch {
		case buf[i] < p:
			buf[i], buf[lt] = buf[lt], buf[i]
			lt++
			i++
		case buf[i] > p:
			buf[i], buf[gt] = buf[gt], buf[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// SmallestK returns the k smallest elements of vs in ascending order.
// If k >= len(vs) a sorted copy of vs is returned.
func SmallestK(vs []int, k int) []int {
	out := make([]int, len(vs))
	copy(out, vs)
	sort.Ints(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// LargestK returns the k largest elements of vs in ascending order.
// If k >= len(vs) a sorted copy of vs is returned.
func LargestK(vs []int, k int) []int {
	out := make([]int, len(vs))
	copy(out, vs)
	sort.Ints(out)
	if k < len(out) {
		out = out[len(out)-k:]
	}
	return out
}

// MedianInts returns the lower median of vs (the ⌈n/2⌉-th smallest,
// matching the paper's k = ⌊|N|/2⌋ convention for even n when ranks are
// 1-based). It panics on an empty slice.
func MedianInts(vs []int) int {
	n := len(vs)
	if n == 0 {
		panic("mathx: median of empty slice")
	}
	k := n / 2
	if k == 0 {
		k = 1
	}
	return KthSmallest(vs, k)
}

// MinMaxInts returns the smallest and largest elements of vs.
// It panics on an empty slice.
func MinMaxInts(vs []int) (minV, maxV int) {
	if len(vs) == 0 {
		panic("mathx: min/max of empty slice")
	}
	minV, maxV = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// CountLess returns how many elements of vs are strictly below x.
func CountLess(vs []int, x int) int {
	n := 0
	for _, v := range vs {
		if v < x {
			n++
		}
	}
	return n
}

// CountEqual returns how many elements of vs equal x.
func CountEqual(vs []int, x int) int {
	n := 0
	for _, v := range vs {
		if v == x {
			n++
		}
	}
	return n
}
