package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the definition numpy and
// Python's statistics module (method "inclusive") use. xs is not
// modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond returns how many of n samples lie above the p-th percentile.
// A tail percentile is reported only where this is at least ten: an
// estimate resting on fewer samples is noise.
func beyond(n int, p float64) float64 { return float64(n) * (100 - p) / 100 }

// zipf draws indices in [0, n) with a Zipf(s) popularity law over a
// seeded permutation, so the hot set is a random subset of the indices
// rather than always the lowest ones. The same seed gives the same
// sequence.
type zipf struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(seed int64, s float64, n int) *zipf {
	r := rand.New(rand.NewSource(seed))
	return &zipf{
		z:    rand.NewZipf(r, s, 1, uint64(n-1)),
		perm: r.Perm(n),
	}
}

// next returns the next index.
func (z *zipf) next() int { return z.perm[z.z.Uint64()] }
