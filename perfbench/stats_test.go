package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4}, {-5, 1}, {120, 4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestBeyond(t *testing.T) {
	if got := beyond(1000, 99); math.Abs(got-10) > 1e-9 {
		t.Errorf("beyond(1000, 99) = %v, want 10", got)
	}
	if got := beyond(200, 95); math.Abs(got-10) > 1e-9 {
		t.Errorf("beyond(200, 95) = %v, want 10", got)
	}
}

func TestZipfSeeded(t *testing.T) {
	const n, draws = 100, 20000
	a, b, c := newZipf(7, 1.1, n), newZipf(7, 1.1, n), newZipf(8, 1.1, n)
	same, counts := true, make([]int, n)
	differs := false
	for i := 0; i < draws; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x < 0 || x >= n {
			t.Fatalf("draw %d out of [0, %d)", x, n)
		}
		same = same && x == y
		differs = differs || x != z
		counts[x]++
	}
	if !same {
		t.Error("two zipf sequences from the same seed differ")
	}
	if !differs {
		t.Error("zipf sequences from different seeds are identical")
	}
	hot, hits := 0, 0
	for i, k := range counts {
		if k > hits {
			hot, hits = i, k
		}
	}
	// Under Zipf(1.1) over 100 items the top item draws about a fifth
	// of the traffic; uniform traffic would give it about 1%.
	if share := float64(hits) / draws; share < 0.1 {
		t.Errorf("hottest index %d draws %.3f of the traffic, want a skewed share above 0.1", hot, share)
	}
	if a.perm[0] == c.perm[0] && a.perm[1] == c.perm[1] && a.perm[2] == c.perm[2] {
		t.Error("the hot set does not depend on the seed")
	}
}
