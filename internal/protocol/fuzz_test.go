package protocol

import (
	"slices"
	"sort"
	"testing"
)

// FuzzHistogramCodec checks that the byte-level histogram codec is a
// lossless round trip for arbitrary non-negative count vectors, and that
// DecodeHistogram never panics or silently mis-decodes arbitrary bytes.
func FuzzHistogramCodec(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 5}, 4)
	f.Add([]byte{255, 1}, 2)
	f.Add([]byte{0x01, 0x02, 0x03}, 16)
	f.Fuzz(func(t *testing.T, raw []byte, buckets int) {
		buckets %= 512
		if buckets < 0 {
			buckets = -buckets
		}

		// Direction 1: encode a derived count vector, decode, compare.
		counts := make([]int, buckets)
		for i := range counts {
			if i < len(raw) {
				counts[i] = int(raw[i])
			}
		}
		enc, err := EncodeHistogram(counts)
		if err != nil {
			t.Fatalf("EncodeHistogram(%v): %v", counts, err)
		}
		dec, err := DecodeHistogram(enc, buckets)
		if err != nil {
			t.Fatalf("DecodeHistogram round trip failed: %v", err)
		}
		for i := range counts {
			if dec[i] != counts[i] {
				t.Fatalf("bucket %d: decoded %d, encoded %d", i, dec[i], counts[i])
			}
		}

		// Direction 2: arbitrary bytes must decode cleanly or error —
		// and anything accepted must re-encode to a valid histogram.
		if got, err := DecodeHistogram(raw, buckets); err == nil {
			if len(got) != buckets {
				t.Fatalf("decode of raw bytes returned %d buckets, want %d", len(got), buckets)
			}
			if _, err := EncodeHistogram(got); err != nil {
				t.Fatalf("decoded histogram does not re-encode: %v", err)
			}
		}
	})
}

// FuzzBucketsIndex checks the bucket partition invariants: every value in
// range lands in exactly one bucket whose bounds contain it, bucket
// bounds tile [Lo, Hi) without gaps, and out-of-range values are
// rejected.
func FuzzBucketsIndex(f *testing.F) {
	f.Add(0, 100, 10, 55)
	f.Add(-50, 50, 7, -50)
	f.Add(3, 4, 16, 3)
	f.Fuzz(func(t *testing.T, lo, hi, b, v int) {
		// Bound the range so width arithmetic stays far from overflow.
		const lim = 1 << 20
		if lo < -lim || lo > lim || hi < -lim || hi > lim {
			return
		}
		b = b%64 + 1
		if b < 1 {
			b += 64
		}
		bu, err := NewBuckets(lo, hi, b)
		if err != nil {
			if hi > lo {
				t.Fatalf("NewBuckets(%d,%d,%d) rejected a valid range: %v", lo, hi, b, err)
			}
			return
		}

		eff := bu.Effective()
		if eff < 1 || eff > b {
			t.Fatalf("Effective() = %d outside [1,%d]", eff, b)
		}
		// Bounds must tile [Lo, Hi) exactly.
		prev := lo
		for i := 0; i < eff; i++ {
			blo, bhi := bu.Bounds(i)
			if blo != prev || bhi <= blo {
				t.Fatalf("bucket %d bounds [%d,%d) break the tiling at %d", i, blo, bhi, prev)
			}
			prev = bhi
		}
		if prev != hi {
			t.Fatalf("buckets tile up to %d, range ends at %d", prev, hi)
		}

		idx, ok := bu.Index(v)
		if inRange := v >= lo && v < hi; ok != inRange {
			t.Fatalf("Index(%d) in-range=%v, want %v", v, ok, inRange)
		}
		if ok {
			if idx < 0 || idx >= eff {
				t.Fatalf("Index(%d) = %d outside [0,%d)", v, idx, eff)
			}
			blo, bhi := bu.Bounds(idx)
			if v < blo || v >= bhi {
				t.Fatalf("value %d assigned to bucket %d = [%d,%d)", v, idx, blo, bhi)
			}
		}
	})
}

// FuzzSmallestKMerge checks TAG's bounded merge (mergeSmallest folded
// over a node's children, then insertSmallest of its own reading)
// against the append + sort + truncate it replaces. raw is split into
// up to eight child lists at every 0xFF byte; values are taken modulo
// 8 so duplicates abound, and empty lists and k beyond the input size
// come up as a matter of course.
func FuzzSmallestKMerge(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(2), uint8(1))
	f.Add([]byte{5, 5, 0xFF, 5, 1, 0xFF, 0xFF, 7}, uint8(5), uint8(4))
	f.Add([]byte{0xFF, 3, 3, 3, 0xFF, 2}, uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, raw []byte, own, kb uint8) {
		k := int(kb % 40)
		var lists [][]int
		cur := []int{}
		for _, b := range raw {
			if b == 0xFF {
				lists, cur = append(lists, cur), []int{}
				continue
			}
			cur = append(cur, int(b%8))
		}
		lists = append(lists, cur)
		if len(lists) > 8 {
			lists = lists[:8]
		}
		var want []int
		for i, l := range lists {
			// On the air every list is already a sorted k-truncation.
			sort.Ints(l)
			if len(l) > k {
				lists[i] = l[:k]
			}
			want = append(want, lists[i]...)
		}
		want = append(want, int(own%8))
		sort.Ints(want)
		if len(want) > k {
			want = want[:k]
		}

		acc := append([]int(nil), lists[0]...)
		var buf []int
		for _, l := range lists[1:] {
			buf = mergeSmallest(buf[:0], acc, l, k)
			acc, buf = buf, acc
		}
		got := insertSmallest(acc, int(own%8), k)
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("lists %v own %d k %d: bounded merge %v, sort+truncate %v", lists, own%8, k, got, want)
		}
	})
}
