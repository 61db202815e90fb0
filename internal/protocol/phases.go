package protocol

import (
	"slices"
	"sort"

	"wsnq/internal/msg"
	"wsnq/internal/sim"
)

// HintBoundsAround interprets the hint fields relative to the old
// filter position, honoring the encoding mode: in HintTwoValues mode
// the exact extremes are available; in HintMaxDistance mode only a
// symmetric distance around center is known, which widens the bound
// but costs one value field less on the air (§5.1.6).
func (c *Counters) HintBoundsAround(center int) (lo, hi int, hasLo, hasHi bool) {
	switch c.mode {
	case HintTwoValues:
		return c.HintLo, c.HintHi, c.HasLo, c.HasHi
	case HintMaxDistance:
		if !c.HasLo && !c.HasHi {
			return 0, 0, false, false
		}
		d := 0
		if c.HasLo && center-c.HintLo > d {
			d = center - c.HintLo
		}
		if c.HasHi && c.HintHi-center > d {
			d = c.HintHi - center
		}
		return center - d, center + d, true, true
	default:
		return 0, 0, false, false
	}
}

// ValidationSpec configures the validation convergecast at the start of
// an update round. All nodes share the filter interval [Lb, Ub).
type ValidationSpec struct {
	Lb, Ub int // shared filter interval, point filters are [v, v+1)

	// Prev returns the node's previous-round measurement (node state).
	Prev func(node int) int

	// Hints selects the hint encoding.
	Hints HintMode

	// Attach, if non-nil, reports whether a node must ship its current
	// measurement in the multiset A (IQ's Ξ test).
	Attach func(node, value int) bool
}

// leafChunk is how many fresh leaf payloads a collector allocates at
// once.
const leafChunk = 16

// chunks hands out zeroed values from chunks of leafChunk, so a
// convergecast allocates its leaf payloads per chunk, not per leaf.
// Nothing outlives the collector call.
type chunks[T any] struct{ buf []T }

func (c *chunks[T]) next() *T {
	if len(c.buf) == 0 {
		c.buf = make([]T, leafChunk)
	}
	p := &c.buf[0]
	c.buf = c.buf[1:]
	return p
}

// RunValidation executes one validation convergecast: every node whose
// measurement changed its filter region contributes movement counters
// and hints; nodes matched by Attach additionally ship their values;
// intermediate nodes aggregate; nodes with nothing to report stay
// silent. The merged root view is returned (zero-valued if the whole
// network stayed silent).
//
// A node with children folds its own contribution and its other
// children into its first child's payload and forwards that, so only
// reporting leaves need a payload.
func RunValidation(rt *sim.Runtime, spec ValidationSpec) Counters {
	sizes := rt.Sizes()
	var leaves chunks[Counters]
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		cur := rt.Reading(n)
		var own Counters
		oldR := Classify(spec.Prev(n), spec.Lb, spec.Ub)
		newR := Classify(cur, spec.Lb, spec.Ub)
		if oldR != newR {
			switch oldR {
			case RegionLess:
				own.OutOfL = 1
			case RegionGreater:
				own.OutOfG = 1
			}
			switch newR {
			case RegionLess:
				own.IntoL = 1
				own.HintLo, own.HasLo = cur, true
			case RegionGreater:
				own.IntoG = 1
				own.HintHi, own.HasHi = cur, true
			}
		}
		attach := spec.Attach != nil && spec.Attach(n, cur)
		var c *Counters
		switch {
		case len(children) > 0:
			c = children[0].(*Counters)
			for _, ch := range children[1:] {
				c.merge(ch.(*Counters))
			}
		case own.Empty() && !attach:
			return nil
		default:
			c = leaves.next()
			c.mode, c.sizes = spec.Hints, sizes
		}
		c.merge(&own)
		if attach {
			c.Attached = append(c.Attached, cur)
		}
		return c
	})
	root := Counters{mode: spec.Hints, sizes: sizes}
	for _, p := range atRoot {
		root.merge(p.(*Counters))
	}
	clear(atRoot)
	sort.Ints(root.Attached)
	return root
}

// Apply updates the root's count state with the movement counters.
func (s LEG) Apply(c *Counters) LEG {
	l := s.L - c.OutOfL + c.IntoL
	g := s.G - c.OutOfG + c.IntoG
	return LEG{L: l, E: s.N() - l - g, G: g}
}

// valuesPool hands the Values payloads merged away during one
// convergecast to later leaves, so their buffers serve again within
// the same call. Nothing outlives the call.
type valuesPool struct {
	sizes msg.Sizes
	free  []*Values
	fresh chunks[Values]
}

// get returns an empty Values payload, recycled when one is free.
func (vp *valuesPool) get() *Values {
	if n := len(vp.free); n > 0 {
		v := vp.free[n-1]
		vp.free = vp.free[:n-1]
		v.Vals = v.Vals[:0]
		return v
	}
	v := vp.fresh.next()
	v.sizes = vp.sizes
	return v
}

// absorb appends the values of children[1:] to the first child's
// payload, releases the merged-away payloads to the pool, and returns
// the first child's payload as the node's accumulator, with room for
// own more values; it returns nil for a node without children.
func (vp *valuesPool) absorb(children []sim.Payload, own int) *Values {
	if len(children) == 0 {
		return nil
	}
	acc := children[0].(*Values)
	more := own
	for _, ch := range children[1:] {
		more += len(ch.(*Values).Vals)
	}
	acc.Vals = slices.Grow(acc.Vals, more)
	for _, ch := range children[1:] {
		o := ch.(*Values)
		acc.Vals = append(acc.Vals, o.Vals...)
		vp.free = append(vp.free, o)
	}
	return acc
}

// rootValues concatenates the values that reached the root into a
// fresh slice and releases the root entries (see Runtime.Convergecast).
func rootValues(atRoot []sim.Payload) []int {
	var all []int
	for _, p := range atRoot {
		all = append(all, p.(*Values).Vals...)
	}
	clear(atRoot)
	return all
}

// CollectSmallestK is the TAG-style collection: every node merges its
// measurement with its children's lists and forwards the k smallest.
// The returned slice holds the (up to k) smallest measurements that
// reached the root, ascending. Under loss, fewer or other values may
// arrive; loss-free it is exact.
func CollectSmallestK(rt *sim.Runtime, k int) []int {
	pool := valuesPool{sizes: rt.Sizes()}
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		acc := pool.absorb(children, 1)
		if acc == nil {
			acc = pool.get()
		}
		acc.Vals = append(acc.Vals, rt.Reading(n))
		sort.Ints(acc.Vals)
		if len(acc.Vals) > k {
			acc.Vals = acc.Vals[:k]
		}
		return acc
	})
	all := rootValues(atRoot)
	sort.Ints(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// CollectValuesIn performs a direct-retrieval convergecast: every node
// with a measurement in the closed interval [lo, hi] ships it; values
// are concatenated unmodified. The result arrives sorted ascending.
func CollectValuesIn(rt *sim.Runtime, lo, hi int) []int {
	rt.TraceRefine(lo, hi, -1)
	pool := valuesPool{sizes: rt.Sizes()}
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		v, own := rt.Reading(n), 0
		if v >= lo && v <= hi {
			own = 1
		}
		acc := pool.absorb(children, own)
		if acc == nil {
			if own == 0 {
				return nil
			}
			acc = pool.get()
		}
		if own == 1 {
			acc.Vals = append(acc.Vals, v)
		}
		return acc
	})
	all := rootValues(atRoot)
	sort.Ints(all)
	return all
}

// CollectExtreme is IQ's refinement response: nodes with a measurement
// in the closed interval [lo, hi] contribute it, and every aggregating
// node truncates to the f largest (largest = true) or f smallest
// values, always keeping values tied with the f-th so the root can
// resolve duplicates exactly. The result arrives sorted ascending.
func CollectExtreme(rt *sim.Runtime, lo, hi, f int, largest bool) []int {
	if f < 0 {
		f = 0
	}
	rt.TraceRefine(lo, hi, f)
	pool := valuesPool{sizes: rt.Sizes()}
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		v, own := rt.Reading(n), 0
		if v >= lo && v <= hi {
			own = 1
		}
		acc := pool.absorb(children, own)
		if acc == nil {
			if own == 0 {
				return nil
			}
			acc = pool.get()
		}
		if own == 1 {
			acc.Vals = append(acc.Vals, v)
		}
		acc.Vals = truncateExtreme(acc.Vals, f, largest)
		if len(acc.Vals) == 0 {
			pool.free = append(pool.free, acc)
			return nil
		}
		return acc
	})
	all := rootValues(atRoot)
	all = truncateExtreme(all, f, largest)
	return all
}

// truncateExtreme keeps the f largest (or smallest) elements plus any
// boundary ties, returning them sorted ascending.
func truncateExtreme(vals []int, f int, largest bool) []int {
	sort.Ints(vals)
	if len(vals) <= f {
		return vals
	}
	if f == 0 {
		return nil
	}
	if largest {
		boundary := vals[len(vals)-f] // f-th largest
		i := sort.SearchInts(vals, boundary)
		return vals[i:]
	}
	boundary := vals[f-1] // f-th smallest
	i := sort.SearchInts(vals, boundary+1)
	return vals[:i]
}

// CollectHistogram gathers the bucket histogram of all measurements in
// bu's range: each node inside sorts itself into a bucket, histograms
// aggregate by vector addition, and only non-empty subtrees transmit.
func CollectHistogram(rt *sim.Runtime, bu Buckets) []int {
	rt.TraceRefine(bu.Lo, bu.Hi-1, bu.Effective())
	return CollectCounts(rt, bu.Effective(), bu.Index)
}

// CollectCounts gathers a histogram of cells counts: cellOf maps a
// measurement to its cell, or reports false for measurements outside
// every cell. Histograms aggregate by vector addition, travel
// compressed, and only non-empty subtrees transmit. A node with
// children adds into its first child's histogram; the histograms of
// the other children are merged away and serve later leaves of the
// same call. The returned counts are freshly allocated.
func CollectCounts(rt *sim.Runtime, cells int, cellOf func(v int) (int, bool)) []int {
	sizes := rt.Sizes()
	var free []*Histogram
	var fresh chunks[Histogram]
	var freshCounts []int
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		idx, in := cellOf(rt.Reading(n))
		var acc *Histogram
		switch {
		case len(children) > 0:
			acc = children[0].(*Histogram)
			for _, ch := range children[1:] {
				h := ch.(*Histogram)
				for i, c := range h.Counts {
					acc.Counts[i] += c
				}
				free = append(free, h)
			}
		case !in:
			return nil
		case len(free) > 0:
			acc = free[len(free)-1]
			free = free[:len(free)-1]
			clear(acc.Counts)
		default:
			if len(freshCounts) == 0 {
				freshCounts = make([]int, leafChunk*cells)
			}
			acc = fresh.next()
			acc.Counts, acc.sizes = freshCounts[:cells:cells], sizes
			freshCounts = freshCounts[cells:]
		}
		if in {
			acc.Counts[idx]++
		}
		return acc
	})
	total := make([]int, cells)
	for _, p := range atRoot {
		for i, c := range p.(*Histogram).Counts {
			total[i] += c
		}
	}
	clear(atRoot)
	return total
}
