// Package baseline implements the comparison algorithms of the paper's
// evaluation: TAG [17] (§5.1.6), POS [9] (§3.2), and the two LCLL [16]
// variants, hierarchical refining (LCLL-H) and slip refining (LCLL-S).
// All of them satisfy protocol.Algorithm and return exact quantiles.
package baseline

import (
	"fmt"
	"sort"
)

// Partition is the dynamic bucketing LCLL maintains: the integer
// universe split into contiguous cells that are coarse away from the
// quantile and fine (down to unit width) around it. The root stores the
// exact measurement count of every cell; the cell boundaries are known
// to every node (kept in sync by refinement broadcasts), so validation
// deltas can be expressed as cell indices.
type Partition struct {
	bounds []int // ascending; cell i covers [bounds[i], bounds[i+1])
	counts []int // exact per-cell counts (root knowledge)
}

// NewPartition creates a partition of [lo, hi) into at most b
// equal-width cells with all counts zero.
func NewPartition(lo, hi, b int) (*Partition, error) {
	if hi <= lo {
		return nil, fmt.Errorf("baseline: empty partition range [%d,%d)", lo, hi)
	}
	if b < 1 {
		return nil, fmt.Errorf("baseline: cell count %d must be >= 1", b)
	}
	w := (hi - lo + b - 1) / b
	var bounds []int
	for x := lo; x < hi; x += w {
		bounds = append(bounds, x)
	}
	bounds = append(bounds, hi)
	return &Partition{bounds: bounds, counts: make([]int, len(bounds)-1)}, nil
}

// Cells returns the number of cells.
func (p *Partition) Cells() int { return len(p.counts) }

// Bounds returns the half-open range of cell i.
func (p *Partition) Bounds(i int) (lo, hi int) { return p.bounds[i], p.bounds[i+1] }

// Count returns the stored count of cell i.
func (p *Partition) Count(i int) int { return p.counts[i] }

// Lo and Hi return the covered universe range [Lo, Hi).
func (p *Partition) Lo() int { return p.bounds[0] }

// Hi returns the exclusive upper end of the covered range.
func (p *Partition) Hi() int { return p.bounds[len(p.bounds)-1] }

// CellOf returns the cell containing v, or false if v is outside the
// covered range.
func (p *Partition) CellOf(v int) (int, bool) {
	if v < p.Lo() || v >= p.Hi() {
		return 0, false
	}
	// First bound strictly greater than v, minus one.
	i := sort.SearchInts(p.bounds, v+1) - 1
	return i, true
}

// AddDelta adjusts cell i's count (validation bookkeeping).
func (p *Partition) AddDelta(i, d int) { p.counts[i] += d }

// Total returns the sum of all cell counts.
func (p *Partition) Total() int {
	t := 0
	for _, c := range p.counts {
		t += c
	}
	return t
}

// OwningCell locates the cell containing global rank k (1-based) and
// the number of measurements in cells before it.
func (p *Partition) OwningCell(k int) (idx, below int, err error) {
	cum := 0
	for i, c := range p.counts {
		if cum+c >= k && k > cum {
			return i, cum, nil
		}
		cum += c
	}
	return 0, 0, fmt.Errorf("baseline: rank %d not covered by partition total %d", k, cum)
}

// cellRange returns the cell index range [i, j) exactly covering
// [lo, hi); both must be existing cell boundaries.
func (p *Partition) cellRange(lo, hi int) (i, j int, err error) {
	i = sort.SearchInts(p.bounds, lo)
	j = sort.SearchInts(p.bounds, hi)
	if i >= len(p.bounds) || p.bounds[i] != lo || j >= len(p.bounds) || p.bounds[j] != hi || j <= i {
		return 0, 0, fmt.Errorf("baseline: [%d,%d) is not cell-aligned", lo, hi)
	}
	return i, j, nil
}

// Replace substitutes the cells exactly covering [lo, hi) with new
// cells given by innerBounds (which must start at lo and end at hi) and
// their counts. Counts may be nil, meaning unknown-yet (zeros).
func (p *Partition) Replace(lo, hi int, innerBounds []int, counts []int) error {
	if len(innerBounds) < 2 || innerBounds[0] != lo || innerBounds[len(innerBounds)-1] != hi {
		return fmt.Errorf("baseline: replacement bounds must span [%d,%d)", lo, hi)
	}
	for i := 1; i < len(innerBounds); i++ {
		if innerBounds[i] <= innerBounds[i-1] {
			return fmt.Errorf("baseline: replacement bounds not increasing at %d", i)
		}
	}
	if counts != nil && len(counts) != len(innerBounds)-1 {
		return fmt.Errorf("baseline: %d counts for %d cells", len(counts), len(innerBounds)-1)
	}
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	if counts == nil {
		counts = make([]int, len(innerBounds)-1)
	}
	cells := i + len(counts) + len(p.counts) - j
	newBounds := append(make([]int, 0, cells+1), p.bounds[:i]...)
	newBounds = append(newBounds, innerBounds[:len(innerBounds)-1]...)
	newBounds = append(newBounds, p.bounds[j:]...)
	newCounts := append(make([]int, 0, cells), p.counts[:i]...)
	newCounts = append(newCounts, counts...)
	newCounts = append(newCounts, p.counts[j:]...)
	p.bounds, p.counts = newBounds, newCounts
	return nil
}

// Merge collapses the cells exactly covering [lo, hi) into a single
// cell whose count is their sum — the communication-free zoom-out.
func (p *Partition) Merge(lo, hi int) error {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	sum := 0
	for c := i; c < j; c++ {
		sum += p.counts[c]
	}
	return p.Replace(lo, hi, []int{lo, hi}, []int{sum})
}

// InnerBounds lists the boundaries of the cells covering [lo, hi),
// which must be cell-aligned.
func (p *Partition) InnerBounds(lo, hi int) ([]int, error) {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), p.bounds[i:j+1]...), nil
}

// SetCounts overwrites the counts of the cells covering [lo, hi).
func (p *Partition) SetCounts(lo, hi int, counts []int) error {
	i, j, err := p.cellRange(lo, hi)
	if err != nil {
		return err
	}
	if len(counts) != j-i {
		return fmt.Errorf("baseline: %d counts for %d cells", len(counts), j-i)
	}
	copy(p.counts[i:j], counts)
	return nil
}

// UnitBounds returns the boundary list that splits [lo, hi) into unit
// cells.
func UnitBounds(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}

// EqualBounds returns boundaries splitting [lo, hi) into at most b
// equal-width cells (last cell possibly shorter).
func EqualBounds(lo, hi, b int) []int {
	w := (hi - lo + b - 1) / b
	out := []int{lo}
	for x := lo + w; x < hi; x += w {
		out = append(out, x)
	}
	return append(out, hi)
}
