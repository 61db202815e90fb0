package sim

import (
	"testing"

	"wsnq/internal/trace"
)

// The allocation guards of the round path (`make allocs`): the
// convergecast core must not allocate once its payload stack has grown,
// and a runtime that never loses a hop must never build its loss
// sampler.

// TestConvergecastAllocFree pins Convergecast with a non-allocating
// merge at zero allocations per call, readings and phase accounting
// included.
func TestConvergecastAllocFree(t *testing.T) {
	rt := benchRuntime(t)
	merge := staticMerge(rt)
	rt.SetPhase(PhaseValidation)
	rt.Convergecast(merge) // grow the payload stack and the reading cache
	if allocs := testing.AllocsPerRun(100, func() { rt.Convergecast(merge) }); allocs != 0 {
		t.Errorf("Convergecast allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rt.AdvanceRound()
		rt.Convergecast(merge)
	}); allocs != 0 {
		t.Errorf("AdvanceRound+Convergecast allocates %.1f times per round, want 0", allocs)
	}
}

// staticMerge is benchMerge over preallocated per-node payloads, so the
// merge itself never allocates.
func staticMerge(rt *Runtime) func(node int, children []Payload) Payload {
	payloads := make([]benchPayload, rt.N())
	return func(node int, children []Payload) Payload {
		p := &payloads[node]
		p.bits, p.values = 32, 1
		for _, c := range children {
			p.values += c.(*benchPayload).values
		}
		_ = rt.Reading(node)
		return p
	}
}

// TestLosslessRuntimeHasNoRNG checks that the loss sampler's generator
// is only built by a loss draw: convergecasts, broadcasts and a fault
// plan on a lossless runtime never create it, and the first lossy hop
// does.
func TestLosslessRuntimeHasNoRNG(t *testing.T) {
	rt := benchRuntime(t)
	rt.SetTrace(trace.NewRing(64))
	merge := benchMerge(rt)
	for r := 0; r < 3; r++ {
		rt.Convergecast(merge)
		rt.Broadcast(benchPayload{bits: 16}, nil)
		rt.AdvanceRound()
	}
	if err := rt.SetFaults(nil, 1, DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	rt.Convergecast(merge)
	rt.Broadcast(benchPayload{bits: 16}, nil)
	if rt.rng != nil {
		t.Fatal("a lossless runtime built its loss sampler")
	}
	if err := rt.SetLossProb(0.5); err != nil {
		t.Fatal(err)
	}
	rt.Convergecast(merge)
	if rt.rng == nil {
		t.Fatal("a lossy convergecast drew without a sampler")
	}
}
