package sim

import (
	"reflect"
	"testing"
)

// checkPlan broadcasts once and fails unless the flood plan of the
// runtime's tree is the one a fresh copy of the tree builds, and the
// broadcast booked one transmission per relay plus the root's.
func checkPlan(t *testing.T, rt *Runtime, when string) {
	t.Helper()
	before := rt.Stats().PayloadsSent
	rt.Broadcast(benchPayload{bits: 16}, nil)
	fl := rt.top.Flood()
	if fresh := rt.top.Clone().Flood(); !reflect.DeepEqual(fl, fresh) {
		t.Fatalf("%s: stale flood plan (%d relays, the tree has %d)", when, len(fl.Relays), len(fresh.Relays))
	}
	if got := rt.Stats().PayloadsSent - before; got != 1+len(fl.Relays) {
		t.Fatalf("%s: broadcast booked %d transmissions, want %d", when, got, 1+len(fl.Relays))
	}
}

// TestFloodPlanRebuiltAfterReparent checks every point where the tree
// changes under a runtime: a re-parent on the runtime's topology, the
// clone SetFaults makes, and the re-parents of proactive rerouting.
// After each one the next broadcast must run on the new tree's plan.
func TestFloodPlanRebuiltAfterReparent(t *testing.T) {
	rt := benchRuntime(t)
	checkPlan(t, rt, "initial tree")

	// Move a leaf that is its parent's only child to the root: the
	// parent stops relaying.
	relays := len(rt.top.Flood().Relays)
	moved := false
	for _, u := range rt.top.PostOrder {
		p := rt.top.Parent[u]
		if p >= 0 && len(rt.top.Children[u]) == 0 && len(rt.top.Children[p]) == 1 {
			if err := rt.top.Reparent(u, -1); err != nil {
				t.Fatal(err)
			}
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fixture has no only-child leaf")
	}
	checkPlan(t, rt, "after Reparent")
	if len(rt.top.Flood().Relays) != relays-1 {
		t.Fatalf("after Reparent: %d relays, want %d", len(rt.top.Flood().Relays), relays-1)
	}

	shared := rt.top
	if err := rt.SetFaults(nil, 1, DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	if rt.top == shared {
		t.Fatal("SetFaults did not clone the topology")
	}
	checkPlan(t, rt, "after SetFaults' clone")

	if n := rt.ProactiveReroot(); n == 0 {
		t.Fatal("ProactiveReroot moved nothing")
	}
	checkPlan(t, rt, "after ProactiveReroot")
}
