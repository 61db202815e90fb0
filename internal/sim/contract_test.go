package sim_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/wsn"
)

// syntheticRuntime builds a 60-node random deployment over the
// synthetic field, whose readings change every round.
func syntheticRuntime(t *testing.T) (*sim.Runtime, *data.Synthetic) {
	t.Helper()
	top, err := wsn.BuildConnectedTree(60, 200, 45, rand.New(rand.NewSource(3)), 50)
	if err != nil {
		t.Fatal(err)
	}
	src, err := data.NewSynthetic(data.SyntheticConfig{Period: 32, NoisePct: 5}, top.Pos, 200)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.New(sim.Config{Topology: top, Source: src, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return rt, src
}

// busiestRelay returns the sensor with the most children.
func busiestRelay(top *wsn.Topology) int {
	best := 0
	for u := range top.Children {
		if len(top.Children[u]) > len(top.Children[best]) {
			best = u
		}
	}
	return best
}

// TestReadingMatchesSource pins the per-round reading cache: Reading
// must equal the source's value for every node and round, across round
// advances, loss changes, and a fault-plan repair that rewires the tree.
func TestReadingMatchesSource(t *testing.T) {
	rt, src := syntheticRuntime(t)
	plan, err := fault.Parse("crash@2-12:n" + strconv.Itoa(busiestRelay(rt.Topology())))
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for i := 0; i < rt.N(); i++ {
			if got, want := rt.Reading(i), src.Value(i, rt.Round()); got != want {
				t.Fatalf("round %d node %d: Reading %d, source %d", rt.Round(), i, got, want)
			}
			if got, want := rt.ReadingAt(i, rt.Round()+1), src.Value(i, rt.Round()+1); got != want {
				t.Fatalf("round %d node %d: ReadingAt next round %d, source %d", rt.Round(), i, got, want)
			}
		}
	}
	check()
	if err := rt.SetFaults(plan, 1, sim.DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 15; r++ {
		if r == 5 {
			if err := rt.SetLossProb(0.2); err != nil {
				t.Fatal(err)
			}
		}
		check()
		rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
			return &testPayload{bits: 16, vals: []int{rt.Reading(n)}}
		})
		check()
		rt.AdvanceRound()
	}
	check()
	if rt.Repairs() == 0 {
		t.Fatal("the crash never forced a repair; the test lost its point")
	}
}

// TestStatsIncludePendingPhase checks that per-phase traffic is visible
// through Stats while its phase is still open, that ARQ control frames
// are booked under the phase that caused them, and that phases without
// traffic leave no entry.
func TestStatsIncludePendingPhase(t *testing.T) {
	rt := simtest.ChainRuntime(t, chainSeries, 0, 1)
	if err := rt.SetFaults(nil, 1, sim.DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	send := func(n int, children []sim.Payload) sim.Payload { return &testPayload{bits: 16} }

	rt.SetPhase(sim.PhaseValidation)
	rt.Convergecast(send)
	st := rt.Stats()
	val := st.PerPhase[sim.PhaseValidation]
	// Three data hops, each acknowledged by one header-only frame.
	if val.Payloads != 3 || val.Frames != 6 || st.AckFrames != 3 {
		t.Fatalf("mid-phase validation stats %+v (acks %d), want 3 payloads in 6 frames", val, st.AckFrames)
	}
	rt.Convergecast(send)
	if got := rt.Stats().PerPhase[sim.PhaseValidation]; got.Payloads != 6 || got.Frames != 12 {
		t.Fatalf("second read of the open phase %+v, want 6 payloads in 12 frames", got)
	}

	rt.SetPhase(sim.PhaseRefinement) // no traffic under this label
	rt.SetPhase(sim.PhaseFilter)
	rt.Broadcast(&testPayload{bits: 16}, nil)
	st = rt.Stats()
	if _, ok := st.PerPhase[sim.PhaseRefinement]; ok {
		t.Error("a phase without traffic got a PerPhase entry")
	}
	var sum sim.PhaseStats
	for _, ps := range st.PerPhase {
		sum.Payloads += ps.Payloads
		sum.Frames += ps.Frames
		sum.Bits += ps.Bits
		sum.Values += ps.Values
	}
	if sum.Payloads != st.PayloadsSent || sum.Frames != st.FramesSent || sum.Bits != st.BitsSent || sum.Values != st.ValuesSent {
		t.Errorf("per-phase sums %+v disagree with totals %+v", sum, st)
	}
	if st.PerPhase[sim.PhaseValidation].Frames != 12 {
		t.Errorf("closing the phase changed its counts: %+v", st.PerPhase[sim.PhaseValidation])
	}
}

// fromPayload tags a payload with its sender.
func fromPayload(n int) sim.Payload { return &testPayload{bits: 16, vals: []int{n}} }

// checkMergeOrder runs one convergecast and compares the senders every
// merge call saw with the inbox order: every child that transmitted, in
// post-order.
func checkMergeOrder(t *testing.T, rt *sim.Runtime) {
	t.Helper()
	top := rt.Topology()
	pos := make(map[int]int, len(top.PostOrder))
	for i, u := range top.PostOrder {
		pos[u] = i
	}
	got := make(map[int][]int)
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		for _, c := range children {
			got[n] = append(got[n], c.(*testPayload).vals[0])
		}
		return fromPayload(n)
	})
	for _, p := range atRoot {
		got[-1] = append(got[-1], p.(*testPayload).vals[0])
	}
	want := make(map[int][]int)
	for _, u := range top.PostOrder {
		want[top.Parent[u]] = append(want[top.Parent[u]], u)
	}
	for parent, kids := range want {
		for i := 1; i < len(kids); i++ {
			if pos[kids[i-1]] > pos[kids[i]] {
				t.Fatalf("test bug: children of %d not in post-order", parent)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge saw children %v, want %v", got, want)
	}
}

// TestMergeReceivesChildrenInPostOrder pins the payload-stack contract
// on a hand-built tree, after a re-parent, and on a random deployment.
func TestMergeReceivesChildrenInPostOrder(t *testing.T) {
	// root ← 0 ← {1 ← 3, 2} and root ← 4: post-order 3 1 2 0 4.
	pos := []wsn.Point{{X: 10}, {X: 20}, {X: 10, Y: 10}, {X: 30}, {Y: -10}}
	top, err := wsn.BuildTree(pos, wsn.Point{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 1, 2, 0, 4}; !reflect.DeepEqual(top.PostOrder, want) {
		t.Fatalf("fixture post-order %v, want %v", top.PostOrder, want)
	}
	tr, err := data.NewTrace([][]int{{1}, {2}, {3}, {4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.New(sim.Config{Topology: top, Source: tr, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	checkMergeOrder(t, rt)

	// Move 2 under 1: node 1 now merges 2 then 3.
	if err := rt.Topology().Reparent(2, 1); err != nil {
		t.Fatal(err)
	}
	rt.AdvanceRound()
	checkMergeOrder(t, rt)

	rnd, _ := syntheticRuntime(t)
	checkMergeOrder(t, rnd)
}

// TestCrashedRelayDropsSubtree checks that the payloads a crashed relay's
// children delivered die with it: neither the relay's parent nor the
// root sees them, and the relay itself never merges.
func TestCrashedRelayDropsSubtree(t *testing.T) {
	// root ← 0 ← 1 ← 2 ← 3, with relay 1 down from round 0.
	rt := simtest.ChainRuntime(t, [][]int{{10}, {20}, {30}, {40}}, 0, 1)
	plan, err := fault.Parse("crash@0:n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetFaults(plan, 1, sim.ARQConfig{}); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int][]int)
	atRoot := rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
		seen[n] = nil
		for _, c := range children {
			seen[n] = append(seen[n], c.(*testPayload).vals...)
		}
		return fromPayload(n)
	})
	if _, ok := seen[1]; ok {
		t.Error("the crashed relay merged")
	}
	if len(seen[0]) != 0 {
		t.Errorf("the crashed relay's parent received %v", seen[0])
	}
	if len(seen[2]) != 1 || seen[2][0] != 3 {
		t.Errorf("node 2 received %v, want [3]", seen[2])
	}
	if len(atRoot) != 1 || atRoot[0].(*testPayload).vals[0] != 0 {
		t.Errorf("root received %d payloads, want only node 0's", len(atRoot))
	}
}
