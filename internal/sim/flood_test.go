package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/fault"
	"wsnq/internal/msg"
	"wsnq/internal/sim"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// discard is a collector that drops every event: attaching it switches
// a runtime onto its traced code paths without storing anything.
type discard struct{}

func (discard) Collect(trace.Event) {}

// virtualRuntime builds a 70-sensor deployment expanded to three
// measurements per sensor (two virtual children each), over the
// synthetic field, with the given loss and distance-based charging.
func virtualRuntime(t *testing.T, loss float64, byDist bool) *sim.Runtime {
	t.Helper()
	base, err := wsn.BuildConnectedTree(70, 200, 45, rand.New(rand.NewSource(5)), 50)
	if err != nil {
		t.Fatal(err)
	}
	top, err := wsn.ExpandVirtual(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := data.NewSynthetic(data.SyntheticConfig{Period: 16, NoisePct: 5}, top.Pos, 200)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.New(sim.Config{
		Topology: top, Source: src, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams(),
		LossProb: loss, ChargeByDistance: byDist, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// refFlood charges one reliable flood of wire bits over top the way
// the paper's broadcast is defined, straight from the tree: every
// radio sensor top-down receives, then retransmits if it has a radio
// child — at the nominal range, or at its farthest radio child's
// distance under distance-based charging.
func refFlood(l *energy.Ledger, top *wsn.Topology, wire int, byDist bool) {
	for i := len(top.PostOrder) - 1; i >= 0; i-- {
		u := top.PostOrder[i]
		if top.IsVirtual(u) {
			continue
		}
		l.ChargeRecv(u, wire)
		relay, rho := false, 0.0
		for _, c := range top.Children[u] {
			if top.IsVirtual(c) {
				continue
			}
			relay = true
			rho = max(rho, top.Pos[u].Dist(top.Pos[c]))
		}
		if !byDist {
			rho = top.Range
		}
		if relay {
			l.ChargeSend(u, wire, rho)
		}
	}
}

// sameSpent fails unless the two ledgers hold bit-identical cumulative
// consumption for every node.
func sameSpent(t *testing.T, when string, a, b *energy.Ledger) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	for u := range sa {
		if math.Float64bits(sa[u]) != math.Float64bits(sb[u]) {
			t.Fatalf("%s: node %d spent %v != %v", when, u, sa[u], sb[u])
		}
	}
}

// valuePayload is a broadcast payload that carries values, so the
// transmitted-values counters move too.
type valuePayload struct{ bits, vals int }

func (p valuePayload) Bits() int       { return p.bits }
func (p valuePayload) ValueCount() int { return p.vals }

// TestFloodMatchesTracedLoop is the differential test of the untraced
// broadcast: one Ledger.ChargeFlood over the flood plan plus batched
// accounting must leave every node's energy (cumulative and per round)
// bit-identical, and every Stats field equal, to the traced per-node
// loop — and both must match a flood charged straight from the tree.
// The tree has virtual nodes (they neither receive nor relay) and
// transmissions are charged by distance (every relay has its own
// range); visit must see every sensor top-down on both paths.
func TestFloodMatchesTracedLoop(t *testing.T) {
	for _, byDist := range []bool{true, false} {
		t.Run("byDist="+strconv.FormatBool(byDist), func(t *testing.T) {
			fast := virtualRuntime(t, 0, byDist)
			slow := virtualRuntime(t, 0, byDist)
			slow.SetTrace(discard{})
			ref := energy.NewLedger(fast.N(), energy.DefaultParams())
			sizes := fast.Sizes()
			var topDown []int
			for i := len(fast.Topology().PostOrder) - 1; i >= 0; i-- {
				topDown = append(topDown, fast.Topology().PostOrder[i])
			}
			payloads := []sim.Payload{
				valuePayload{bits: 16},
				valuePayload{bits: 3 * sizes.PayloadBits, vals: 40}, // multi-frame
				valuePayload{bits: 2*sizes.BoundBits + sizes.CounterBits, vals: 1},
			}
			phases := []string{sim.PhaseInit, sim.PhaseRefinement, sim.PhaseFilter}
			for r := 0; r < 4; r++ {
				for i, p := range payloads {
					var seenFast, seenSlow []int
					fast.SetPhase(phases[(r+i)%len(phases)])
					slow.SetPhase(phases[(r+i)%len(phases)])
					fast.Broadcast(p, func(u int) { seenFast = append(seenFast, u) })
					slow.Broadcast(p, func(u int) { seenSlow = append(seenSlow, u) })
					refFlood(ref, fast.Topology(), sizes.WireBits(p.Bits()), byDist)
					when := "round " + strconv.Itoa(r) + " broadcast " + strconv.Itoa(i)
					sameSpent(t, when+" (fast vs traced)", fast.Ledger(), slow.Ledger())
					sameSpent(t, when+" (fast vs tree)", fast.Ledger(), ref)
					if !reflect.DeepEqual(fast.Stats(), slow.Stats()) {
						t.Fatalf("%s: stats %+v, traced %+v", when, fast.Stats(), slow.Stats())
					}
					if !reflect.DeepEqual(seenFast, topDown) || !reflect.DeepEqual(seenSlow, topDown) {
						t.Fatalf("%s: visit order differs from top-down", when)
					}
				}
				a, b, c := fast.Ledger().EndRound(), slow.Ledger().EndRound(), ref.EndRound()
				if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(a) != math.Float64bits(c) {
					t.Fatalf("round %d: max round energy %v, traced %v, tree %v", r, a, b, c)
				}
				fast.AdvanceRound()
				slow.AdvanceRound()
			}
			if st := fast.Stats(); st.Broadcasts != 12 || st.PayloadsLostDown != 0 {
				t.Fatalf("stats %+v: want 12 lossless broadcasts", st)
			}
		})
	}
}

// mergeCall is one merge invocation that mattered: a node that had
// children to forward, or a reading in range.
type mergeCall struct{ node, children int }

// rangeMerge returns a value-collecting merge over [lo, hi] that obeys
// the ConvergecastIn contract (a childless out-of-range node returns
// nil), logging every call that had children or a reading in range
// and counting the rest in *silent.
func rangeMerge(rt *sim.Runtime, lo, hi int, log *[]mergeCall, silent *int) func(int, []sim.Payload) sim.Payload {
	return func(n int, children []sim.Payload) sim.Payload {
		v := rt.Reading(n)
		in := v >= lo && v <= hi
		if len(children) == 0 && !in {
			*silent++
			return nil
		}
		p := &testPayload{bits: 8}
		for _, c := range children {
			p.vals = append(p.vals, c.(*testPayload).vals...)
		}
		if in {
			p.vals = append(p.vals, v)
		}
		p.bits += len(p.vals) * 16
		*log = append(*log, mergeCall{n, len(children)})
		return p
	}
}

// TestConvergecastInMatchesConvergecast is the differential test of the
// range-selective convergecast: under iid loss and a crash plan with
// ARQ, ConvergecastIn must make the same merge calls that matter, in
// the same order, deliver the same payloads to the root, and leave the
// same statistics and bit-identical energy as Convergecast running the
// same merge — while never calling merge for a childless node out of
// range.
func TestConvergecastInMatchesConvergecast(t *testing.T) {
	full := virtualRuntime(t, 0.15, true)
	sel := virtualRuntime(t, 0.15, true)
	plan, err := fault.Parse("crash@1-4:n" + strconv.Itoa(busiestRelay(full.Topology())) + "; crash@2:n7")
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []*sim.Runtime{full, sel} {
		if err := rt.SetFaults(plan, 3, sim.DefaultARQ()); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := full.Universe()
	top := full.Topology()
	skipped := 0
	for r := 0; r < 8; r++ {
		// Fixed ranges, and ranges that end exactly on the readings of
		// two leaves, so the interval's closed ends are exercised.
		ranges := [][2]int{{lo, hi}, {lo + (hi-lo)/3, lo + (hi-lo)/2}, {hi + 1, hi + 10}}
		for _, u := range []int{top.PostOrder[0], top.PostOrder[len(top.PostOrder)/2]} {
			if v := full.Reading(u); len(top.Children[u]) == 0 {
				ranges = append(ranges, [2]int{v, v}, [2]int{v, v + 100}, [2]int{v - 100, v})
			}
		}
		for i, rg := range ranges {
			var logFull, logSel []mergeCall
			var silentFull, silentSel int
			atFull := full.Convergecast(rangeMerge(full, rg[0], rg[1], &logFull, &silentFull))
			atSel := sel.ConvergecastIn(rg[0], rg[1], rangeMerge(sel, rg[0], rg[1], &logSel, &silentSel))
			when := "round " + strconv.Itoa(r) + " range " + strconv.Itoa(i)
			if silentSel != 0 {
				t.Fatalf("%s: ConvergecastIn merged %d childless out-of-range nodes", when, silentSel)
			}
			skipped += silentFull
			if !reflect.DeepEqual(logFull, logSel) {
				t.Fatalf("%s: merge sequence differs: %v vs %v", when, logFull, logSel)
			}
			if len(atFull) != len(atSel) {
				t.Fatalf("%s: %d root payloads, range-selective %d", when, len(atFull), len(atSel))
			}
			for j := range atFull {
				if !reflect.DeepEqual(atFull[j], atSel[j]) {
					t.Fatalf("%s: root payload %d differs", when, j)
				}
			}
			if !reflect.DeepEqual(full.Stats(), sel.Stats()) {
				t.Fatalf("%s: stats %+v, range-selective %+v", when, full.Stats(), sel.Stats())
			}
			sameSpent(t, when, full.Ledger(), sel.Ledger())
		}
		full.AdvanceRound()
		sel.AdvanceRound()
	}
	if st := full.Stats(); st.PayloadsLost == 0 || full.Repairs() == 0 || skipped == 0 {
		t.Fatalf("fixture too tame: lost %d, repairs %d, skipped merges %d", st.PayloadsLost, full.Repairs(), skipped)
	}
}
