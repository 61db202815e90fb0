package sim

import (
	"fmt"

	"wsnq/internal/fault"
	"wsnq/internal/trace"
)

// This file is the fault-injection and recovery layer of the engine:
// it binds a seeded fault.Injector (crash schedules, Gilbert–Elliott
// bursty links, sink partitions) to a Runtime and makes the stack
// survive it — per-hop ACK/ARQ with bounded retries and per-attempt
// energy, a free per-round keepalive beacon for timeout-based
// dead-parent detection, routing-tree repair onto a private topology
// clone, and per-round coverage accounting (missing sensors,
// staleness, and a rank-error bound) that lets the root answer in
// degraded mode while a subtree is unreachable.
//
// A Runtime without faults attached (rt.flt == nil) takes none of
// these paths: payload routing, RNG consumption, and energy charges
// are bit-identical to the pre-fault engine, which the golden-trace
// regression pins.

// ARQConfig tunes the per-hop acknowledgement/retransmission scheme
// used once faults are attached. The zero value disables ARQ (every
// hop gets a single attempt).
type ARQConfig struct {
	// Enabled turns on link-layer acknowledgements: every delivered
	// payload is confirmed with a header-only ACK frame (charged to
	// both ends) and unacknowledged payloads are retransmitted.
	Enabled bool
	// MaxRetries bounds the retransmissions after the first attempt.
	MaxRetries int
	// DeadAfter is the number of consecutive failed rounds (keepalive
	// beacon or exhausted data retries) after which a node declares its
	// parent dead and detaches for repair.
	DeadAfter int
}

// DefaultARQ returns the recovery configuration used by the chaos
// studies: ARQ on, 3 retransmissions, parents declared dead after 2
// consecutive failed rounds.
func DefaultARQ() ARQConfig {
	return ARQConfig{Enabled: true, MaxRetries: 3, DeadAfter: 2}
}

// faultState is the per-runtime recovery state; nil when no faults are
// attached.
type faultState struct {
	inj *fault.Injector
	arq ARQConfig

	deadRounds []int  // consecutive failed rounds per node's uplink
	detached   []bool // node declared its parent dead, awaiting repair
	failedNow  []bool // data retries exhausted during the current round
	reach      []bool // transitively sink-connected at round start

	missing  int  // unreachable sensors (measurements) this round
	orphans  int  // alive but unreachable sensors this round
	lostSub  int  // measurements behind hops that died this round
	lastFull int  // last round that completed with full coverage
	repairs  int  // successful re-parent operations
	reinit   bool // repair/recovery happened; protocol state is stale
}

// SetFaults attaches a fault plan to the runtime: the topology is
// cloned (repair mutates it privately; the original keeps serving
// other runs of a shared deployment), an injector seeded with seed is
// bound, and the ARQ/recovery machinery switches on. Pass a nil or
// empty plan with ARQ enabled to get pure ARQ behavior under iid loss.
// Attaching replays the fault schedule for the current round
// immediately. Faults cannot be attached twice.
func (rt *Runtime) SetFaults(plan *fault.Plan, seed int64, arq ARQConfig) error {
	if rt.flt != nil {
		return fmt.Errorf("sim: faults already attached")
	}
	if plan.Empty() && !arq.Enabled {
		return nil
	}
	if arq.Enabled {
		if arq.MaxRetries < 0 {
			return fmt.Errorf("sim: negative retry budget %d", arq.MaxRetries)
		}
		if arq.DeadAfter <= 0 {
			arq.DeadAfter = DefaultARQ().DeadAfter
		}
	}
	n := rt.top.N()
	rt.top = rt.top.Clone()
	rt.flt = &faultState{
		inj:        fault.NewInjector(plan, n, seed),
		arq:        arq,
		deadRounds: make([]int, n),
		detached:   make([]bool, n),
		failedNow:  make([]bool, n),
		reach:      make([]bool, n),
		lastFull:   rt.round - 1,
	}
	rt.startRoundFaults()
	return nil
}

// FaultsAttached reports whether the recovery layer is active.
func (rt *Runtime) FaultsAttached() bool { return rt.flt != nil }

// ARQ returns the attached ARQ configuration (zero when no faults are
// attached).
func (rt *Runtime) ARQ() ARQConfig {
	if rt.flt == nil {
		return ARQConfig{}
	}
	return rt.flt.arq
}

// SetFaultReliable suspends (true) or restores (false) link-level
// faults — bursts and partitions, not crashes — while a driver replays
// a reliable protocol re-initialization. A no-op without faults.
func (rt *Runtime) SetFaultReliable(rel bool) {
	if rt.flt != nil {
		rt.flt.inj.SetReliable(rel)
	}
}

// Missing returns the number of sensors (measurements) structurally
// unreachable from the sink this round: crashed nodes, detached
// subtrees, and everything behind a sink partition. Zero without
// faults.
func (rt *Runtime) Missing() int {
	if rt.flt == nil {
		return 0
	}
	return rt.flt.missing
}

// Orphans returns the number of alive-but-unreachable sensors this
// round (the repair backlog). Zero without faults.
func (rt *Runtime) Orphans() int {
	if rt.flt == nil {
		return 0
	}
	return rt.flt.orphans
}

// CoverageDeficit returns the rank-error bound of a degraded answer:
// the structurally missing measurements plus those behind hops whose
// retry budget ran out during the current round. Zero means the round
// has full coverage so far.
func (rt *Runtime) CoverageDeficit() int {
	if rt.flt == nil {
		return 0
	}
	return rt.flt.missing + rt.flt.lostSub
}

// Staleness returns how many rounds have passed since the last round
// that completed with full coverage (0 when the current round is fully
// covered so far).
func (rt *Runtime) Staleness() int {
	if rt.flt == nil || rt.CoverageDeficit() == 0 {
		return 0
	}
	return rt.round - rt.flt.lastFull
}

// Repairs returns the number of successful re-parent operations so far.
func (rt *Runtime) Repairs() int {
	if rt.flt == nil {
		return 0
	}
	return rt.flt.repairs
}

// ConsumeReinit reports whether a repair or crash recovery since the
// last call left protocol state stale, and clears the flag. Drivers
// re-run the algorithm's initialization when it fires, restoring exact
// answers after the tree heals.
func (rt *Runtime) ConsumeReinit() bool {
	if rt.flt == nil || !rt.flt.reinit {
		return false
	}
	rt.flt.reinit = false
	return true
}

// crashedNode reports whether u's radio is dead this round; a virtual
// node dies with its host.
func (rt *Runtime) crashedNode(u int) bool {
	f := rt.flt
	if rt.top.IsVirtual(u) {
		return f.inj.Down(rt.top.Parent[u])
	}
	return f.inj.Down(u)
}

// linkDown reports whether u's uplink cannot carry traffic this round:
// the parent is crashed, the Gilbert–Elliott process is in its bad
// state, or a sink partition blocks the root link.
func (rt *Runtime) linkDown(u int) bool {
	f := rt.flt
	parent := rt.top.Parent[u]
	if parent == -1 {
		return f.inj.PartitionActive()
	}
	return f.inj.Down(parent) || f.inj.BurstBad(u)
}

// subtreeSize returns the number of sensors (measurements) in u's
// subtree, u included.
func (rt *Runtime) subtreeSize(u int) int {
	size := 0
	stack := []int{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		stack = append(stack, rt.top.Children[v]...)
	}
	return size
}

// endRoundFaults closes the completing round's coverage bookkeeping.
func (rt *Runtime) endRoundFaults() {
	f := rt.flt
	if f.missing == 0 && f.lostSub == 0 {
		f.lastFull = rt.round
	}
}

// startRoundFaults advances the fault schedule to the (new) current
// round and runs the recovery pipeline: crash/recovery bookkeeping,
// beacon-based dead-parent detection, routing-tree repair, and the
// coverage recomputation every degraded answer is tagged with.
func (rt *Runtime) startRoundFaults() {
	f := rt.flt
	crashed, recovered := f.inj.StartRound(rt.round)
	for _, u := range crashed {
		f.deadRounds[u], f.detached[u] = 0, false
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{Kind: trace.KindCrash, Round: rt.round, Node: u, Aux: 1})
		}
	}
	for _, u := range recovered {
		f.deadRounds[u], f.detached[u] = 0, false
		// The node resumes on its old link with cold protocol state.
		f.reinit = true
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{Kind: trace.KindCrash, Round: rt.round, Node: u, Aux: 0})
		}
	}

	// Keepalive beacon: every alive, attached sensor pings its parent
	// once per round (modeled free — it rides on scheduled MAC traffic).
	// A beacon that cannot cross the link, or a round whose data
	// retries ran out, counts toward the dead-parent timeout.
	for u := 0; u < rt.top.N(); u++ {
		if rt.top.IsVirtual(u) || f.inj.Down(u) || f.detached[u] {
			continue
		}
		if rt.linkDown(u) || f.failedNow[u] {
			f.deadRounds[u]++
			if f.deadRounds[u] >= f.arq.DeadAfter && f.arq.DeadAfter > 0 {
				f.detached[u] = true
			}
		} else {
			f.deadRounds[u] = 0
		}
		f.failedNow[u] = false
	}

	rt.repairDetached()
	rt.computeReach()
	f.lostSub = 0
}

// repairDetached tries to re-attach every detached node to the best
// in-range neighbor that still reaches the sink. Probing is free
// (carrier sensing on scheduled traffic); a successful join pays a
// header-only handshake each way and flags the run for protocol
// re-initialization. Orphans with no candidate stay detached and
// re-probe next round — when a partition heals or a crashed relay
// recovers, the old parent becomes a candidate again and the subtree
// rejoins.
func (rt *Runtime) repairDetached() {
	f := rt.flt
	repaired := false
	for u := 0; u < rt.top.N(); u++ {
		if !f.detached[u] || f.inj.Down(u) {
			continue
		}
		rt.computeReach()
		newParent, ok := rt.top.RepairCandidate(u, f.reach, !f.inj.PartitionActive())
		if !ok {
			continue
		}
		oldParent := rt.top.Parent[u]
		if err := rt.top.Reparent(u, newParent); err != nil {
			// Candidate search precludes cycles; a failure here means a
			// broken invariant, so leave the node orphaned.
			continue
		}
		f.detached[u], f.deadRounds[u] = false, 0
		f.repairs++
		f.reinit = true
		repaired = true
		// Join handshake: request up, confirm down, one header frame
		// each way.
		ackWire := rt.sizes.HeaderBits
		rt.ledger.ChargeSend(u, ackWire, rt.uplinkRange(u))
		rt.ledger.ChargeRecv(newParent, ackWire)
		rt.ledger.ChargeSend(newParent, ackWire, rt.uplinkRange(u))
		rt.ledger.ChargeRecv(u, ackWire)
		rt.stats.AckFrames += 2
		rt.accountControl(2*ackWire, 2)
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindReparent, Round: rt.round, Phase: rt.Phase(),
				Node: u, Peer: newParent, Aux: oldParent,
			})
			rt.emitControlFrame(u, newParent, ackWire)
			rt.emitControlFrame(newParent, u, ackWire)
		}
	}
	if repaired {
		rt.computeReach()
	}
}

// ProactiveReroot offloads the hottest relay before it dies: the
// closed-loop controller (internal/adapt) calls it when an energy
// burn-rate alert projects a relay's death inside the horizon. It picks
// the alive non-virtual node with the highest cumulative energy drain
// that still carries radio children and re-parents each of those
// children onto the best in-range candidate *outside* the relay's
// subtree — a sibling adoption would keep routing the traffic through
// the hot node. Every successful move pays the same join handshake as
// reactive repair (repairDetached) and flags the run for protocol
// re-initialization. Returns the number of subtrees moved; zero without
// an attached fault plan, because only SetFaults clones the topology
// into privately mutable state.
func (rt *Runtime) ProactiveReroot() int {
	f := rt.flt
	if f == nil {
		return 0
	}
	spent := rt.ledger.Snapshot()
	hot := -1
	for u := 0; u < rt.top.N(); u++ {
		if rt.top.IsVirtual(u) || rt.crashedNode(u) || !rt.hasRadioChildren(u) {
			continue
		}
		if u >= len(spent) {
			continue
		}
		if hot < 0 || spent[u] > spent[hot] {
			hot = u
		}
	}
	if hot < 0 {
		return 0
	}
	// Candidate mask: sink-reachable nodes outside the hot relay's
	// subtree.
	rt.computeReach()
	mask := make([]bool, rt.top.N())
	for u := range mask {
		mask[u] = f.reach[u] && !rt.top.InSubtree(u, hot)
	}
	moved := 0
	children := append([]int(nil), rt.top.Children[hot]...)
	for _, c := range children {
		if rt.top.IsVirtual(c) || rt.crashedNode(c) {
			continue
		}
		newParent, ok := rt.top.RepairCandidate(c, mask, !f.inj.PartitionActive())
		if !ok {
			continue
		}
		if err := rt.top.Reparent(c, newParent); err != nil {
			continue
		}
		f.detached[c], f.deadRounds[c] = false, 0
		f.repairs++
		f.reinit = true
		moved++
		// Join handshake: request up, confirm down, one header frame
		// each way — identical to reactive repair.
		ackWire := rt.sizes.HeaderBits
		rt.ledger.ChargeSend(c, ackWire, rt.uplinkRange(c))
		rt.ledger.ChargeRecv(newParent, ackWire)
		rt.ledger.ChargeSend(newParent, ackWire, rt.uplinkRange(c))
		rt.ledger.ChargeRecv(c, ackWire)
		rt.stats.AckFrames += 2
		rt.accountControl(2*ackWire, 2)
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindReparent, Round: rt.round, Phase: rt.Phase(),
				Node: c, Peer: newParent, Aux: hot,
			})
			rt.emitControlFrame(c, newParent, ackWire)
			rt.emitControlFrame(newParent, c, ackWire)
		}
	}
	if moved > 0 {
		rt.computeReach()
	}
	return moved
}

// computeReach recomputes per-node sink connectivity and the derived
// missing/orphan counts. Iterating the post-order backwards visits
// parents before children.
func (rt *Runtime) computeReach() {
	f := rt.flt
	f.missing, f.orphans = 0, 0
	po := rt.top.PostOrder
	for i := len(po) - 1; i >= 0; i-- {
		u := po[i]
		parent := rt.top.Parent[u]
		ok := !rt.crashedNode(u)
		if ok && !rt.top.IsVirtual(u) {
			ok = !f.detached[u]
		}
		if ok {
			if parent == -1 {
				ok = !f.inj.PartitionActive()
			} else {
				ok = f.reach[parent]
			}
		}
		f.reach[u] = ok
		if !ok {
			f.missing++
			if !rt.crashedNode(u) {
				f.orphans++
			}
		}
	}
}

// accountControl books wire-only control traffic (ACKs, join
// handshakes, retransmitted frames) into the global stats and the
// current phase's pending counts without counting a logical payload.
func (rt *Runtime) accountControl(wire, frames int) {
	rt.stats.FramesSent += frames
	rt.stats.BitsSent += wire
	rt.pend.Frames += frames
	rt.pend.Bits += wire
	rt.pendDirty = true
}

// emitControlFrame traces one header-only control frame (a link-layer
// ACK or a join-handshake leg) as a matched Ack-cast send/receive
// pair, keeping the event stream's frame and wire accounting aligned
// with the stats counters accountControl maintains.
func (rt *Runtime) emitControlFrame(from, to, wire int) {
	rt.tr.Collect(trace.Event{
		Kind: trace.KindSend, Round: rt.round, Phase: rt.Phase(),
		Node: from, Peer: to, Cast: trace.Ack,
		Wire: wire, Frames: 1,
	})
	rt.tr.Collect(trace.Event{
		Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
		Node: to, Peer: from, Cast: trace.Ack,
		Wire: wire, Frames: 1,
	})
}

// hopWithFaults carries one convergecast payload from u to parent
// under the fault model: the sender pays for every attempt, delivered
// payloads are acknowledged with a header-only ACK frame (ARQ), and a
// hop that exhausts its budget records the loss for dead-parent
// detection and the round's rank-error bound. Reports whether the
// payload arrived.
func (rt *Runtime) hopWithFaults(u, parent int, p Payload) bool {
	f := rt.flt
	if rt.top.IsVirtual(u) {
		// Intra-node hop: free and radio-silent. It dies with a crashed
		// host and keeps the legacy iid loss exposure.
		if f.inj.Down(parent) {
			return false
		}
		if rt.dropHop() {
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostUp++
			if f.reach[u] {
				f.lostSub += rt.subtreeSize(u)
			}
			return false
		}
		return true
	}
	if f.detached[u] {
		// The node knows its parent is gone and holds its traffic until
		// repair: no transmission, no charge.
		return false
	}

	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	values := 0
	if vc, ok := p.(ValueCarrier); ok {
		values = vc.ValueCount()
	}
	down := rt.linkDown(u)
	attempts := 1
	if f.arq.Enabled {
		attempts += f.arq.MaxRetries
	}
	delivered := false
	for a := 0; a < attempts; a++ {
		rt.ledger.ChargeSend(u, wire, rt.uplinkRange(u))
		if a == 0 {
			rt.account(wire, frames, values)
			if rt.tr != nil {
				rt.emitSend(u, parent, trace.Unicast, bits, wire, frames, values)
			}
		} else {
			rt.stats.Retries++
			rt.accountControl(wire, frames)
			if rt.tr != nil {
				rt.tr.Collect(trace.Event{
					Kind: trace.KindRetry, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: parent, Cast: trace.Unicast,
					Bits: bits, Wire: wire, Frames: frames, Aux: a,
				})
			}
		}
		if down {
			// A burst-bad link or dead peer swallows every attempt this
			// round; recovery needs the cross-round timeout.
			continue
		}
		if rt.dropHop() {
			continue
		}
		delivered = true
		break
	}
	if !delivered {
		rt.stats.PayloadsLost++
		rt.stats.PayloadsLostUp++
		f.failedNow[u] = true
		if f.reach[u] {
			f.lostSub += rt.subtreeSize(u)
		}
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
				Node: u, Peer: parent, Cast: trace.Unicast,
				Bits: bits, Wire: wire,
			})
		}
		return false
	}
	rt.ledger.ChargeRecv(parent, wire)
	if rt.tr != nil {
		rt.tr.Collect(trace.Event{
			Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
			Node: parent, Peer: u, Cast: trace.Unicast,
			Bits: bits, Wire: wire,
		})
	}
	if f.arq.Enabled {
		// Link-layer ACK: one header-only frame back to the sender,
		// modeled reliable (acks ride the reverse slot of the TDMA
		// schedule).
		ackWire := rt.sizes.HeaderBits
		rt.ledger.ChargeSend(parent, ackWire, rt.uplinkRange(u))
		rt.ledger.ChargeRecv(u, ackWire)
		rt.stats.AckFrames++
		rt.accountControl(ackWire, 1)
		if rt.tr != nil {
			rt.emitControlFrame(parent, u, ackWire)
		}
	}
	return true
}

// broadcastFaulty is the fault- and loss-aware flood: a node receives
// the broadcast only if its parent both received and retransmitted it
// and the link is up (and, with lossy broadcast enabled, the iid
// sampler spares the hop). Nodes that miss it keep their stale
// node-local state — visit is only called for receivers.
func (rt *Runtime) broadcastFaulty(p Payload, visit func(node int)) {
	f := rt.flt
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	vals := 0
	if vc, ok := p.(ValueCarrier); ok {
		vals = vc.ValueCount()
	}
	rt.account(wire, frames, vals)
	if rt.tr != nil {
		rt.emitSend(-1, -1, trace.Broadcast, bits, wire, frames, vals)
	}
	if rt.bcastGot == nil {
		rt.bcastGot = make([]bool, rt.top.N())
	}
	got := rt.bcastGot
	clear(got)
	po := rt.top.PostOrder
	for i := len(po) - 1; i >= 0; i-- {
		u := po[i]
		parent := rt.top.Parent[u]
		parentGot := parent == -1 || got[parent]
		if rt.top.IsVirtual(u) {
			// Virtual nodes share the host radio: they see exactly what
			// the host saw.
			got[u] = parentGot && (f == nil || !rt.crashedNode(u))
			if got[u] && visit != nil {
				visit(u)
			}
			continue
		}
		if f != nil && f.inj.Down(u) {
			// A crashed radio neither receives nor retransmits; its
			// subtree starves. No traffic, no events.
			continue
		}
		ok := parentGot
		if ok && f != nil && rt.linkDown(u) {
			ok = false
		}
		if ok && rt.lossBcast && rt.dropHop() {
			ok = false
		}
		if !ok {
			if parentGot {
				// The hop was transmitted and lost; an unreachable or
				// starved subtree is absence, not loss.
				rt.stats.PayloadsLost++
				rt.stats.PayloadsLostDown++
				if rt.tr != nil {
					rt.tr.Collect(trace.Event{
						Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
						Node: u, Peer: parent, Cast: trace.Broadcast,
						Bits: bits, Wire: wire,
					})
				}
			}
			continue
		}
		got[u] = true
		rt.ledger.ChargeRecv(u, wire)
		if rt.tr != nil {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
				Node: u, Peer: parent, Cast: trace.Broadcast,
				Bits: bits, Wire: wire,
			})
		}
		if rt.hasRadioChildren(u) {
			rt.ledger.ChargeSend(u, wire, rt.downlinkRange(u))
			rt.account(wire, frames, vals)
			if rt.tr != nil {
				rt.emitSend(u, -1, trace.Broadcast, bits, wire, frames, vals)
			}
		}
		if visit != nil {
			visit(u)
		}
	}
}
