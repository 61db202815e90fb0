// Package sim is the deterministic, round-based simulation engine the
// quantile protocols run on. It provides the two tree communication
// primitives every algorithm in the paper is built from — an
// energy-accounted convergecast (leaves to root) and broadcast (root to
// leaves) — plus per-round readings, traffic statistics, and optional
// per-hop loss injection on convergecast data traffic.
package sim

import (
	"fmt"
	"math/rand"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/mathx"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// Payload is a logical unit handed from one tree node to the next.
// Bits reports its encoded size; the engine adds link-layer framing.
type Payload interface {
	Bits() int
}

// ValueCarrier is optionally implemented by payloads that transport raw
// measurements; the engine uses it for the transmitted-values metric.
type ValueCarrier interface {
	ValueCount() int
}

// Config assembles a simulation run.
type Config struct {
	Topology *wsn.Topology
	Source   data.Source
	Sizes    msg.Sizes
	Energy   energy.Params

	// LossProb drops each convergecast hop's payload with this
	// probability, after the sender has paid for it. Broadcast
	// (control) traffic is assumed reliable (see DESIGN.md §3) unless
	// LossBroadcast is set.
	LossProb float64

	// LossBroadcast subjects broadcast (downstream) hops to the same
	// iid loss sampler: a node that misses the flood does not
	// retransmit it, so its subtree starves too. Off by default — the
	// historical model treats control floods as reliable, and golden
	// traces pin that behavior.
	LossBroadcast bool

	// ChargeByDistance charges transmissions by the actual link length
	// instead of the nominal radio range ρ (the paper's cost function
	// uses ρ; real radios with power control pay per distance — the
	// abl-energy study compares the two). Broadcast transmissions pay
	// for their farthest child.
	ChargeByDistance bool

	// Seed drives loss sampling. Runs with LossProb = 0 are fully
	// deterministic regardless of the seed.
	Seed int64

	// Trace, when non-nil, attaches a flight-recorder collector from
	// the start (see Runtime.SetTrace). A nil collector leaves tracing
	// disabled at the cost of one nil check per potential event.
	Trace trace.Collector
}

// Phase labels classify traffic for the cost-anatomy analysis.
// Algorithms call SetPhase before each protocol stage.
const (
	PhaseInit       = "init"       // initialization round
	PhaseValidation = "validation" // per-round validation convergecast
	PhaseRefinement = "refinement" // refinement requests and responses
	PhaseFilter     = "filter"     // filter/threshold broadcasts
	PhaseCollect    = "collect"    // stateless per-round collection (TAG, summaries)
	PhaseOther      = "other"      // anything unlabeled
)

// PhaseStats aggregates the traffic of one protocol phase.
type PhaseStats struct {
	Payloads int // logical payload transmissions (per hop)
	Frames   int // link-layer frames
	Bits     int // bits on the air, framing included
	Values   int // raw measurements carried
}

// Stats aggregates traffic over the lifetime of a Runtime.
type Stats struct {
	Convergecasts int // convergecast phases executed
	Broadcasts    int // broadcast phases executed
	FramesSent    int // link-layer frames, across all transmissions
	PayloadsSent  int // logical payload transmissions (per hop)
	BitsSent      int // total bits on the air, framing included
	ValuesSent    int // raw measurements carried, per hop
	PayloadsLost  int // payloads lost in flight, both directions

	PayloadsLostUp   int // convergecast (upstream) payloads lost
	PayloadsLostDown int // broadcast (downstream) deliveries lost
	Retries          int // ARQ retransmissions
	AckFrames        int // link-layer ACK frames (ARQ and join handshakes)
	Adapts           int // closed-loop controller actions applied

	// PerPhase attributes the traffic to protocol stages, keyed by the
	// Phase* labels.
	PerPhase map[string]PhaseStats
}

// Runtime is the live simulation state. It is not safe for concurrent
// use; each goroutine should own its Runtime.
type Runtime struct {
	top    *wsn.Topology
	src    data.Source
	sizes  msg.Sizes
	ledger *energy.Ledger
	loss   float64
	byDist bool
	seed   int64
	rng    *rand.Rand // created by the first loss draw (see dropHop)

	round     int
	phase     string
	stats     Stats
	pend      PhaseStats // current label's traffic not yet in stats.PerPhase
	pendDirty bool       // pend holds at least one booking

	readings  []int // current round's measurements, filled by the first Reading
	readOK    bool  // readings is valid for the current round
	oracleBuf []int // Oracle's selection buffer

	// The convergecast payload stack: delivered payloads in post-order,
	// each with its addressee (-1 = root). See Convergecast.
	stack   []Payload
	stackTo []int

	bcastGot []bool // broadcastFaulty's per-node reception flags

	tr        trace.Collector // nil = flight recorder disabled
	po        PhaseObserver   // nil = continuous profiling disabled
	lossBcast bool
	flt       *faultState // nil = fault/recovery layer disabled
}

// PhaseObserver is the continuous-profiling hook (internal/prof): the
// runtime reports every actual phase transition to it, and closes it
// when the run's event stream ends. Observing never influences the
// simulation — it is the profiling analogue of the trace collector.
type PhaseObserver interface {
	// Switch is called when the traffic label actually changes (not on
	// redundant SetPhase calls with the current label).
	Switch(phase string)
	// Close flushes the open span at the end of the run.
	Close()
}

// New validates the configuration and builds a Runtime positioned at
// round 0.
func New(cfg Config) (*Runtime, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: nil source")
	}
	if cfg.Topology.N() != cfg.Source.Nodes() {
		return nil, fmt.Errorf("sim: topology has %d nodes, source has %d", cfg.Topology.N(), cfg.Source.Nodes())
	}
	if err := cfg.Sizes.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("sim: loss probability %v out of [0,1)", cfg.LossProb)
	}
	rt := &Runtime{
		top:       cfg.Topology,
		src:       cfg.Source,
		sizes:     cfg.Sizes,
		ledger:    energy.NewLedger(cfg.Topology.N(), cfg.Energy),
		loss:      cfg.LossProb,
		byDist:    cfg.ChargeByDistance,
		seed:      cfg.Seed,
		lossBcast: cfg.LossBroadcast,
	}
	if cfg.Trace != nil {
		rt.SetTrace(cfg.Trace)
	}
	return rt, nil
}

// SetTrace attaches a flight-recorder collector to the runtime and its
// energy ledger, and opens the current round with a round-start event.
// Passing nil detaches the recorder. Tracing never influences the
// simulation itself: payload routing, loss sampling, and energy charges
// are identical with and without a collector.
func (rt *Runtime) SetTrace(c trace.Collector) {
	rt.tr = c
	if c == nil {
		rt.ledger.SetTrace(nil, nil)
		return
	}
	rt.ledger.SetTrace(c, func() (int, string) { return rt.round, rt.Phase() })
	c.Collect(trace.Event{Kind: trace.KindRoundStart, Round: rt.round, Node: -1})
}

// Trace returns the attached collector (nil when tracing is disabled).
func (rt *Runtime) Trace() trace.Collector { return rt.tr }

// N returns the number of sensor nodes |N|.
func (rt *Runtime) N() int { return rt.top.N() }

// Topology returns the routing tree.
func (rt *Runtime) Topology() *wsn.Topology { return rt.top }

// Sizes returns the link-layer size configuration.
func (rt *Runtime) Sizes() msg.Sizes { return rt.sizes }

// Ledger returns the energy ledger.
func (rt *Runtime) Ledger() *energy.Ledger { return rt.ledger }

// Stats returns a snapshot of the traffic statistics, including the
// traffic booked so far under the current phase label. The PerPhase
// map is shared and keeps changing as the runtime books later phases;
// treat it as read-only, and call Stats again for fresher counts.
func (rt *Runtime) Stats() Stats {
	rt.flushPhase()
	return rt.stats
}

// SetPhase labels all subsequent traffic with a protocol stage (one of
// the Phase* constants, or any caller-chosen string). An actual label
// change books the closing phase's traffic into Stats.PerPhase and,
// with a profiling observer attached, closes the open attribution
// span; redundant calls with the current label cost one compare.
func (rt *Runtime) SetPhase(phase string) {
	if phase == rt.phase {
		return
	}
	rt.flushPhase()
	if rt.po != nil {
		rt.po.Switch(phase)
	}
	rt.phase = phase
}

// SetProf attaches a profiling observer and opens its first span under
// the current phase label. Passing nil detaches it without flushing —
// use EndTrace (or the observer's own Close) to flush.
func (rt *Runtime) SetProf(po PhaseObserver) {
	rt.po = po
	if po != nil {
		po.Switch(rt.Phase())
	}
}

// Phase returns the current traffic label.
func (rt *Runtime) Phase() string {
	if rt.phase == "" {
		return PhaseOther
	}
	return rt.phase
}

// account books one transmission into the global stats and the
// current phase's pending per-phase counts.
func (rt *Runtime) account(wire, frames, values int) {
	rt.stats.FramesSent += frames
	rt.stats.PayloadsSent++
	rt.stats.BitsSent += wire
	rt.stats.ValuesSent += values
	rt.pend.Payloads++
	rt.pend.Frames += frames
	rt.pend.Bits += wire
	rt.pend.Values += values
	rt.pendDirty = true
}

// flushPhase adds the pending per-phase counts into Stats.PerPhase under
// the current label. The map is thus written once per phase rather than
// once per frame; SetPhase and Stats call it.
func (rt *Runtime) flushPhase() {
	if !rt.pendDirty {
		return
	}
	if rt.stats.PerPhase == nil {
		rt.stats.PerPhase = make(map[string]PhaseStats)
	}
	label := rt.Phase()
	ps := rt.stats.PerPhase[label]
	ps.Payloads += rt.pend.Payloads
	ps.Frames += rt.pend.Frames
	ps.Bits += rt.pend.Bits
	ps.Values += rt.pend.Values
	rt.stats.PerPhase[label] = ps
	rt.pend, rt.pendDirty = PhaseStats{}, false
}

// dropHop draws the iid loss sampler for one hop and reports whether
// the hop is lost. The sampler's generator is seeded on the first draw,
// so lossless runtimes never build one; the draw sequence is the same
// as with an eagerly seeded generator.
func (rt *Runtime) dropHop() bool { return rt.loss > 0 && rt.lossDraw() }

// lossDraw is dropHop's draw, kept out of line so the lossless check
// inlines.
func (rt *Runtime) lossDraw() bool {
	if rt.rng == nil {
		rt.rng = rand.New(rand.NewSource(rt.seed))
	}
	return rt.rng.Float64() < rt.loss
}

// Round returns the current round number, starting at 0.
func (rt *Runtime) Round() int { return rt.round }

// LossProb returns the current per-hop convergecast loss probability.
func (rt *Runtime) LossProb() float64 { return rt.loss }

// BroadcastLossy reports whether broadcast hops go through the loss
// sampler too (Config.LossBroadcast).
func (rt *Runtime) BroadcastLossy() bool { return rt.lossBcast }

// SetLossProb adjusts the loss probability mid-run. Protocol
// initialization is typically modeled as reliable (acknowledged)
// transfer, so harnesses disable loss around Init.
func (rt *Runtime) SetLossProb(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("sim: loss probability %v out of [0,1)", p)
	}
	rt.loss = p
	return nil
}

// AdvanceRound moves to the next round; subsequent Reading calls see
// the new measurements.
func (rt *Runtime) AdvanceRound() {
	if rt.flt != nil {
		rt.endRoundFaults()
	}
	if rt.tr != nil {
		rt.tr.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: rt.round, Node: -1})
	}
	rt.round++
	rt.readOK = false
	if rt.tr != nil {
		rt.tr.Collect(trace.Event{Kind: trace.KindRoundStart, Round: rt.round, Node: -1})
	}
	if rt.flt != nil {
		rt.startRoundFaults()
	}
}

// EndTrace marks the end of the event stream: it emits the final
// round's RoundEnd event, which AdvanceRound otherwise only emits once
// the next round begins. Run drivers call it once after the last
// round, so per-round collectors (series ingestion, the invariant
// oracle) see the closing round too. A no-op without a collector.
func (rt *Runtime) EndTrace() {
	if rt.po != nil {
		rt.po.Close()
		rt.po = nil
	}
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{Kind: trace.KindRoundEnd, Round: rt.round, Node: -1})
}

// TraceDecision records the root's reported quantile for the current
// round in the flight recorder: the answer q for the queried rank k,
// stamped with the decision's absolute rank error against the oracle
// data (an O(N) scan, paid only when a collector is attached).
// Drivers (the experiment harness, Simulation.Step, test harnesses)
// call it once per round; the invariant oracle replays these events
// against a centralized sort oracle. A no-op without a collector.
func (rt *Runtime) TraceDecision(k, q int) {
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindDecision, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: q, Aux: k, Err: rt.RankErrorOf(k, q),
	})
	if f := rt.flt; f != nil && f.missing+f.lostSub > 0 {
		rt.tr.Collect(trace.Event{
			Kind: trace.KindDegraded, Round: rt.round, Phase: rt.Phase(),
			Node: -1, Value: f.missing, Values: f.orphans,
			Aux: rt.Staleness(), Err: f.missing + f.lostSub,
		})
	}
}

// TraceAdapt records one applied closed-loop controller action: the
// action code (internal/adapt vocabulary) in Aux and its integer
// argument in Value. It increments Stats.Adapts unconditionally — the
// per-round series column and the "adapts" alert metric are derived
// from the counter, so controller activity stays visible on untraced
// runs — and emits the KindAdapt event only when a collector is
// attached.
func (rt *Runtime) TraceAdapt(action, arg int) {
	rt.stats.Adapts++
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindAdapt, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: arg, Aux: action,
	})
}

// RankErrorOf returns the distance between k and the closest rank the
// reported value occupies in the true (oracle) data; 0 means exact.
func (rt *Runtime) RankErrorOf(k, reported int) int {
	below, equal := 0, 0
	for _, v := range rt.currentReadings() {
		if v < reported {
			below++
		} else if v == reported {
			equal++
		}
	}
	// With equal == 0 the reported value does not exist in the data; it
	// would sit between ranks below and below+1, so the distance to k
	// is at least 1.
	loRank, hiRank := below+1, below+equal
	switch {
	case k < loRank:
		return loRank - k
	case k > hiRank:
		return k - hiRank
	default:
		return 0
	}
}

// TraceRefine records a root-issued refinement/collection request over
// the closed value interval [lo, hi] asking for up to f values per
// direction (f < 0: unbounded). A no-op without a collector.
func (rt *Runtime) TraceRefine(lo, hi, f int) {
	if rt.tr == nil {
		return
	}
	rt.tr.Collect(trace.Event{
		Kind: trace.KindRefine, Round: rt.round, Phase: rt.Phase(),
		Node: -1, Value: lo, Aux: hi, Values: f,
	})
}

// Reading returns node's measurement for the current round. The first
// call of a round reads every node's measurement from the source into
// a runtime-owned cache; later calls in the same round are a slice
// index. AdvanceRound invalidates the cache.
func (rt *Runtime) Reading(node int) int { return rt.currentReadings()[node] }

// currentReadings returns the cached measurements of the current round.
// The slice is runtime-owned: callers must not modify or keep it.
func (rt *Runtime) currentReadings() []int {
	if !rt.readOK {
		rt.fillReadings()
	}
	return rt.readings
}

// fillReadings reads the current round's measurements from the source.
func (rt *Runtime) fillReadings() {
	if rt.readings == nil {
		rt.readings = make([]int, rt.N())
	}
	for i := range rt.readings {
		rt.readings[i] = rt.src.Value(i, rt.round)
	}
	rt.readOK = true
}

// ReadingAt returns node's measurement at an explicit round. It reads
// the source directly and never touches the current round's cache.
func (rt *Runtime) ReadingAt(node, round int) int { return rt.src.Value(node, round) }

// Universe returns the closed integer range of possible measurements.
func (rt *Runtime) Universe() (lo, hi int) { return rt.src.Universe() }

// Oracle returns the exact rank-k value (1-based) over the current
// round's measurements, computed centrally with no energy cost. It is
// the ground truth the protocols are verified against.
func (rt *Runtime) Oracle(k int) int {
	rt.oracleBuf = append(rt.oracleBuf[:0], rt.currentReadings()...)
	return mathx.KthSmallestInPlace(rt.oracleBuf, k)
}

// charge accounts one hop: sender pays framing-inclusive transmission,
// receiver pays reception. A negative receiver is the root (free).
// Intra-node hops from virtual (artificial-child) senders never touch
// the radio and are free.
func (rt *Runtime) charge(sender, receiver int, p Payload) {
	if rt.top.IsVirtual(sender) {
		return
	}
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	rt.ledger.ChargeSend(sender, wire, rt.uplinkRange(sender))
	rt.ledger.ChargeRecv(receiver, wire)
	values := 0
	if vc, ok := p.(ValueCarrier); ok {
		values = vc.ValueCount()
	}
	rt.account(wire, frames, values)
	if rt.tr != nil {
		rt.emitSend(sender, receiver, trace.Unicast, bits, wire, frames, values)
	}
}

// emitSend records one transmission (and, for multi-frame payloads, its
// fragmentation) in the flight recorder. Callers check rt.tr != nil.
func (rt *Runtime) emitSend(sender, receiver int, cast trace.Cast, bits, wire, frames, values int) {
	rt.tr.Collect(trace.Event{
		Kind: trace.KindSend, Round: rt.round, Phase: rt.Phase(),
		Node: sender, Peer: receiver, Cast: cast,
		Bits: bits, Wire: wire, Frames: frames, Values: values,
	})
	if frames > 1 {
		rt.tr.Collect(trace.Event{
			Kind: trace.KindFragment, Round: rt.round, Phase: rt.Phase(),
			Node: sender, Peer: receiver, Cast: cast,
			Bits: bits, Wire: wire, Frames: frames,
		})
	}
}

// Convergecast runs one bottom-up phase. merge is invoked for every
// sensor in post-order with the payloads that actually arrived from its
// children, in the order the children transmitted; a nil return means
// the node stays silent (no transmission, no energy). The payloads that
// reach the root are returned.
//
// Memory contract: children is a view of the runtime's payload stack
// and is valid only during the merge call. merge may return one of its
// children's payloads (recycling it as the node's accumulator) but must
// not keep the slice. The returned slice is runtime-owned and valid
// until the next Convergecast; a caller that has consumed it should
// clear it, so the runtime does not pin the root payloads until then.
//
// The stack works because PostOrder is a depth-first post-order and the
// tree only changes between rounds: when node u is merged, the payloads
// its children delivered are exactly the top stack entries addressed
// to u. Whatever remains at the end is addressed to the root.
func (rt *Runtime) Convergecast(merge func(node int, children []Payload) Payload) []Payload {
	rt.stats.Convergecasts++
	stack, to := rt.stack[:0], rt.stackTo[:0]
	for _, u := range rt.top.PostOrder {
		top := len(stack)
		for top > 0 && to[top-1] == u {
			top--
		}
		var p Payload
		// A crashed sensor neither merges nor transmits; whatever its
		// subtree delivered dies with it.
		if rt.flt == nil || !rt.crashedNode(u) {
			var children []Payload
			if top < len(stack) {
				children = stack[top:]
			}
			p = merge(u, children)
		}
		clear(stack[top:])
		stack, to = stack[:top], to[:top]
		if p == nil {
			continue
		}
		parent := rt.top.Parent[u]
		if rt.flt != nil {
			// Fault-aware delivery: per-attempt charging, ARQ, and
			// dead-link bookkeeping live in hopWithFaults.
			if rt.hopWithFaults(u, parent, p) {
				stack, to = append(stack, p), append(to, parent)
			}
			continue
		}
		rt.charge(u, parent, p)
		// Intra-node hops from virtual senders never touch the radio, so
		// they leave no send/receive/drop events.
		radio := rt.tr != nil && !rt.top.IsVirtual(u)
		if rt.dropHop() {
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostUp++
			if radio {
				rt.tr.Collect(trace.Event{
					Kind: trace.KindDrop, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: parent, Cast: trace.Unicast,
					Bits: p.Bits(), Wire: rt.sizes.WireBits(p.Bits()),
				})
			}
			continue
		}
		if radio {
			rt.tr.Collect(trace.Event{
				Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
				Node: parent, Peer: u, Cast: trace.Unicast,
				Bits: p.Bits(), Wire: rt.sizes.WireBits(p.Bits()),
			})
		}
		stack, to = append(stack, p), append(to, parent)
	}
	rt.stack, rt.stackTo = stack, to
	return stack
}

// Broadcast floods p from the root to every sensor: the root transmits
// once (free), every sensor receives it from its parent, and every
// sensor with children retransmits it once. visit, if non-nil, is
// called for each sensor in top-down order so node-local state can be
// updated. Broadcasts are reliable unless faults are attached or
// Config.LossBroadcast subjects the flood to the loss sampler; then a
// node that misses the flood starves its subtree and visit only runs
// for the sensors actually reached.
func (rt *Runtime) Broadcast(p Payload, visit func(node int)) {
	rt.stats.Broadcasts++
	if rt.flt != nil || rt.lossBcast {
		rt.broadcastFaulty(p, visit)
		return
	}
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	vals := 0
	if vc, ok := p.(ValueCarrier); ok {
		vals = vc.ValueCount()
	}
	// Root transmission (free) reaching its children.
	rt.account(wire, frames, vals)
	if rt.tr != nil {
		rt.emitSend(-1, -1, trace.Broadcast, bits, wire, frames, vals)
	}
	// Top-down order is the reverse of post-order. Virtual nodes share
	// their host's radio: they neither pay a reception nor retransmit.
	for i := len(rt.top.PostOrder) - 1; i >= 0; i-- {
		u := rt.top.PostOrder[i]
		if !rt.top.IsVirtual(u) {
			rt.ledger.ChargeRecv(u, wire)
			if rt.tr != nil {
				rt.tr.Collect(trace.Event{
					Kind: trace.KindReceive, Round: rt.round, Phase: rt.Phase(),
					Node: u, Peer: rt.top.Parent[u], Cast: trace.Broadcast,
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
		}
		if visit != nil {
			visit(u)
		}
	}
}

// uplinkRange returns the transmission range a convergecast hop from u
// is charged for: the nominal radio range, or the actual link length
// under distance-based charging.
func (rt *Runtime) uplinkRange(u int) float64 {
	if !rt.byDist {
		return rt.top.Range
	}
	p := rt.top.Parent[u]
	if p == -1 {
		return rt.top.Pos[u].Dist(rt.top.Root)
	}
	return rt.top.Pos[u].Dist(rt.top.Pos[p])
}

// downlinkRange returns the transmission range a broadcast hop from u
// is charged for: the nominal range, or (with distance-based charging)
// the distance to u's farthest non-virtual child, which the single
// wireless transmission must reach.
func (rt *Runtime) downlinkRange(u int) float64 {
	if !rt.byDist {
		return rt.top.Range
	}
	maxD := 0.0
	for _, c := range rt.top.Children[u] {
		if rt.top.IsVirtual(c) {
			continue
		}
		if d := rt.top.Pos[u].Dist(rt.top.Pos[c]); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// hasRadioChildren reports whether node u must retransmit a broadcast,
// i.e. has at least one non-virtual child.
func (rt *Runtime) hasRadioChildren(u int) bool {
	for _, c := range rt.top.Children[u] {
		if !rt.top.IsVirtual(c) {
			return true
		}
	}
	return false
}
