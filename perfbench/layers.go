package main

// This file holds the traced run's calls into the internal packages:
// deployment builds, layer runs of the engine with a counting collector
// and a phase recorder attached, and isolated calls into sim, energy
// and protocol. Only the traced run uses it, so a signature change in
// those packages can break these calls but never the end-to-end
// measurement, which uses the exported wsnq API alone.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"wsnq"
	"wsnq/internal/costmodel"
	"wsnq/internal/energy"
	"wsnq/internal/experiment"
	"wsnq/internal/msg"
	"wsnq/internal/prof"
	"wsnq/internal/protocol"
	"wsnq/internal/scenario"
	"wsnq/internal/sim"
	"wsnq/internal/telemetry"
	"wsnq/internal/trace"
)

// layerCounts are one algorithm's counters over a layer run: the
// engine's own round bookkeeping, the events a counting collector saw,
// and the phases the phase recorder booked.
type layerCounts struct {
	rounds, reinits, repairs, degraded int // from the engine's Metrics, summed over runs

	refineRounds int // rounds with refinement-phase traffic
	refines      int // entries into the refinement phase

	debits, payloads, broadcasts, acks, retries, drops int
	frames, bits                                       int

	allocs   uint64             // heap objects allocated inside the algorithm's phases
	phaseSec map[string]float64 // seconds spent in each phase
}

func (c *layerCounts) add(o *layerCounts) {
	if c.phaseSec == nil {
		c.phaseSec = make(map[string]float64)
	}
	for ph, sec := range o.phaseSec {
		c.phaseSec[ph] += sec
	}
	c.allocs += o.allocs
	c.rounds += o.rounds
	c.reinits += o.reinits
	c.repairs += o.repairs
	c.degraded += o.degraded
	c.refineRounds += o.refineRounds
	c.refines += o.refines
	c.debits += o.debits
	c.payloads += o.payloads
	c.broadcasts += o.broadcasts
	c.acks += o.acks
	c.retries += o.retries
	c.drops += o.drops
	c.frames += o.frames
	c.bits += o.bits
}

// eventCounter counts one grid job's flight-recorder events.
type eventCounter struct {
	c           *layerCounts
	refineRound int // last round that carried refinement traffic
}

func (k *eventCounter) Collect(e trace.Event) {
	c := k.c
	switch e.Kind {
	case trace.KindEnergy:
		c.debits++
	case trace.KindSend:
		c.frames += e.Frames
		c.bits += e.Wire
		switch {
		case e.Cast == trace.Ack:
			c.acks++
		case e.Cast == trace.Broadcast && e.Node == -1:
			c.broadcasts++ // the root's transmission opens every broadcast
			c.payloads++
		default:
			c.payloads++
		}
	case trace.KindRetry:
		c.retries++
		c.frames += e.Frames
		c.bits += e.Wire
	case trace.KindDrop:
		c.drops++
	}
	if e.Phase == sim.PhaseRefinement && e.Round != k.refineRound {
		k.refineRound = e.Round
		c.refineRounds++
	}
}

// layerRun runs algs on cfg through the engine's grid — the job path
// the timed runs take, with opts' faults, ARQ and adaptation — and
// attaches a counting collector to every job, a phase recorder to the
// grid and tel, which times the jobs. It checks that the frames and
// bits the collector counted add up to the engine's own figures, so the
// collector saw the whole run, and returns each algorithm's counters
// and engine metrics.
func layerRun(ctx context.Context, rep *report, tel *telemetry.Registry, cfg experiment.Config, algs []string, opts experiment.Options) (map[string]*layerCounts, map[string]experiment.Metrics, error) {
	named := make([]experiment.NamedFactory, len(algs))
	counts := make(map[string]*layerCounts, len(algs))
	for i, a := range algs {
		f, err := experiment.ResolveAlgorithm(a)
		if err != nil {
			return nil, nil, err
		}
		named[i] = experiment.NamedFactory{Name: a, New: f}
		counts[a] = &layerCounts{phaseSec: make(map[string]float64)}
	}
	rec := prof.NewRecorder()
	opts.Parallelism = 1
	opts.Prof = rec
	opts.Telemetry = tel
	opts.Trace = func(j experiment.TraceJob) trace.Collector {
		return &eventCounter{c: counts[j.AlgorithmName], refineRound: -1}
	}
	ms, err := experiment.CompareContext(ctx, cfg, named, opts)
	if err != nil {
		return nil, nil, err
	}
	metrics := make(map[string]experiment.Metrics, len(algs))
	for i, a := range algs {
		c, m := counts[a], ms[i]
		metrics[a] = m
		c.rounds, c.reinits, c.repairs, c.degraded = m.Rounds, m.Reinits, m.Repairs, m.DegradedRounds
		r := float64(m.Rounds)
		rep.check(near(float64(c.frames), m.FramesPerRound*r) && near(float64(c.bits), m.BitsPerRound*r),
			"layer run %s: collector counted %d frames and %d bits, the engine %.0f and %.0f", a, c.frames, c.bits, m.FramesPerRound*r, m.BitsPerRound*r)
	}
	for _, s := range rec.Report().Stats {
		c := counts[s.Scope]
		if c == nil {
			continue
		}
		c.allocs += s.AllocObjects
		if s.Phase == sim.PhaseRefinement {
			c.refines += int(s.Switches)
		}
		if s.Phase != "other" {
			// "other" is the sliver between labelled phases, which no
			// optimisation targets.
			c.phaseSec[s.Phase] += s.CPUSeconds
		}
	}
	return counts, metrics, nil
}

// setEngineMetrics reports the layer runs' jobs and their median wall
// time from the engine's own job histogram.
func setEngineMetrics(tr *traced, tel *telemetry.Registry) {
	jobs := tel.Snapshot().Histograms["engine.job_seconds"]
	tr.set("experiment.jobs", float64(jobs.Count))
	tr.set("experiment.job_ms_p50", jobs.P50*1000)
	tr.notes = append(tr.notes, "experiment.job_ms_p50 and phase.* come from the layer runs, which run sequentially with a counting collector and a phase recorder attached")
}

// near reports whether two counts agree up to floating-point rounding
// of the engine's per-round averages.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// sameRun reports whether a layer run's metrics are those of the timed
// run: the engine is deterministic, so equal inputs give bit-identical
// figures.
func sameRun(timed wsnq.Metrics, layer experiment.Metrics) bool {
	return timed.FramesPerRound == layer.FramesPerRound && timed.BitsPerRound == layer.BitsPerRound &&
		timed.MaxNodeEnergyPerRound == layer.MaxNodeEnergyPerRound &&
		timed.ExactRounds == layer.ExactRounds && timed.Rounds == layer.Rounds &&
		timed.Reinits == layer.Reinits && timed.DegradedRounds == layer.DegradedRounds &&
		timed.Repairs == layer.Repairs && timed.Adapts == layer.Adapts
}

// sumCounts adds up the counters of every algorithm in counts.
func sumCounts(counts map[string]*layerCounts) *layerCounts {
	all := &layerCounts{}
	for _, c := range counts {
		all.add(c)
	}
	return all
}

// setSimCounts reports the invariant traffic counts per round.
func setSimCounts(tr *traced, all *layerCounts) {
	r := float64(all.rounds)
	tr.set("sim.frames_per_round", float64(all.frames)/r)
	tr.set("sim.payloads_per_round", float64(all.payloads)/r)
	tr.set("sim.bits_per_round", float64(all.bits)/r)
	tr.set("sim.broadcasts_per_round", float64(all.broadcasts)/r)
	tr.set("energy.debits_per_round", float64(all.debits)/r)
}

// setFaultCounts reports the fault layer's counters.
func setFaultCounts(tr *traced, all *layerCounts) {
	r := float64(all.rounds)
	tr.set("fault.retries_per_round", float64(all.retries)/r)
	tr.set("fault.ack_frames_per_round", float64(all.acks)/r)
	tr.set("fault.reinits", float64(all.reinits))
	tr.set("fault.repairs", float64(all.repairs))
	tr.set("fault.degraded_rounds", float64(all.degraded))
	tr.set("fault.delivery_frac", 1-float64(all.drops)/float64(all.payloads))
}

// setProtocolCounts reports refinement phases per round from refine
// and the share of rounds answered without refinement from validate,
// over all their algorithms and, on standard error, per algorithm.
func setProtocolCounts(tr *traced, refine, validate map[string]*layerCounts) {
	all := sumCounts(refine)
	tr.set("protocol.refines_per_round", float64(all.refines)/float64(all.rounds))
	for alg, c := range refine {
		tr.extra("protocol."+alg+".refines_per_round", float64(c.refines)/float64(c.rounds), "count/round")
	}
	validating := make(map[string]*layerCounts)
	for alg, c := range validate {
		if alg == "TAG" {
			continue // TAG collects every round; it has no validation phase
		}
		validating[alg] = c
		tr.extra("protocol."+alg+".validation_hit_frac", 1-float64(c.refineRounds)/float64(c.rounds), "frac")
	}
	all = sumCounts(validating)
	tr.set("protocol.validation_hit_frac", 1-float64(all.refineRounds)/float64(all.rounds))
}

// setPhaseCounts reports the time per round of each phase in
// aggregatePhases and the allocations per round, summed over every
// algorithm of counts, and the split by algorithm on standard error.
// A phase none of the algorithms ran is left unset, which mainErr
// refuses.
func setPhaseCounts(tr *traced, counts map[string]*layerCounts) {
	all := sumCounts(counts)
	r := float64(all.rounds)
	for _, ph := range aggregatePhases {
		if sec, ok := all.phaseSec[ph]; ok {
			tr.set("phase."+ph+"_us_per_round", sec*1e6/r)
		}
	}
	tr.set("protocol.allocs_per_round", float64(all.allocs)/r)
	for alg, c := range counts {
		for ph, sec := range c.phaseSec {
			tr.extra("phase."+alg+"."+ph+"_us_per_round", sec*1e6/float64(c.rounds), "us/round")
		}
		tr.extra("alg."+alg+".allocs_per_round", float64(c.allocs)/float64(c.rounds), "count/round")
	}
}

// buildDeployments times the deployments of cfgs × runs.
func buildDeployments(t *tracer, tr *traced, cfgs []experiment.Config, runs int) error {
	t0 := time.Now()
	for ci, cfg := range cfgs {
		for r := 0; r < runs; r++ {
			if err := t.do("deploy.BuildDeployment", ci, func() error {
				_, err := experiment.BuildDeployment(cfg, r)
				return err
			}); err != nil {
				return err
			}
		}
	}
	tr.set("deploy.build_ms", ms(time.Since(t0)))
	return nil
}

// unit is the trivial payload of the isolated sim calls.
type unit struct{}

func (unit) Bits() int { return 16 }

var unitPayload sim.Payload = unit{}

// simCalls times isolated Convergecast and Broadcast calls on the
// tree of run 0 of cfg, with a payload that costs nothing to merge.
func simCalls(t *tracer, tr *traced, cfg experiment.Config) error {
	rt, err := experiment.BuildRuntime(cfg, 0)
	if err != nil {
		return err
	}
	merge := func(int, []sim.Payload) sim.Payload { return unitPayload }
	const calls = 400
	var us, allocs []float64
	err = t.do("sim.Convergecast", 0, func() error {
		a0, t0 := readAllocs(), time.Now()
		defer func() { tr.callNote("sim.Runtime.Convergecast", calls, time.Since(t0), readAllocs()-a0) }()
		for i := 0; i < calls; i++ {
			rt0 := readAllocs()
			t0 := time.Now()
			rt.Convergecast(merge)
			us = append(us, float64(time.Since(t0))/1e3)
			allocs = append(allocs, float64(readAllocs()-rt0))
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.set("sim.convergecast_us", median(us))
	tr.set("sim.convergecast_allocs", median(allocs))
	us = us[:0]
	err = t.do("sim.Broadcast", 0, func() error {
		a0, t0 := readAllocs(), time.Now()
		defer func() { tr.callNote("sim.Runtime.Broadcast", calls, time.Since(t0), readAllocs()-a0) }()
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			rt.Broadcast(unitPayload, nil)
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.set("sim.broadcast_us", median(us))
	return nil
}

// energyCalls times ChargeSend/ChargeRecv pairs on a ledger of n nodes.
func energyCalls(t *tracer, tr *traced, n int) {
	l := energy.NewLedger(n, energy.DefaultParams())
	const pairs = 1 << 20
	t.begin("energy.Ledger.Charge", 0)
	a0, t0 := readAllocs(), time.Now()
	for i := 0; i < pairs; i++ {
		l.ChargeSend(i%n, 1024, 35)
		l.ChargeRecv((i+1)%n, 1024)
	}
	d := time.Since(t0)
	tr.callNote("energy.Ledger.ChargeSend/ChargeRecv", 2*pairs, d, readAllocs()-a0)
	t.end()
	tr.set("energy.charge_ns", float64(d)/(2*pairs))
}

// histCalls times the histogram codec on a histogram with the cost
// model's optimal bucket count for period tau, holding n measurements
// drawn from seed.
func histCalls(t *tracer, tr *traced, tau, n int, seed int64) error {
	b, err := costmodel.FromSizes(msg.DefaultSizes()).BucketCount(tau)
	if err != nil {
		return err
	}
	counts := make([]int, b)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Two uniform draws make a triangular spread: most counts in
		// the middle buckets, a few near the edges, as around a median.
		counts[(rng.Intn(b)+rng.Intn(b))/2]++
	}
	const calls = 1 << 14
	var data []byte
	var enc, dec time.Duration
	err = t.do("protocol.EncodeHistogram", 0, func() error {
		a0, t0 := readAllocs(), time.Now()
		for i := 0; i < calls; i++ {
			if data, err = protocol.EncodeHistogram(counts); err != nil {
				return err
			}
		}
		enc = time.Since(t0)
		tr.callNote(fmt.Sprintf("protocol.EncodeHistogram (%d buckets)", b), calls, enc, readAllocs()-a0)
		return nil
	})
	if err != nil {
		return err
	}
	err = t.do("protocol.DecodeHistogram", 0, func() error {
		a0, t0 := readAllocs(), time.Now()
		for i := 0; i < calls; i++ {
			got, err := protocol.DecodeHistogram(data, b)
			if err != nil {
				return err
			}
			if i == 0 && fmt.Sprint(got) != fmt.Sprint(counts) {
				return fmt.Errorf("histogram codec round trip: got %v, want %v", got, counts)
			}
		}
		dec = time.Since(t0)
		tr.callNote("protocol.DecodeHistogram", calls, dec, readAllocs()-a0)
		return nil
	})
	if err != nil {
		return err
	}
	tr.set("protocol.hist_encode_ns", float64(enc)/calls)
	tr.set("protocol.hist_decode_ns", float64(dec)/calls)
	return nil
}

// fig7Taus are Figure 7's period cells; the τ=8 cell drives refinement
// storms and the τ=250 cell the validation phase.
var fig7Taus = []int{250, 125, 63, 32, 8}

// layerFig7 runs the layer calls on the sweep's configuration —
// FigureOptions{Scale: 0.1} on the paper's default cell — one engine
// layer run per τ cell, each checked against the timed pass's table.
func layerFig7(ctx context.Context, rep *report, tr *traced, seed int64, tables []*wsnq.Table) error {
	t := tr.t
	base := experiment.Default()
	base.Runs, base.Rounds = 2, 40
	if seed != 0 {
		base.Seed = seed
	}
	cfgs := make([]experiment.Config, len(fig7Taus))
	for i, tau := range fig7Taus {
		cfgs[i] = base
		cfgs[i].Dataset.Synthetic.Period = tau
	}
	if err := buildDeployments(t, tr, cfgs, base.Runs); err != nil {
		return err
	}
	tel := telemetry.NewRegistry()
	all := make(map[string]*layerCounts)
	var refine, validate map[string]*layerCounts
	for i, cfg := range cfgs {
		tau := strconv.Itoa(fig7Taus[i])
		var counts map[string]*layerCounts
		err := t.do("layer.engine.tau="+tau, i, func() error {
			var ms map[string]experiment.Metrics
			var err error
			if counts, ms, err = layerRun(ctx, rep, tel, cfg, standardAlgorithms, experiment.Options{}); err != nil {
				return err
			}
			for alg, m := range ms {
				cell, ok := fig7Cell(tables, tau, alg)
				rep.check(ok && sameRun(cell, m), "fig7 layer run τ=%s %s differs from the timed pass", tau, alg)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for alg, c := range counts {
			if all[alg] == nil {
				all[alg] = &layerCounts{}
			}
			all[alg].add(c)
		}
		switch fig7Taus[i] {
		case 8:
			refine = counts
		case 250:
			validate = counts
		}
	}
	setEngineMetrics(tr, tel)
	setSimCounts(tr, sumCounts(all))
	setFaultCounts(tr, sumCounts(all))
	setPhaseCounts(tr, all)
	setProtocolCounts(tr, refine, validate)
	return isolatedCalls(t, tr, cfgs[2], seed)
}

// fig7Cell finds one (τ, algorithm) cell of the sweep's tables.
func fig7Cell(tables []*wsnq.Table, tau, alg string) (wsnq.Metrics, bool) {
	for _, t := range tables {
		if m, ok := t.Cell(tau, alg); ok {
			return m, true
		}
	}
	return wsnq.Metrics{}, false
}

var standardAlgorithms = []string{"TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ"}

// isolatedCalls times the sim, energy and protocol calls on cfg's tree.
func isolatedCalls(t *tracer, tr *traced, cfg experiment.Config, seed int64) error {
	if err := simCalls(t, tr, cfg); err != nil {
		return err
	}
	energyCalls(t, tr, cfg.Nodes)
	tau := cfg.Dataset.Synthetic.Period
	if tau == 0 {
		tau = 63
	}
	return histCalls(t, tr, tau, cfg.Measurements(), seed)
}

// serveLayerConfig is the served synthetic fleet as an engine config,
// the fleet that hosts most queries.
func serveLayerConfig(seed int64) experiment.Config {
	cfg := experiment.Default()
	cfg.Nodes, cfg.Area, cfg.Seed, cfg.Runs, cfg.Rounds = serveSynthNodes, serveSynthArea, seed, 1, serveTracedTicks
	return cfg
}

// layerServe runs the layer calls on the served synthetic fleet. The
// server steps its queries outside the engine's grid, so the counts
// come from an engine run of the same fleet and algorithms.
func layerServe(ctx context.Context, rep *report, tr *traced, seed int64) error {
	t := tr.t
	cfg := serveLayerConfig(seed)
	algs := make([]string, len(serveAlgorithms))
	for i, a := range serveAlgorithms {
		algs[i] = string(a)
	}
	tel := telemetry.NewRegistry()
	var counts map[string]*layerCounts
	err := t.do("layer.engine", 0, func() error {
		var err error
		counts, _, err = layerRun(ctx, rep, tel, cfg, algs, experiment.Options{})
		return err
	})
	if err != nil {
		return err
	}
	setEngineMetrics(tr, tel)
	setSimCounts(tr, sumCounts(counts))
	setFaultCounts(tr, sumCounts(counts))
	setPhaseCounts(tr, counts)
	setProtocolCounts(tr, counts, counts)
	tr.notes = append(tr.notes, "experiment.*, sim.*, fault.*, energy.debits_per_round, phase.* and protocol.* come from an engine run of the synthetic fleet's algorithms: the server steps queries outside the engine's grid")
	return isolatedCalls(t, tr, cfg, seed)
}

// layerReplay runs the layer calls on the lossy scenario: an engine
// layer run with the scenario's faults, ARQ and adaptation policies,
// checked against the recorded run's metrics, so its counts are the
// recorded run's.
func layerReplay(ctx context.Context, rep *report, tr *traced, text string, seed int64, recorded map[string]wsnq.Metrics) error {
	t := tr.t
	sc, err := scenario.Parse(text)
	if err != nil {
		return err
	}
	cfg, err := sc.Config()
	if err != nil {
		return err
	}
	if err := buildDeployments(t, tr, []experiment.Config{cfg}, cfg.Runs); err != nil {
		return err
	}
	opts := experiment.Options{Faults: sc.Faults, ARQ: sc.ARQ}
	if len(sc.Adapt) > 0 {
		opts.Adapt = &experiment.AdaptOptions{Policies: sc.Adapt}
	}
	tel := telemetry.NewRegistry()
	var counts map[string]*layerCounts
	err = t.do("layer.engine", 0, func() error {
		var ms map[string]experiment.Metrics
		var err error
		if counts, ms, err = layerRun(ctx, rep, tel, cfg, sc.Algorithms, opts); err != nil {
			return err
		}
		for alg, m := range ms {
			r, ok := recorded[alg]
			rep.check(ok && sameRun(r, m), "lossy layer run %s differs from the recorded run", alg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	setEngineMetrics(tr, tel)
	all := sumCounts(counts)
	setSimCounts(tr, all)
	setFaultCounts(tr, all)
	setPhaseCounts(tr, counts)
	setProtocolCounts(tr, counts, counts)
	return isolatedCalls(t, tr, cfg, seed)
}
