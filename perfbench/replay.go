package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"wsnq"
)

// The lossy scenario is modelled on testdata/scenarios/selfheal.scn and
// lossy-storm.scn: iid loss, one relay crash window, ARQ, the alert
// presets, an SLO and two adaptation policies, so recording exercises
// loss, faults, ARQ, re-initialization and the whole tap chain, and
// replay runs the taps with no simulation at all.
const (
	replayNodes     = 150
	replayArea      = 110 // keeps the default cell's node density
	replayValues    = 4
	replayRounds    = 120
	replayRuns      = 2
	replayPerRecord = 5 // timed replays after each timed record
	replaySetups    = 11
	// The crash window is the same for every seed, so seeds differ in
	// deployment, relay and loss pattern but not in how long the
	// network runs degraded.
	replayCrashFrom = 40
	replayCrashTo   = 60
)

var replayAlgorithms = []string{"IQ", "HBC", "ADAPT"}

// lossyScenario generates the scenario of a seed: the seed places the
// nodes and drives the loss. The crashed node is the relay that spends
// the most energy in a lossless TAG round on the same deployment, so
// the crash orphans a large subtree.
func lossyScenario(seed int64) (*wsnq.Scenario, error) {
	head := fmt.Sprintf("scenario lossy-record-replay\nnodes %d\narea %d\nrange 35\nseed %d\n", replayNodes, replayArea, seed)
	probe, err := wsnq.ParseScenario(head + "algorithms TAG\n")
	if err != nil {
		return nil, err
	}
	sim, err := wsnq.NewScenarioSimulation(probe, wsnq.TAG)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Step(); err != nil {
		return nil, fmt.Errorf("relay probe: %w", err)
	}
	relay := 0
	for n := 1; n < sim.N(); n++ {
		if sim.NodeEnergy(n) > sim.NodeEnergy(relay) {
			relay = n
		}
	}
	return wsnq.ParseScenario(head + fmt.Sprintf(`values %d
rounds %d
runs %d
loss 0.08
algorithms %s
fault crash@%d-%d:n%d
arq retries=3 dead=2
alerts storm; orphan; excursion
slo fresh stale=2
adapt on storm(warn) do widen 1.5 cooldown 6; on orphan(warn) do reroot cooldown 10
`, replayValues, replayRounds, replayRuns, strings.Join(replayAlgorithms, ","), replayCrashFrom, replayCrashTo, relay))
}

// timedWriter and timedReader wrap the recording stream and add up the
// time spent inside Write and Read.
type timedWriter struct {
	w io.Writer
	d time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.d += time.Since(t0)
	return n, err
}

type timedReader struct {
	r io.Reader
	d time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.d += time.Since(t0)
	return n, err
}

// recording is one recorded scenario run.
type recording struct {
	data  []byte
	hash  string
	out   *wsnq.ScenarioOutcome
	took  time.Duration // RecordScenario alone
	write time.Duration
}

// record records sc into memory. Only RecordScenario is timed; the
// outcome hash is computed after the clock stops.
func record(ctx context.Context, sc *wsnq.Scenario) (*recording, error) {
	var buf bytes.Buffer
	w := &timedWriter{w: &buf}
	t0 := time.Now()
	out, err := wsnq.RecordScenario(ctx, sc, w)
	took := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &recording{data: buf.Bytes(), hash: out.Hash(), out: out, took: took, write: w.d}, nil
}

// replayed is one replay of a recording.
type replayed struct {
	out  *wsnq.ScenarioOutcome
	took time.Duration // ReplayRecording alone
	read time.Duration
}

// replay replays rec and checks that it reproduces the recorded hash.
// Only ReplayRecording is timed; the hash is computed after the clock
// stops.
func replay(rep *report, rec *recording) (*replayed, error) {
	r := &timedReader{r: bytes.NewReader(rec.data)}
	t0 := time.Now()
	out, err := wsnq.ReplayRecording(r)
	took := time.Since(t0)
	if err != nil {
		return nil, err
	}
	h := out.Hash()
	rep.check(h == rec.hash, "replay hash %s differs from the record hash %s", h, rec.hash)
	return &replayed{out: out, took: took, read: r.d}, nil
}

// replayRecords is the number of (algorithm, run, round) records a
// recording holds, and replayNodeRounds the node-rounds it simulates.
var (
	replayRecords    = len(replayAlgorithms) * replayRuns * replayRounds
	replayNodeRounds = replayRecords * replayNodes * replayValues
)

// setupReplay generates and parses the scenario, then records and
// replays it once to warm up.
func setupReplay(ctx context.Context, rep *report, seed int64) (*wsnq.Scenario, *recording, error) {
	sc, err := lossyScenario(seed)
	if err != nil {
		return nil, nil, err
	}
	rec, err := record(ctx, sc)
	if err != nil {
		return nil, nil, err
	}
	if _, err := replay(rep, rec); err != nil {
		return nil, nil, err
	}
	return sc, rec, nil
}

// runReplay alternates a timed record with replayPerRecord timed
// replays of it.
func runReplay(ctx context.Context, seed int64, seconds float64, tr *traced) (*report, error) {
	rep := newReport()
	var setups []float64
	var sc *wsnq.Scenario
	var first *recording
	for i := 0; i < replaySetups; i++ {
		// Garbage an earlier set-up left is collected outside the next one.
		runtime.GC()
		t0 := time.Now()
		var err error
		if sc, first, err = setupReplay(ctx, rep, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if seed == defaultSeed {
		rep.check(first.hash == pinnedReplay, "lossy-record-replay outcome hash %s, want %s", first.hash, pinnedReplay)
	}
	if tr != nil {
		return rep, traceReplay(ctx, rep, tr, sc, first, seed)
	}

	var recRates, repMs []float64
	var mem rss
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(recRates) == 0 || time.Now().Before(deadline) {
		mem.reset()
		rec, err := record(ctx, sc)
		if err != nil {
			return nil, err
		}
		recRates = append(recRates, float64(replayNodeRounds)/rec.took.Seconds())
		rep.check(rec.hash == first.hash, "record hash %s differs from the warm-up record %s", rec.hash, first.hash)
		for i := 0; i < replayPerRecord; i++ {
			r, err := replay(rep, rec)
			if err != nil {
				return nil, err
			}
			repMs = append(repMs, ms(r.took))
		}
		if err := mem.sample(); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("node_rounds_per_s", median(recRates))
	rep.set("call_ms_p50", median(repMs))
	rep.set("peak_rss_mb", mem.mb())
	rep.note("node_rounds_per_s: median of %d RecordScenario calls of %d node-rounds; call_ms_p50: median of %d ReplayRecording calls of %d records; recording %d bytes",
		len(recRates), replayNodeRounds, len(repMs), replayRecords, len(first.data))
	return rep, nil
}

// traceReplay is the traced run: one record and replayPerRecord
// replays untraced, the same with spans, then the layer calls.
func traceReplay(ctx context.Context, rep *report, tr *traced, sc *wsnq.Scenario, first *recording, seed int64) error {
	t := tr.t
	t.begin("lossy-record-replay", 0)
	err := t.do("untraced", 0, func() error {
		rt0 := readRT()
		t0 := time.Now()
		rec, err := record(ctx, sc)
		if err != nil {
			return err
		}
		d := readRT().sub(rt0)
		tr.setAllocs(d, float64(replayNodeRounds), float64(replayRecords))
		tr.setGC(d)
		for i := 0; i < replayPerRecord; i++ {
			if _, err := replay(rep, rec); err != nil {
				return err
			}
		}
		tr.untraced = time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}

	var rec *recording
	var replayTime, read time.Duration
	err = t.do("traced", 0, func() error {
		span := t.begin("scenario.RecordScenario", 0)
		var err error
		rec, err = record(ctx, sc)
		t.end()
		if err != nil {
			return err
		}
		t.attribute(span, "scenario.record.write", 0, rec.write)
		t.attribute(span, "benchmark.hash", 0, t.dur(span)-rec.took)
		for i := 0; i < replayPerRecord; i++ {
			span := t.begin("scenario.ReplayRecording", i)
			r, err := replay(rep, rec)
			t.end()
			if err != nil {
				return err
			}
			replayTime += r.took
			read += r.read
			t.attribute(span, "scenario.replay.read", i, r.read)
			t.attribute(span, "benchmark.hash", i, t.dur(span)-r.took)
			checkTaps(rep, tr, rec.out, r.out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.extra("taps.replay_ms_per_round", ms(replayTime)/float64(replayPerRecord*replayRecords), "ms/round")
	tr.extra("scenario.record_bytes", float64(len(rec.data)), "B")
	tr.extra("scenario.record_write_ms", ms(rec.write), "ms")
	tr.extra("scenario.replay_read_ms", ms(read)/replayPerRecord, "ms")
	rep.check(bytes.Equal(rec.data, first.data), "recording differs from the warm-up recording")
	tr.notes = append(tr.notes,
		"scenario.record.write and scenario.replay.read are attributed: the time spent inside the benchmark's wrapping writer and reader",
		"benchmark.hash is attributed: the outcome hash the benchmark computes after RecordScenario or ReplayRecording returns, outside their timed region",
		"recording runs the engine sequentially (the scenario hooks force it), as the untraced repetition does")
	return layerReplay(ctx, rep, tr, sc.String(), seed, first.out.Metrics())
}

// checkTaps reports the tap counts of the recorded run and checks that
// the replay re-derives every one of them.
func checkTaps(rep *report, tr *traced, rec, out *wsnq.ScenarioOutcome) {
	points := func(o *wsnq.ScenarioOutcome) int {
		n := 0
		for _, s := range o.Series() {
			n += len(s.Points)
		}
		return n
	}
	counts := []struct {
		name     string
		rec, out int
	}{
		{"series.points", points(rec), points(out)},
		{"alert.transitions", len(rec.Alerts()), len(out.Alerts())},
		{"slo.events", len(rec.SLOEvents()), len(out.SLOEvents())},
		{"adapt.decisions", len(rec.AdaptDecisions()), len(out.AdaptDecisions())},
	}
	for _, c := range counts {
		rep.check(c.rec == c.out, "%s: record %d, replay %d", c.name, c.rec, c.out)
		tr.extra(c.name, float64(c.rec), "count")
	}
}
