package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"wsnq"
)

// The served fleet: about 1,000 queries over two fleets on one Server,
// no loss. The small synthetic fleet hosts about 90% of the queries, so
// per-query protocol work is small and the registry tick — snapshot,
// workers, per-query series ingestion, Update building, publish
// fan-out, read locking — dominates. The 300-node SOM-placed pressure
// fleet hosts the rest and supplies the slow queries.
//
// The read side follows the repository's own load profile, the
// serve.LoadConfig defaults that wsnq-serve -load runs: Zipf s=1.2
// popularity over the queries, Queries/10 subscribers targeted by the
// same law, and 2×Queries reads over 16 ticks — 125 reads per tick. At
// the seed commit's Advance median of 43 ms per tick that is about
// 2,900 reads per second, which the GET generator issues open loop.
const (
	serveQueries       = 1000
	serveSynthShare    = 0.9
	serveSynthNodes    = 40
	serveSynthArea     = 60 // keeps the default cell's node density
	servePressureNodes = 300
	serveZipfS         = 1.2                                   // popularity skew of GET and Subscribe targets
	serveSubs          = serveQueries / 10                     // Subscribe streams drained after each tick
	serveReadsPerTick  = 2 * serveQueries / 16                 // GET /queries/{id} per tick
	serveTickMs        = 43                                    // the seed commit's Advance median
	serveReadRate      = serveReadsPerTick * 1e3 / serveTickMs // GETs per second, open loop
	serveWarmTicks     = 2                                     // the init round and one step, in set-up
	serveDigestRounds  = 16                                    // rounds of every query the digest covers
	serveSetups        = 11
	serveRateWindow    = time.Second // answers_per_s is the median rate over windows this long
)

var serveAlgorithms = []wsnq.Algorithm{wsnq.IQ, wsnq.HBC, wsnq.POS, wsnq.TAG, wsnq.LCLLS}

// fleet is one built server with its queries and subscriptions.
type fleet struct {
	srv       *wsnq.Server
	ids       []string
	subs      []<-chan wsnq.QueryUpdate
	cancels   []func()
	ticks     int
	digest    hash.Hash
	stepMs    []float64     // LatencyMs of the last checked tick (SLO servers only)
	buildTime time.Duration // AddFleet calls
	// nodeRounds is the node-rounds one tick simulates: every query
	// runs one round on its fleet's nodes.
	nodeRounds float64
}

func serveConfigs(seed int64) (synth, pressure wsnq.Config) {
	synth = wsnq.DefaultConfig()
	synth.Nodes, synth.Area, synth.Seed, synth.Runs = serveSynthNodes, serveSynthArea, seed, 1
	pressure = wsnq.DefaultConfig()
	pressure.Nodes, pressure.Seed, pressure.Runs = servePressureNodes, seed, 1
	pressure.Dataset = wsnq.Dataset{Kind: wsnq.PressureData}
	return synth, pressure
}

// buildFleet builds the server, registers the queries drawn from seed,
// subscribes the drained streams and runs the warm-up ticks.
func buildFleet(rep *report, seed int64, slo string) (*fleet, error) {
	f := &fleet{
		srv:    wsnq.NewServer(wsnq.ServerConfig{Workers: maxProcs(), SLO: slo}),
		digest: sha256.New(),
	}
	synth, pressure := serveConfigs(seed)
	t0 := time.Now()
	if err := f.srv.AddFleet("synth", synth); err != nil {
		return nil, err
	}
	if err := f.srv.AddFleet("pressure", pressure); err != nil {
		return nil, err
	}
	f.buildTime = time.Since(t0)
	// The seed shuffles which queries land on which fleet, algorithm and
	// φ, but every seed gets the same mix: exactly serveSynthShare of the
	// queries on the synthetic fleet, the algorithms in equal numbers on
	// each fleet, and φ stratified over [0.1, 0.9]. Seeds then differ in
	// their inputs, not in how much work they ask for.
	rng := rand.New(rand.NewSource(seed))
	synthQueries := int(serveSynthShare * serveQueries)
	phis := rng.Perm(serveQueries)
	for i, slot := range rng.Perm(serveQueries) {
		spec := wsnq.QuerySpec{
			Fleet:  "synth",
			Client: fmt.Sprintf("c%d", rng.Intn(16)),
			Phi:    0.1 + 0.8*(float64(phis[i])+rng.Float64())/serveQueries,
		}
		n, cfg := slot, synth
		if slot >= synthQueries {
			spec.Fleet, n, cfg = "pressure", slot-synthQueries, pressure
		}
		f.nodeRounds += float64(cfg.Nodes * max(1, cfg.ValuesPerNode))
		spec.Algorithm = serveAlgorithms[n%len(serveAlgorithms)]
		id, err := f.srv.Register(spec)
		if err != nil {
			return nil, err
		}
		f.ids = append(f.ids, id)
	}
	z := newZipf(seed, serveZipfS, len(f.ids))
	for i := 0; i < serveSubs; i++ {
		ch, cancel, err := f.srv.Subscribe(f.ids[z.next()])
		if err != nil {
			return nil, err
		}
		f.subs = append(f.subs, ch)
		f.cancels = append(f.cancels, cancel)
	}
	var sink drainSink
	for i := 0; i < serveWarmTicks; i++ {
		f.srv.Advance()
		f.afterTick(rep)
		if err := f.drain(rep, &sink); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.cancels {
		c()
	}
}

// afterTick checks every query's latest answer after a tick: it must
// be this round's, exact (the fleets are lossless) and not failed. The
// first serveDigestRounds rounds feed the served-answers digest.
func (f *fleet) afterTick(rep *report) {
	round := f.ticks
	f.ticks++
	f.stepMs = f.stepMs[:0]
	for _, id := range f.ids {
		u, ok := f.srv.Latest(id)
		if u.LatencyMs > 0 {
			f.stepMs = append(f.stepMs, u.LatencyMs)
		}
		rep.check(ok && u.Failed == "" && u.Round == round && u.RankError == 0,
			"query %s round %d: answer %d oracle %d rank error %d failed %q", id, u.Round, u.Quantile, u.Oracle, u.RankError, u.Failed)
		if round < serveDigestRounds {
			fmt.Fprintf(f.digest, "%s %d %d\n", id, u.Round, u.Quantile)
		}
	}
}

// drainSink is the NDJSON encoder the drained updates are written to.
type drainSink struct {
	buf      bytes.Buffer
	updates  int
	bytes    int
	encode   time.Duration
	maxDepth int
}

// drain empties every subscribed stream, encoding each update as one
// NDJSON line; no update may have been shed.
func (f *fleet) drain(rep *report, s *drainSink) error {
	for _, ch := range f.subs {
		if d := len(ch); d > s.maxDepth {
			s.maxDepth = d
		}
		n := 0
	stream:
		for {
			select {
			case u := <-ch:
				s.buf.Reset()
				t0 := time.Now()
				if err := json.NewEncoder(&s.buf).Encode(u); err != nil {
					return err
				}
				s.encode += time.Since(t0)
				s.bytes += s.buf.Len()
				s.updates++
				n++
				rep.check(u.RankError == 0 && u.Failed == "", "subscribed query %s round %d: rank error %d failed %q", u.Query, u.Round, u.RankError, u.Failed)
			default:
				break stream
			}
		}
		rep.check(n == 1, "a subscription delivered %d updates for one tick", n)
	}
	return nil
}

// readLoad is the open-loop GET generator: requests fall due at a
// fixed rate whatever the server does, each is timed from when it was
// due, and the lateness of the generator itself is kept too.
type readLoad struct {
	lat, lag []float64 // ms
	codes    map[int]int
}

func (l *readLoad) run(ctx context.Context, h http.Handler, ids []string, z *zipf) {
	l.codes = make(map[int]int)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / serveReadRate))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return
		}
		sent := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/queries/"+ids[z.next()], nil))
		end := time.Now()
		l.codes[rec.Code]++
		l.lat = append(l.lat, ms(end.Sub(due)))
		l.lag = append(l.lag, ms(sent.Sub(due)))
	}
}

func (l *readLoad) check(rep *report) {
	for code, n := range l.codes {
		for i := 0; i < n; i++ {
			rep.check(code == http.StatusOK, "GET /queries/{id} returned %d", code)
		}
	}
}

// startLoad runs the GET generator until the returned stop is called;
// stop waits for it to end and may be called again.
func startLoad(f *fleet, seed int64) (*readLoad, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &readLoad{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.run(ctx, f.srv.Handler(), f.ids, newZipf(seed, serveZipfS, len(f.ids)))
	}()
	return l, func() { cancel(); wg.Wait() }
}

// runServe times the closed-loop round clock of the served fleet while
// the GET generator reads answers at a fixed rate.
func runServe(ctx context.Context, seed int64, seconds float64, tr *traced) (*report, error) {
	rep := newReport()
	var setups []float64
	var f *fleet
	for i := 0; i < serveSetups; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		// Garbage an earlier set-up left is collected outside the next one.
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = buildFleet(rep, seed, ""); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	if tr != nil {
		return rep, traceServe(ctx, rep, tr, f, seed)
	}

	load, stop := startLoad(f, seed)
	var adv, rates, nodeRates []float64
	var mem rss
	var sink drainSink
	window, windowAnswers := time.Now(), 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(adv) == 0 || time.Now().Before(deadline) || f.ticks < serveDigestRounds {
		mem.reset()
		t0 := time.Now()
		stepped := f.srv.Advance()
		adv = append(adv, ms(time.Since(t0)))
		rep.check(stepped == len(f.ids), "Advance stepped %d of %d queries", stepped, len(f.ids))
		windowAnswers += stepped
		f.afterTick(rep)
		if err := f.drain(rep, &sink); err != nil {
			stop()
			return nil, err
		}
		if err := mem.sample(); err != nil {
			stop()
			return nil, err
		}
		if d := time.Since(window); d >= serveRateWindow {
			rates = append(rates, float64(windowAnswers)/d.Seconds())
			nodeRates = append(nodeRates, f.nodeRounds*float64(windowAnswers)/float64(len(f.ids))/d.Seconds())
			window, windowAnswers = time.Now(), 0
		}
	}
	stop()
	load.check(rep)
	rep.check(f.srv.Dropped() == 0, "%d updates shed to lagging subscribers", f.srv.Dropped())
	digest := hex.EncodeToString(f.digest.Sum(nil))
	if seed == defaultSeed {
		rep.check(digest == pinnedServe, "serve digest %s, want %s", digest, pinnedServe)
	}
	if len(rates) == 0 {
		d := time.Since(window).Seconds()
		rates = append(rates, float64(windowAnswers)/d)
		nodeRates = append(nodeRates, f.nodeRounds*float64(windowAnswers)/float64(len(f.ids))/d)
	}
	rep.set("setup_s", median(setups))
	rep.set("node_rounds_per_s", median(nodeRates))
	rep.set("call_ms_p50", median(adv))
	rep.set("peak_rss_mb", mem.mb())
	rep.extra("answers_per_s", median(rates), "1/s")
	rep.extra("advance_ms_p95", percentile(adv, 95), "ms")
	rep.extra("read_ms_p50", median(load.lat), "ms")
	rep.extra("read_ms_p99", percentile(load.lat, 99), "ms")
	rep.note("call_ms_p50 is the median Server.Advance tick; %d ticks, %.0f beyond p95; node_rounds_per_s and answers_per_s: median of %d windows of %v (%.0f node-rounds per tick); reads: %d at %.0f/s, %.0f beyond p99, generator lag p50 %.3f ms",
		len(adv), beyond(len(adv), 95), len(rates), serveRateWindow, f.nodeRounds, len(load.lat), serveReadRate, beyond(len(load.lat), 99), median(load.lag))
	return rep, nil
}

// serveTracedTicks is the number of ticks the traced run repeats,
// untraced and traced.
const serveTracedTicks = 120

// traceServe is the traced run: serveTracedTicks ticks on the plain
// server, the same on a server whose queries carry a latency objective
// (so each Update reports its step time), then the isolated calls.
func traceServe(ctx context.Context, rep *report, tr *traced, f *fleet, seed int64) error {
	t := tr.t
	t.begin("serve-fleet", 0)
	var sink drainSink
	err := t.do("untraced", 0, func() error {
		load, stop := startLoad(f, seed)
		defer stop()
		rt0 := readRT()
		t0 := time.Now()
		for i := 0; i < serveTracedTicks; i++ {
			f.srv.Advance()
			f.afterTick(rep)
			if err := f.drain(rep, &sink); err != nil {
				return err
			}
		}
		tr.untraced = time.Since(t0)
		d := readRT().sub(rt0)
		tr.setAllocs(d, serveTracedTicks*f.nodeRounds, float64(serveTracedTicks*len(f.ids)))
		tr.setGC(d)
		stop()
		load.check(rep)
		tr.extra("serve.read_ms_p99", percentile(load.lat, 99), "ms")
		tr.notes = append(tr.notes, fmt.Sprintf("serve.read_ms_p99 rests on %d reads, %.0f beyond p99", len(load.lat), beyond(len(load.lat), 99)))
		return nil
	})
	if err != nil {
		return err
	}

	var g *fleet
	err = t.do("serve.setup.latency-objective", 0, func() error {
		var err error
		g, err = buildFleet(rep, seed, "latency ms=1000")
		return err
	})
	if err != nil {
		return err
	}
	defer g.close()
	tr.set("deploy.build_ms", ms(g.buildTime))

	var steps, stragglers []float64
	var stepSum, advSum time.Duration
	published := 0 // queries stepped, each publishing one Update
	sink = drainSink{}
	var load *readLoad
	err = t.do("traced", 0, func() error {
		var stop func()
		load, stop = startLoad(g, seed)
		defer stop()
		for i := 0; i < serveTracedTicks; i++ {
			t.begin("serve.tick", i)
			adv := t.begin("serve.Advance", i)
			t0 := time.Now()
			published += g.srv.Advance()
			d := time.Since(t0)
			t.end()
			t.do("serve.check", i, func() error { g.afterTick(rep); return nil })
			var sum, slowest float64
			for _, s := range g.stepMs {
				sum += s
				if s > slowest {
					slowest = s
				}
			}
			steps = append(steps, g.stepMs...)
			stragglers = append(stragglers, slowest/ms(d))
			stepSum += time.Duration(sum * float64(time.Millisecond))
			advSum += d
			t.attribute(adv, "serve.query.step (summed / workers)", i, time.Duration(sum*float64(time.Millisecond))/time.Duration(maxProcs()))
			drain := t.begin("serve.drain", i)
			before := sink.encode
			err := g.drain(rep, &sink)
			t.attribute(drain, "serve.encode.NDJSON", i, sink.encode-before)
			t.end()
			t.end()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	load.check(rep)
	tr.extra("serve.step_ms_p50", median(steps), "ms")
	tr.extra("serve.straggler_frac", median(stragglers), "frac")
	tr.extra("serve.worker_busy_frac", float64(stepSum)/(float64(advSum)*float64(maxProcs())), "frac")
	tr.extra("serve.updates_published", float64(published), "count")
	tr.extra("serve.updates_dropped", float64(g.srv.Dropped()), "count")
	tr.extra("serve.sub_queue_depth_max", float64(sink.maxDepth), "count")
	tr.extra("serve.encode_us_per_update", float64(sink.encode)/1e3/float64(sink.updates), "us")
	tr.extra("serve.update_bytes", float64(sink.bytes)/float64(sink.updates), "B")
	tr.extra("serve.read_gen_lag_ms", median(load.lag), "ms")
	rep.check(g.srv.Dropped() == 0, "%d updates shed to lagging subscribers", g.srv.Dropped())

	// GETs with the clock stopped: the handler's own cost, without
	// waiting on a stepping query's lock.
	var gets []float64
	t.do("serve.Handler.GET", 0, func() error {
		h, z := g.srv.Handler(), newZipf(seed, serveZipfS, len(g.ids))
		a0, t0 := readAllocs(), time.Now()
		defer func() { tr.callNote("Server.Handler GET /queries/{id}", 1000, time.Since(t0), readAllocs()-a0) }()
		for i := 0; i < 1000; i++ {
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/queries/"+g.ids[z.next()], nil))
			gets = append(gets, float64(time.Since(t0))/1e3)
			rep.check(rec.Code == http.StatusOK, "GET /queries/{id} returned %d", rec.Code)
		}
		return nil
	})
	tr.extra("serve.read_handler_us", median(gets), "us")

	err = t.do("serve.encode.NDJSON", 0, func() error {
		u, _ := g.srv.Latest(g.ids[0])
		var buf bytes.Buffer
		const calls = 10000
		a0, t0 := readAllocs(), time.Now()
		for i := 0; i < calls; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(u); err != nil {
				return err
			}
		}
		tr.callNote("NDJSON encode of a serve.Update", calls, time.Since(t0), readAllocs()-a0)
		return nil
	})
	if err != nil {
		return err
	}

	var regUs, regAllocs []float64
	err = t.do("serve.Register", 0, func() error {
		a0, t0 := readAllocs(), time.Now()
		defer func() { tr.callNote("Server.Register", 200, time.Since(t0), readAllocs()-a0) }()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			spec := wsnq.QuerySpec{Fleet: "synth", Algorithm: serveAlgorithms[rng.Intn(len(serveAlgorithms))], Phi: 0.1 + 0.8*rng.Float64()}
			a0 := readAllocs()
			t0 := time.Now()
			if _, err := g.srv.Register(spec); err != nil {
				return err
			}
			regUs = append(regUs, float64(time.Since(t0))/1e3)
			regAllocs = append(regAllocs, float64(readAllocs()-a0))
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.extra("serve.register_us", median(regUs), "us")
	tr.extra("serve.register_allocs", median(regAllocs), "count")
	tr.notes = append(tr.notes,
		"the traced server attaches a latency objective (ServerConfig.SLO) so each Update reports its step time; the untraced server has none, so the overhead includes SLO evaluation",
		"serve.query.step is attributed: the summed step times of a tick divided by the workers, inside serve.Advance; the rest of serve.Advance is the registry tick",
		"ServerConfig.Observer.Prof would force Workers=1, so the traced run does not attach it",
		fmt.Sprintf("the GET generator runs at %.0f/s during both repetitions; its requests are not spans", serveReadRate))
	return layerServe(ctx, rep, tr, seed)
}
