package oracle_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"wsnq/internal/approx"
	"wsnq/internal/baseline"
	"wsnq/internal/core"
	"wsnq/internal/fault"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
	"wsnq/internal/trace/oracle"
)

// exactAlgorithms lists every registered exact protocol, freshly
// constructed per run (algorithms keep per-run state).
func exactAlgorithms() []struct {
	name string
	mk   func() protocol.Algorithm
} {
	return []struct {
		name string
		mk   func() protocol.Algorithm
	}{
		{"TAG", func() protocol.Algorithm { return baseline.NewTAG() }},
		{"POS", func() protocol.Algorithm { return baseline.NewPOS(baseline.DefaultPOSOptions()) }},
		{"LCLL-H", func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(false)) }},
		{"LCLL-S", func() protocol.Algorithm { return baseline.NewLCLL(baseline.DefaultLCLLOptions(true)) }},
		{"HBC", func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
		{"IQ", func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
	}
}

// mustRuntime builds a connected random deployment, walking the seed
// forward when a placement comes out disconnected (small node counts on
// the 200×200 field occasionally do) — still fully deterministic.
func mustRuntime(t *testing.T, series [][]int, universe int, seed int64) *sim.Runtime {
	t.Helper()
	var err error
	for off := int64(0); off < 20; off++ {
		var rt *sim.Runtime
		if rt, err = simtest.RuntimeFromSeries(series, universe, seed+off); err == nil {
			return rt
		}
	}
	t.Fatalf("no connected deployment near seed %d: %v", seed, err)
	return nil
}

// TestDifferentialExactAlgorithms is the property-style differential
// suite: every exact algorithm, on randomized small deployments, must
// answer every round exactly like the centralized sort oracle — and the
// flight-recorder replay must find the run internally consistent
// (energy conservation, message accounting, framing).
func TestDifferentialExactAlgorithms(t *testing.T) {
	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(12)
			rounds := 5 + rng.Intn(4)
			universe := 64 << rng.Intn(3)
			k := 1 + rng.Intn(n)
			series := simtest.CorrelatedSeries(rng, n, rounds+1, universe, 1+universe/16)

			for _, alg := range exactAlgorithms() {
				rt := mustRuntime(t, series, universe, seed+1000)
				rec := trace.NewRecorder()
				rt.SetTrace(rec)
				if err := simtest.RunAgainstOracle(rt, alg.mk(), k, rounds); err != nil {
					t.Errorf("%s deviates from the sort oracle: %v", alg.name, err)
					continue
				}
				rep := oracle.Check(rec.Events(), oracle.FromRuntime(rt))
				if err := rep.Err(); err != nil {
					t.Errorf("%s (n=%d k=%d): %v", alg.name, n, k, err)
				}
				if rep.Decisions != rounds+1 {
					t.Errorf("%s recorded %d decisions, want %d", alg.name, rep.Decisions, rounds+1)
				}
			}
		})
	}
}

// TestDifferentialUnderLoss replays lossy runs. Answers may legitimately
// deviate (the quantile check is switched off), but energy conservation,
// message accounting — now with real drop events — and framing must
// still hold. The driver runs Init over reliable links, so the drops
// come from the continuous rounds.
func TestDifferentialUnderLoss(t *testing.T) {
	sawDrop := false
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(8)
		rounds := 6
		series := simtest.RandomSeries(rng, n, rounds+1, 256)
		rt := mustRuntime(t, series, 256, seed+2000)
		if err := rt.SetLossProb(0.3); err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		rt.SetTrace(rec)
		if err := simtest.RunTraced(rt, baseline.NewTAG(), 1+rng.Intn(n), rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := oracle.FromRuntime(rt)
		cfg.Readings = nil // lossy answers are allowed to deviate
		rep := oracle.Check(rec.Events(), cfg)
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if rep.Drops > 0 {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Error("30% loss over 6 runs produced no drop events — loss tracing is dead")
	}
}

// TestDifferentialUnderFaults replays chaos runs — a scheduled
// crash/recovery plus a Gilbert–Elliott bursty uplink under ARQ — for
// both paper algorithms, driven through the shared recovery contract
// (simtest.RunTraced: repair or desynchronization replays a reliable
// Init). Answers may legitimately degrade while coverage is broken
// (the golden recovery study judges those), but energy conservation —
// now including per-attempt retry charges, ACK frames, and join
// handshakes — message accounting, ack balance, and framing must hold
// exactly.
func TestDifferentialUnderFaults(t *testing.T) {
	algs := []struct {
		name string
		mk   func() protocol.Algorithm
	}{
		{"HBC", func() protocol.Algorithm { return core.NewHBC(core.DefaultHBCOptions()) }},
		{"IQ", func() protocol.Algorithm { return core.NewIQ(core.DefaultIQOptions()) }},
	}
	sawRetry, sawDegraded, sawCrash := false, false, false
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(8)
		rounds := 12
		series := simtest.CorrelatedSeries(rng, n, rounds+1, 256, 16)
		spec := fmt.Sprintf("crash@3-7:n%d; burst(p=0.5,len=3):n%d", 1+rng.Intn(n-1), rng.Intn(n))
		for _, alg := range algs {
			plan, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			rt := mustRuntime(t, series, 256, seed+4000)
			rec := trace.NewRecorder()
			rt.SetTrace(rec)
			if err := rt.SetFaults(plan, seed, sim.DefaultARQ()); err != nil {
				t.Fatal(err)
			}
			if err := simtest.RunTraced(rt, alg.mk(), 1+rng.Intn(n), rounds); err != nil {
				t.Fatalf("%s seed %d (%s): %v", alg.name, seed, spec, err)
			}
			cfg := oracle.FromRuntime(rt)
			cfg.Readings = nil // degraded answers are judged by the recovery study
			rep := oracle.Check(rec.Events(), cfg)
			if err := rep.Err(); err != nil {
				t.Errorf("%s seed %d (%s): %v", alg.name, seed, spec, err)
			}
			if rep.AckFrames == 0 {
				t.Errorf("%s seed %d: ARQ enabled but no ack frames traced", alg.name, seed)
			}
			sawRetry = sawRetry || rep.Retries > 0
			sawDegraded = sawDegraded || rep.Degraded > 0
			for _, e := range rec.Events() {
				if e.Kind == trace.KindCrash {
					sawCrash = true
					break
				}
			}
		}
	}
	if !sawRetry {
		t.Error("bursty links under ARQ produced no retry events across all seeds")
	}
	if !sawDegraded {
		t.Error("mid-run crashes produced no degraded rounds across all seeds")
	}
	if !sawCrash {
		t.Error("crash schedule produced no crash events across all seeds")
	}
}

// TestDifferentialQDigestBound checks the q-digest deterministic error
// contract: every round's answer lies within n·log₂(σ)/K ranks of the
// true quantile.
func TestDifferentialQDigestBound(t *testing.T) {
	const compression = 8
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(8)
		rounds := 5
		universe := 256
		k := 1 + rng.Intn(n)
		series := simtest.RandomSeries(rng, n, rounds+1, universe)
		rt := mustRuntime(t, series, universe, seed+3000)
		rec := trace.NewRecorder()
		rt.SetTrace(rec)
		if err := simtest.RunTraced(rt, approx.NewQD(compression), k, rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := oracle.FromRuntime(rt)
		height := bits.Len(uint(universe - 1)) // log₂σ of the padded universe
		cfg.RankBound = float64(n) * float64(height) / float64(compression)
		rep := oracle.Check(rec.Events(), cfg)
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d (n=%d k=%d bound=%.1f): %v", seed, n, k, cfg.RankBound, err)
		}
		if rep.Decisions != rounds+1 {
			t.Errorf("seed %d: %d decisions, want %d", seed, rep.Decisions, rounds+1)
		}
	}
}

// TestDifferentialSampleAccounting replays the probabilistic sampler.
// Its answers carry no deterministic guarantee, so only the structural
// invariants are enforced.
func TestDifferentialSampleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 16
	series := simtest.RandomSeries(rng, n, 6, 128)
	rt := mustRuntime(t, series, 128, 42)
	rec := trace.NewRecorder()
	rt.SetTrace(rec)
	if err := simtest.RunTraced(rt, approx.NewSample(0.5), n/2, 5); err != nil {
		t.Fatal(err)
	}
	cfg := oracle.FromRuntime(rt)
	cfg.Readings = nil
	if err := oracle.Check(rec.Events(), cfg).Err(); err != nil {
		t.Error(err)
	}
}
