package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsnq"
	"wsnq/internal/benchfmt"
)

// runBenchDiff loads two benchmark sessions and prints the
// benchstat-style delta table, flagging a uniform shift of the tracked
// hot paths (machine/toolchain change) when one is present.
func runBenchDiff(oldPath, newPath string) error {
	oldF, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (%s, %s)\nnew: %s (%s, %s)\n\n",
		oldPath, oldF.Date, oldF.GoVersion, newPath, newF.Date, newF.GoVersion)
	return benchfmt.FormatDiff(os.Stdout, oldF, newF)
}

// measure runs fn under testing.Benchmark reps times and keeps the
// fastest sample. Allocations are deterministic per op, so the minimum
// wall-clock rep measures the same work with the least scheduler
// disturbance — the same noise filter the overhead guards use.
func measure(reps int, fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < reps; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// runBenchJSON is the continuous-benchmarking mode: it measures every
// tracked hot path with testing.Benchmark (the fastest of reps
// repetitions each), pairs each sample with the domain costs of a
// short study (frames and hottest-node energy per round), and writes
// one schema-versioned BENCH_<date>.json for the regression guard to
// diff against the previous session.
func runBenchJSON(out string, reps int) error {
	if reps < 1 {
		reps = 1
	}
	f := benchfmt.File{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if out == "" {
		out = benchfmt.FreeFilename(".", time.Now())
	}

	// The per-round protocol hot paths, mirroring bench_test.go's
	// BenchmarkRound* (|N| = 500, one warm simulation stepped in place).
	for _, alg := range wsnq.StandardAlgorithms() {
		name := "Round" + strings.ReplaceAll(string(alg), "-", "")
		fmt.Fprintf(os.Stderr, "wsnq-bench: measuring %s...\n", name)
		res := measure(reps, func(b *testing.B) {
			cfg := wsnq.DefaultConfig()
			cfg.Nodes = 500
			cfg.Rounds = 1 << 30 // stepped manually
			cfg.Runs = 1
			sim, err := wsnq.NewSimulation(cfg, alg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Step(); err != nil { // initialization round
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Domain costs from a short averaged study on the same cell.
		cfg := wsnq.DefaultConfig()
		cfg.Nodes = 500
		cfg.Rounds = 40
		cfg.Runs = 1
		m, err := wsnq.Run(cfg, alg)
		if err != nil {
			return fmt.Errorf("%s study: %w", name, err)
		}

		f.Results = append(f.Results, benchfmt.Result{
			Name:           name,
			NsPerOp:        float64(res.NsPerOp()),
			BytesPerOp:     res.AllocedBytesPerOp(),
			AllocsPerOp:    res.AllocsPerOp(),
			FramesPerRound: m.FramesPerRound,
			EnergyPerRound: m.MaxNodeEnergyPerRound,
		})
	}

	// The observability hot path: the same warm IQ round with a series
	// ingester (plus the storm rule as its sink) attached to the trace
	// hook — what every -alert / -http study pays per round. Diffing
	// RoundIQSeries against RoundIQ across sessions guards the ingest
	// overhead.
	fmt.Fprintln(os.Stderr, "wsnq-bench: measuring RoundIQSeries...")
	seriesRes := measure(reps, func(b *testing.B) {
		cfg := wsnq.DefaultConfig()
		cfg.Nodes = 500
		cfg.Rounds = 1 << 30 // stepped manually
		cfg.Runs = 1
		sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
		if err != nil {
			b.Fatal(err)
		}
		alerts, err := wsnq.NewAlerts("storm")
		if err != nil {
			b.Fatal(err)
		}
		sim.SetTrace(sim.SeriesCollector(wsnq.NewSeries(), "IQ", alerts))
		if _, err := sim.Step(); err != nil { // initialization round
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, benchfmt.Result{
		Name:        "RoundIQSeries",
		NsPerOp:     float64(seriesRes.NsPerOp()),
		BytesPerOp:  seriesRes.AllocedBytesPerOp(),
		AllocsPerOp: seriesRes.AllocsPerOp(),
	})

	// The controller decision hot path: the same warm IQ round with a
	// closed-loop controller attached — the private series tap, the
	// alert engine pass, and the policy evaluation every adaptive study
	// pays per round. The heap/gc presets only fire on profiled runs,
	// so the policies stand armed but never act and the sample stays a
	// pure evaluation cost with deterministic allocations. Diffing
	// RoundIQAdapt against RoundIQSeries across sessions isolates the
	// policy evaluation (the controller's private tap is the same
	// series ingest that benchmark pays).
	fmt.Fprintln(os.Stderr, "wsnq-bench: measuring RoundIQAdapt...")
	adaptRes := measure(reps, func(b *testing.B) {
		cfg := wsnq.DefaultConfig()
		cfg.Nodes = 500
		cfg.Rounds = 1 << 30 // stepped manually
		cfg.Runs = 1
		sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
		if err != nil {
			b.Fatal(err)
		}
		ctl, err := wsnq.NewController("on heap(crit) do widen 2; on gc(warn) do narrow 2")
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.SetController(ctl); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Step(); err != nil { // initialization round
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, benchfmt.Result{
		Name:        "RoundIQAdapt",
		NsPerOp:     float64(adaptRes.NsPerOp()),
		BytesPerOp:  adaptRes.AllocedBytesPerOp(),
		AllocsPerOp: adaptRes.AllocsPerOp(),
	})

	// The query service's registration path: what every POST /queries
	// pays to admit a query and assemble its runtime over the shared
	// deployment. Registered queries are deregistered in the same
	// iteration so the registry size stays flat across b.N.
	fmt.Fprintln(os.Stderr, "wsnq-bench: measuring ServeRegisterQuery...")
	serveRes := measure(reps, func(b *testing.B) {
		srv := wsnq.NewServer(wsnq.ServerConfig{})
		fcfg := wsnq.DefaultConfig()
		fcfg.Nodes = 60
		fcfg.Area = 80
		fcfg.RadioRange = 25
		fcfg.Rounds = 1 << 20
		fcfg.Runs = 1
		if err := srv.AddFleet("fleet0", fcfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: wsnq.IQ, Phi: 0.9})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Deregister(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, benchfmt.Result{
		Name:        "ServeRegisterQuery",
		NsPerOp:     float64(serveRes.NsPerOp()),
		BytesPerOp:  serveRes.AllocedBytesPerOp(),
		AllocsPerOp: serveRes.AllocsPerOp(),
	})

	// The SLO evaluation hot path: one Observe across the three
	// objective signals — what every served query with attached
	// objectives pays per round on top of its protocol step. Samples
	// alternate good and bad rounds so the rings, the budget ledger,
	// and the level classification all do real work.
	fmt.Fprintln(os.Stderr, "wsnq-bench: measuring ServeSLOEval...")
	sloRes := measure(reps, func(b *testing.B) {
		slos, err := wsnq.NewSLOs("rank; fresh; latency")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slos.Observe("bench", wsnq.SLOSample{
				Round:     i,
				RankError: i % 40, // εN = 25 at |N|=500: bad every 26th..39th
				N:         500,
				Staleness: i % 3,
				LatencyMs: float64(i % 60),
			})
		}
	})
	f.Results = append(f.Results, benchfmt.Result{
		Name:        "ServeSLOEval",
		NsPerOp:     float64(sloRes.NsPerOp()),
		BytesPerOp:  sloRes.AllocedBytesPerOp(),
		AllocsPerOp: sloRes.AllocsPerOp(),
	})

	for _, lb := range layerBenches {
		fmt.Fprintf(os.Stderr, "wsnq-bench: measuring %s...\n", lb.name)
		res := measure(reps, lb.fn)
		f.Results = append(f.Results, benchfmt.Result{
			Name:        lb.name,
			NsPerOp:     float64(res.NsPerOp()),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	// One whole-study engine sample: a shared-deployment comparison of
	// the standard line-up (no per-round interpretation).
	fmt.Fprintln(os.Stderr, "wsnq-bench: measuring EngineCompare...")
	res := measure(reps, func(b *testing.B) {
		cfg := wsnq.DefaultConfig()
		cfg.Nodes = 200
		cfg.Rounds = 50
		cfg.Runs = 4
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wsnq.CompareContext(context.Background(), cfg, wsnq.StandardAlgorithms()); err != nil {
				b.Fatal(err)
			}
		}
	})
	f.Results = append(f.Results, benchfmt.Result{
		Name:        "EngineCompare",
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	})

	// Schema 2: stamp every sample with its allocation budget
	// (benchfmt.Ceiling), capped by the previous session's so budgets
	// only ratchet down. Allocations are deterministic per op, which is
	// what lets the regression guard enforce these as hard ceilings
	// where ns/op only supports a relative threshold.
	prev, err := previousSession(out)
	if err != nil {
		return err
	}
	for i := range f.Results {
		p, _ := prev.Result(f.Results[i].Name)
		f.Results[i].AllocsCeiling = benchfmt.Ceiling(f.Results[i].AllocsPerOp, p.AllocsCeiling)
	}

	if err := benchfmt.WriteFile(out, f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wsnq-bench: wrote %s (%d results)\n", out, len(f.Results))
	return nil
}

// previousSession returns the newest BENCH session next to out, out
// itself excluded (re-recording a day's session ratchets against the
// one before it); an empty File when there is none.
func previousSession(out string) (benchfmt.File, error) {
	files, err := benchfmt.List(filepath.Dir(out))
	if err != nil {
		return benchfmt.File{}, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if filepath.Clean(files[i]) != filepath.Clean(out) {
			return benchfmt.ReadFile(files[i])
		}
	}
	return benchfmt.File{}, nil
}
