package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsnq"
)

// fig7Scale is the FigureOptions.Scale of the sweep: 2 runs × 40
// rounds of each of the 5 τ cells × 6 algorithms on 500 nodes, about
// 0.6 s per pass on two CPUs.
const (
	fig7Scale  = 0.1
	fig7Nodes  = 500 // the paper's default |N|, which fig7 keeps
	fig7Setups = 7   // warm-up passes; setup_s is their median
)

// runFig7 times Figure 7's τ sweep through RunFigureContext. The sweep
// builds its deployments inside each pass, so set-up is the warm-up
// passes, fig7Setups of them, and setup_s their median; only the first
// is cold. Every pass is checked for exact answers and for the first
// pass's digest, and the default seed's digest is pinned.
func runFig7(ctx context.Context, seed int64, seconds float64, tr *traced) (*report, error) {
	rep := newReport()
	opts := wsnq.FigureOptions{Scale: fig7Scale, Seed: seed, Parallelism: maxProcs()}
	var setups []float64
	var tables []*wsnq.Table
	var digest string
	for i := 0; i < fig7Setups; i++ {
		// Garbage an earlier set-up left is collected outside the next one.
		runtime.GC()
		t0 := time.Now()
		var err error
		if tables, err = wsnq.RunFigureContext(ctx, "fig7", opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		checkFig7(rep, tables)
		d := fig7Digest(tables)
		if i == 0 {
			digest = d
		}
		rep.check(d == digest, "fig7 warm-up pass %d digest %s differs from the first pass %s", i, d, digest)
	}
	if seed == defaultSeed {
		rep.check(digest == pinnedFig7, "fig7 digest %s, want %s", digest, pinnedFig7)
	}
	nodeRounds := fig7NodeRounds(tables)
	if tr != nil {
		return rep, traceFig7(ctx, rep, tr, opts, nodeRounds)
	}

	var rates, passMs []float64
	var mem rss
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		mem.reset()
		t0 := time.Now()
		tables, err := wsnq.RunFigureContext(ctx, "fig7", opts)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0)
		rates = append(rates, nodeRounds/took.Seconds())
		passMs = append(passMs, ms(took))
		if err := mem.sample(); err != nil {
			return nil, err
		}
		checkFig7(rep, tables)
		d := fig7Digest(tables)
		rep.check(d == digest, "fig7 pass %d digest %s differs from the warm-up pass %s", len(rates), d, digest)
	}
	rep.set("setup_s", median(setups))
	rep.set("node_rounds_per_s", median(rates))
	rep.set("call_ms_p50", median(passMs))
	rep.set("peak_rss_mb", mem.mb())
	rep.note("node_rounds_per_s and call_ms_p50 (one RunFigureContext pass): median of %d passes of %.0f node-rounds; setup_s: median of %d warm-up passes, the first (cold) %.3f s",
		len(rates), nodeRounds, len(setups), setups[0])
	return rep, nil
}

// checkFig7 counts one operation per (cell, algorithm): lossless
// answers must all equal the oracle.
func checkFig7(rep *report, tables []*wsnq.Table) {
	for _, t := range tables {
		for _, r := range t.Rows {
			for _, c := range t.Cols {
				m, ok := t.Cell(r, c)
				rep.check(ok && m.Rounds > 0 && m.ExactRounds == m.Rounds,
					"fig7 τ=%s %s: exact %d/%d", r, c, m.ExactRounds, m.Rounds)
			}
		}
	}
}

// fig7NodeRounds counts the simulated node-rounds of one pass:
// nodes × rounds summed over every run, algorithm and cell.
func fig7NodeRounds(tables []*wsnq.Table) float64 {
	total := 0
	for _, t := range tables {
		for _, r := range t.Rows {
			for _, c := range t.Cols {
				m, _ := t.Cell(r, c)
				total += m.Rounds
			}
		}
	}
	return float64(total * fig7Nodes)
}

// fig7Digest hashes the paper's outputs of a pass: per cell and
// algorithm the frames per round, the bits of each phase, the hottest
// node's joules per round and the exact rounds.
func fig7Digest(tables []*wsnq.Table) string {
	var b strings.Builder
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, t := range tables {
		for _, r := range t.Rows {
			for _, c := range t.Cols {
				m, _ := t.Cell(r, c)
				fmt.Fprintf(&b, "%s %s frames=%s j=%s exact=%d/%d", r, c,
					g(m.FramesPerRound), g(m.MaxNodeEnergyPerRound), m.ExactRounds, m.Rounds)
				phases := make([]string, 0, len(m.PhaseBitsPerRound))
				for ph := range m.PhaseBitsPerRound {
					phases = append(phases, ph)
				}
				sort.Strings(phases)
				for _, ph := range phases {
					fmt.Fprintf(&b, " %s=%s", ph, g(m.PhaseBitsPerRound[ph]))
				}
				b.WriteByte('\n')
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// traceFig7 is the traced run: one sequential pass untraced, the same
// pass with Prof and Telemetry attached, then the isolated layer calls.
func traceFig7(ctx context.Context, rep *report, tr *traced, opts wsnq.FigureOptions, nodeRounds float64) error {
	t := tr.t
	t.begin("fig7-sweep", 0)
	seq := opts
	seq.Parallelism = 1

	var par time.Duration
	err := t.do("untraced.parallel", 0, func() error {
		t0 := time.Now()
		_, err := wsnq.RunFigureContext(ctx, "fig7", opts)
		par = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	err = t.do("untraced", 0, func() error {
		rt0 := readRT()
		t0 := time.Now()
		tables, err := wsnq.RunFigureContext(ctx, "fig7", seq)
		tr.untraced = time.Since(t0)
		d := readRT().sub(rt0)
		tr.setAllocs(d, nodeRounds, nodeRounds/fig7Nodes)
		tr.setGC(d)
		checkFig7(rep, tables)
		return err
	})
	if err != nil {
		return err
	}

	prof := wsnq.NewProf()
	var tables []*wsnq.Table
	err = t.do("traced", 0, func() error {
		traced := seq
		traced.Observer = &wsnq.Observer{Prof: prof}
		pass := t.begin("experiment.RunFigureContext", 0)
		var err error
		tables, err = wsnq.RunFigureContext(ctx, "fig7", traced)
		t.end()
		if err != nil {
			return err
		}
		attributeProf(t, pass, prof.Report())
		return nil
	})
	if err != nil {
		return err
	}
	checkFig7(rep, tables)

	tr.extra("experiment.worker_busy_frac", tr.untraced.Seconds()/(par.Seconds()*float64(opts.Parallelism)), "frac")
	tr.notes = append(tr.notes,
		"Observer.Prof makes the engine run sequentially; the untraced pass is sequential too, so the overhead compares like with like",
		fmt.Sprintf("experiment.worker_busy_frac = untraced sequential pass / (parallel pass %.0f ms × %d workers)", ms(par), opts.Parallelism),
		"phase.* spans are attributed from the Prof report (time between phase switches), not timed around calls")
	return layerFig7(ctx, rep, tr, opts.Seed, tables)
}

// attributeProf turns the Prof buckets into child spans of the open
// span, so the layer table splits the engine's time by algorithm phase.
func attributeProf(t *tracer, parent int, rep wsnq.ProfReport) {
	stats := append([]wsnq.ProfPhaseStat(nil), rep.Stats...)
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Scope != stats[j].Scope {
			return stats[i].Scope < stats[j].Scope
		}
		return stats[i].Phase < stats[j].Phase
	})
	for _, s := range stats {
		t.attribute(parent, "phase."+s.Scope+"."+s.Phase, 0, time.Duration(s.CPUSeconds*float64(time.Second)))
	}
}
