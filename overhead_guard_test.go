package wsnq_test

import (
	"testing"

	"wsnq"
	"wsnq/internal/guard"
)

// nopCollector receives the flight-recorder stream and discards it:
// the baseline cost of a traced round without an observer layer.
type nopCollector struct{}

func (nopCollector) Collect(wsnq.TraceEvent) {}

// TestOverheadGuards enforces the ≤2% budget of each observer layer on
// the round path, one row per layer (internal/guard: timed only with
// WSNQ_GUARD=1, smoke-stepped otherwise):
//
//   - series: per-round series ingestion, with the storm rule as its
//     sink, on the traced IQ round;
//   - prof: phase attribution on the traced IQ round;
//   - slo: the three standard objectives on the serve step;
//   - adapt: a standing, never-firing policy set on the serve step.
//
// The series and prof rows share one warm simulation, re-attached arm
// by arm, so deployment, data stream and thermal drift hit both sides
// alike; both sides run traced, so each row measures exactly what its
// layer adds on top of the recorder. The slo and adapt rows each host
// the same single query on two servers over identical fleets that
// differ only in ServerConfig.
//
//	WSNQ_GUARD=1 go test -count=1 -run TestOverheadGuards -v .
func TestOverheadGuards(t *testing.T) {
	cfg := wsnq.DefaultConfig()
	cfg.Nodes = 500
	cfg.Rounds = 1 << 30 // stepped manually or by the registry clock
	cfg.Runs = 1

	sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetTrace(nopCollector{})
	if _, err := sim.Step(); err != nil { // initialization round
		t.Fatal(err)
	}
	alerts, err := wsnq.NewAlerts("storm")
	if err != nil {
		t.Fatal(err)
	}
	ser, prof := wsnq.NewSeries(), wsnq.NewProf()
	traced := func(name string, c func() wsnq.TraceCollector, p *wsnq.Prof) guard.Arm {
		return guard.Arm{
			Name: name,
			// A fresh collector per attach re-baselines the series
			// counter diff at the attach point, so rounds stepped under
			// the other arm are not charged to the first series round.
			Attach: func() { sim.SetTrace(c()); sim.SetProf(p) },
			Step:   func() error { _, err := sim.Step(); return err },
		}
	}
	nop := func() wsnq.TraceCollector { return nopCollector{} }

	// served hosts one IQ query on a fresh fleet, past its
	// initialization round; the query must still be running when the
	// test ends.
	served := func(name string, sc wsnq.ServerConfig) guard.Arm {
		srv := wsnq.NewServer(sc)
		if err := srv.AddFleet("fleet0", cfg); err != nil {
			t.Fatal(err)
		}
		id, err := srv.Register(wsnq.QuerySpec{Fleet: "fleet0", Algorithm: wsnq.IQ})
		if err != nil {
			t.Fatal(err)
		}
		srv.Advance()
		t.Cleanup(func() {
			if st, err := srv.Status(id); err != nil || st.Failed != "" {
				t.Errorf("%s: query %s parked: %v %s", name, id, err, st.Failed)
			}
		})
		return guard.Arm{Name: name, Step: func() error { srv.Advance(); return nil }}
	}

	for _, row := range []struct {
		name        string
		base, treat guard.Arm
		// engaged, if set, reports whether the treatment's layer did
		// any work; one that did none would pass vacuously.
		engaged func() bool
	}{
		{"series", traced("traced", nop, nil),
			traced("traced+series", func() wsnq.TraceCollector { return sim.SeriesCollector(ser, "IQ", alerts) }, nil),
			func() bool { return len(ser.Points("IQ")) > 0 }},
		{"prof", traced("traced", nop, nil), traced("traced+prof", nop, prof),
			func() bool { return len(prof.Report().Stats) > 0 }},
		{"slo", served("plain", wsnq.ServerConfig{}),
			served("with objectives", wsnq.ServerConfig{SLO: "rank; fresh; latency"}), nil},
		// The heap preset only fires on profiled runs, so the controller
		// evaluates every round and never acts: pure observation cost.
		{"adapt", served("plain", wsnq.ServerConfig{}),
			served("with policies", wsnq.ServerConfig{Adapt: "on heap(crit) do reroot; on heap(warn) do widen 2"}), nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			guard.Check(t, 0.02, row.base, row.treat)
			if row.engaged != nil && !row.engaged() {
				t.Errorf("%s did no work", row.treat.Name)
			}
		})
	}
}
