package wsnq

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"wsnq/internal/protocol"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
)

// parityRounds is the length of every driver's run in the parity test.
const parityRounds = 30

// parityCell is one configuration the three drivers must agree on.
type parityCell struct {
	name   string
	loss   float64
	plan   string // fault plan; serve hosts no fault plans
	policy string // adaptation policies (no reroot: serve has no faults)
}

var parityCells = []parityCell{
	{name: "loss", loss: 0.3},
	{name: "crash+burst", plan: "crash@8-16:n3; burst(p=0.3,len=3):n5"},
	{name: "adapt", loss: 0.3, policy: "on burnrate(warn) do narrow 2 cooldown 6; " +
		"on excursion(warn) do widen 2 cooldown 6"},
}

// driverRun is one driver's account of a run: the answer of every
// round, how many rounds replayed initialization, and the controller's
// decision log.
type driverRun struct {
	answers   []int
	reinits   int
	decisions []AdaptDecision
}

// TestDriverParity: the batch engine, Simulation.Step and a query
// hosted by a Server run one protocol.Driver, so for the same config,
// fault plan and policy set they must give the same answer on every
// round, the same number of reinitializations and the same decision
// log. Serve joins the loss and adapt cells only.
//
// Before the drivers were merged only the engine reinitialized after a
// desynchronization under iid loss. On the lossy cells Simulation.Step
// returned a hard error and the served query parked for good, at the
// same round: in the loss cell at round 1 for HBC and POS and round 25
// for IQ, in the adapt cell at round 1 for HBC and POS and round 12 for
// IQ. LCLL-S never desynchronizes on these cells, and the fault cell
// already agreed.
func TestDriverParity(t *testing.T) {
	for _, cell := range parityCells {
		for _, alg := range []Algorithm{HBC, IQ, POS, LCLLS} {
			t.Run(cell.name+"/"+string(alg), func(t *testing.T) {
				cfg := parityConfig()
				cfg.LossProb = cell.loss
				eng := runEngine(t, cfg, alg, cell)
				if len(eng.answers) != parityRounds {
					t.Fatalf("engine traced %d decisions, want %d", len(eng.answers), parityRounds)
				}
				if alg == HBC && eng.reinits == 0 {
					t.Error("HBC never reinitialized; the cell no longer tests recovery")
				}
				if cell.policy != "" && alg == IQ && len(eng.decisions) == 0 {
					t.Error("the adapt cell fired no decision for IQ")
				}
				drivers := map[string]driverRun{"Simulation": runSimulation(t, cfg, alg, cell)}
				if cell.plan == "" {
					drivers["serve"] = runServed(t, cfg, alg, cell)
				}
				for name, got := range drivers {
					if !reflect.DeepEqual(got.answers, eng.answers) {
						t.Errorf("%s answers differ from the engine:\n %s %v\n engine %v", name, name, got.answers, eng.answers)
					}
					if got.reinits != eng.reinits {
						t.Errorf("%s reinitialized %d times, the engine %d", name, got.reinits, eng.reinits)
					}
					if !reflect.DeepEqual(got.decisions, eng.decisions) {
						t.Errorf("%s decisions differ from the engine:\n %s %v\n engine %v", name, name, got.decisions, eng.decisions)
					}
				}
			})
		}
	}
}

func parityPlan(t *testing.T, cell parityCell) *FaultPlan {
	t.Helper()
	if cell.plan == "" {
		return nil
	}
	p, err := ParseFaultPlan(cell.plan)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func parityController(t *testing.T, cell parityCell) *Controller {
	t.Helper()
	if cell.policy == "" {
		return nil
	}
	c, err := NewController(cell.policy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runEngine(t *testing.T, cfg Config, alg Algorithm, cell parityCell) driverRun {
	t.Helper()
	rec := trace.NewRecorder()
	ctl := parityController(t, cell)
	opts := []Option{WithObserver(&Observer{Trace: rec, Adapt: ctl})}
	if p := parityPlan(t, cell); p != nil {
		opts = append(opts, WithFaults(p))
	}
	m, err := RunContext(context.Background(), cfg, alg, opts...)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	run := driverRun{reinits: m.Reinits}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindDecision {
			run.answers = append(run.answers, e.Value)
		}
	}
	if ctl != nil {
		run.decisions = ctl.Decisions()
	}
	return run
}

func runSimulation(t *testing.T, cfg Config, alg Algorithm, cell parityCell) driverRun {
	t.Helper()
	s, err := NewSimulation(cfg, alg)
	if err != nil {
		t.Fatal(err)
	}
	if p := parityPlan(t, cell); p != nil {
		if err := s.SetFaults(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetController(parityController(t, cell)); err != nil {
		t.Fatal(err)
	}
	var run driverRun
	for r := 0; r < cfg.Rounds; r++ {
		res, err := s.Step()
		if err != nil {
			t.Fatalf("Simulation round %d: %v", r, err)
		}
		run.answers = append(run.answers, res.Quantile)
		if res.Reinit {
			run.reinits++
		}
	}
	s.FinishTrace()
	run.decisions = s.AdaptDecisions()
	return run
}

func runServed(t *testing.T, cfg Config, alg Algorithm, cell parityCell) driverRun {
	t.Helper()
	srv := NewServer(ServerConfig{Workers: 1})
	if err := srv.AddFleet("fleet", cfg); err != nil {
		t.Fatal(err)
	}
	// The engine keys a single run's decisions by the algorithm's name.
	id, err := srv.Register(QuerySpec{Fleet: "fleet", Algorithm: alg, Adapt: cell.policy,
		Observer: &Observer{Key: string(alg)}})
	if err != nil {
		t.Fatal(err)
	}
	updates, cancel, err := srv.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var run driverRun
	for r := 0; r < cfg.Rounds; r++ {
		srv.Advance()
		u := <-updates
		if u.Failed != "" {
			t.Fatalf("served query round %d: %s", r, u.Failed)
		}
		run.answers = append(run.answers, u.Quantile)
		if u.Reinit {
			run.reinits++
		}
		run.decisions = append(run.decisions, u.Adapts...)
	}
	// The decisions taken on the last round's data act on, and are
	// published with, the next round, like the ones the engine and
	// Simulation flush at the end of their runs.
	srv.Advance()
	run.decisions = append(run.decisions, (<-updates).Adapts...)
	return run
}

// parityConfig is a connected 60-node cell.
func parityConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 60
	cfg.RadioRange = 45
	cfg.Rounds = parityRounds
	cfg.Runs = 1
	cfg.Seed = 7
	cfg.Dataset.Universe = 1 << 12
	return cfg
}

// TestSimulationStepError: a Step error is a desynchronization to
// recover from only under loss or faults. On a lossless, fault-free
// simulation Step returns it; under loss the round replays Init.
func TestSimulationStepError(t *testing.T) {
	newSim := func(loss float64) *Simulation {
		cfg := parityConfig()
		cfg.LossProb = loss
		s, err := NewSimulation(cfg, IQ)
		if err != nil {
			t.Fatal(err)
		}
		s.drv = protocol.NewDriver(s.rt, &simtest.StepFailer{FailAt: 3}, s.k)
		return s
	}

	s := newSim(0)
	for r := 0; r < 3; r++ {
		if _, err := s.Step(); err != nil {
			t.Fatalf("lossless round %d: %v", r, err)
		}
	}
	if _, err := s.Step(); err == nil || !strings.Contains(err.Error(), "failer round 3") {
		t.Fatalf("lossless round 3: err = %v, want the step error", err)
	}

	s = newSim(0.3)
	for r := 0; r < 6; r++ {
		res, err := s.Step()
		if err != nil {
			t.Fatalf("lossy round %d: %v", r, err)
		}
		if res.Reinit != (r == 3) {
			t.Errorf("lossy round %d: Reinit = %v", r, res.Reinit)
		}
	}
}
