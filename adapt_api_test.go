package wsnq_test

import (
	"context"
	"reflect"
	"testing"

	"wsnq"
)

// adaptGridConfig is a small multi-run grid under loss and a crash,
// busy enough that closed-loop policies fire in every run.
func adaptGridConfig(t *testing.T) (wsnq.Config, *wsnq.FaultPlan) {
	t.Helper()
	cfg := wsnq.Config{
		Nodes: 40, Area: 140, RadioRange: 45,
		Phi: 0.5, Rounds: 24, Runs: 3, Seed: 7,
		LossProb: 0.25,
		Dataset:  wsnq.Dataset{Kind: wsnq.SyntheticData, Universe: 1 << 12},
	}
	plan, err := wsnq.ParseFaultPlan("crash@8-16:n5")
	if err != nil {
		t.Fatal(err)
	}
	return cfg, plan
}

const adaptGridPolicies = "on burnrate(warn) do narrow 2 cooldown 6; " +
	"on orphan(warn) do reroot cooldown 10"

// TestAdaptDecisionsDeterministicAcrossParallelism: the decision log of
// an adaptive study is a pure function of the grid — running the same
// comparison on one worker and on eight must produce bit-identical
// decisions and metrics.
func TestAdaptDecisionsDeterministicAcrossParallelism(t *testing.T) {
	cfg, plan := adaptGridConfig(t)
	ctx := context.Background()
	algs := []wsnq.Algorithm{wsnq.IQ, wsnq.Adaptive}

	run := func(par int) ([]wsnq.AdaptDecision, wsnq.CompareResults) {
		ctl, err := wsnq.NewController(adaptGridPolicies)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wsnq.CompareContext(ctx, cfg, algs,
			wsnq.WithFaults(plan), wsnq.WithObserver(&wsnq.Observer{Adapt: ctl}), wsnq.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return ctl.Decisions(), res
	}

	seqDs, seqRes := run(1)
	parDs, parRes := run(8)

	if len(seqDs) == 0 {
		t.Fatal("no decisions fired; the grid no longer exercises the controller")
	}
	if !reflect.DeepEqual(seqDs, parDs) {
		t.Errorf("decision logs differ across parallelism:\n seq %v\n par %v", seqDs, parDs)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("metrics differ across parallelism:\n seq %+v\n par %+v", seqRes, parRes)
	}
}

// TestSimulationControllerMatchesEngine: a round-by-round Simulation
// with SetController must derive exactly the decision log the batch
// engine derives for the same single-run configuration — the two
// drivers share one controller implementation and one point stream.
func TestSimulationControllerMatchesEngine(t *testing.T) {
	cfg, plan := adaptGridConfig(t)
	cfg.Runs = 1

	ctl, err := wsnq.NewController(adaptGridPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wsnq.RunContext(context.Background(), cfg, wsnq.IQ,
		wsnq.WithFaults(plan), wsnq.WithObserver(&wsnq.Observer{Adapt: ctl})); err != nil {
		t.Fatal(err)
	}
	engineDs := ctl.Decisions()
	if len(engineDs) == 0 {
		t.Fatal("engine run fired no decisions")
	}

	sim, err := wsnq.NewSimulation(cfg, wsnq.IQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	simCtl, err := wsnq.NewController(adaptGridPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetController(simCtl); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < cfg.Rounds; round++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sim.FinishTrace()

	if got := sim.AdaptDecisions(); !reflect.DeepEqual(got, engineDs) {
		t.Errorf("simulation decisions differ from engine:\n sim    %v\n engine %v", got, engineDs)
	}
}

// TestControllerResetForReuse: Reset must clear the collected logs so a
// controller can be reused without mixing studies.
func TestControllerResetForReuse(t *testing.T) {
	cfg, plan := adaptGridConfig(t)
	cfg.Runs = 1
	ctl, err := wsnq.NewController(adaptGridPolicies)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []wsnq.AdaptDecision {
		if _, err := wsnq.RunContext(context.Background(), cfg, wsnq.IQ,
			wsnq.WithFaults(plan), wsnq.WithObserver(&wsnq.Observer{Adapt: ctl})); err != nil {
			t.Fatal(err)
		}
		return ctl.Decisions()
	}
	first := run()
	ctl.Reset()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reused controller after Reset diverged:\n first  %v\n second %v", first, second)
	}
}

// TestControllerCanonicalString: the controller's String is the
// canonical policy grammar — parsing it back reproduces the policy set.
func TestControllerCanonicalString(t *testing.T) {
	ctl, err := wsnq.NewController("  on storm(crit) do  switch iq hold 2 ;  on burnrate do widen 1.5 cooldown 12  ")
	if err != nil {
		t.Fatal(err)
	}
	want := "on storm(crit) do switch iq hold 2 cooldown 8; on burnrate(warn) do widen 1.5 hold 1 cooldown 12"
	if got := ctl.String(); got != want {
		t.Errorf("canonical form = %q, want %q", got, want)
	}
	again, err := wsnq.NewController(ctl.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != ctl.String() {
		t.Errorf("String not stable: %q then %q", ctl.String(), again.String())
	}
}
