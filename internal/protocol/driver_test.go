package protocol_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"wsnq/internal/fault"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/simtest"
	"wsnq/internal/trace"
)

// scripted is a fake Algorithm that answers with the oracle, fails
// Step on the rounds in stepFails and Init on the calls (counted from
// 1) in initFails, and logs every call with the loss it ran under.
type scripted struct {
	k         int
	stepFails map[int]bool
	initFails map[int]bool
	inits     int
	log       *[]string
	initLoss  []float64
}

func (a *scripted) Name() string { return "fake" }

func (a *scripted) Init(rt *sim.Runtime, k int) (int, error) {
	a.k = k
	a.inits++
	a.initLoss = append(a.initLoss, rt.LossProb())
	*a.log = append(*a.log, "init")
	if a.initFails[a.inits] {
		return 0, errors.New("init failed")
	}
	return rt.Oracle(k), nil
}

func (a *scripted) Step(rt *sim.Runtime) (int, error) {
	*a.log = append(*a.log, "step")
	if a.stepFails[rt.Round()] {
		return 0, errors.New("desynchronized")
	}
	return rt.Oracle(a.k), nil
}

// logController records each Apply in the shared call log.
type logController struct{ log *[]string }

func (c logController) Apply() int {
	*c.log = append(*c.log, "apply")
	return 0
}

// driverRig is a 4-node chain runtime with a recorder, a scripted
// algorithm and a driver over them.
type driverRig struct {
	rt  *sim.Runtime
	alg *scripted
	rec *trace.Recorder
	drv *protocol.Driver
	log []string
}

func newDriverRig(t *testing.T, loss float64) *driverRig {
	t.Helper()
	series := [][]int{{5, 6, 7, 8, 9, 10}, {1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}, {3, 3, 3, 3, 3, 3}}
	r := &driverRig{rt: simtest.ChainRuntime(t, series, loss, 1), rec: trace.NewRecorder()}
	r.alg = &scripted{stepFails: map[int]bool{}, initFails: map[int]bool{}, log: &r.log}
	r.rt.SetTrace(r.rec)
	r.drv = protocol.NewDriver(r.rt, r.alg, 2)
	return r
}

// decisions counts the traced KindDecision events.
func (r *driverRig) decisions() int {
	n := 0
	for _, e := range r.rec.Events() {
		if e.Kind == trace.KindDecision {
			n++
		}
	}
	return n
}

func TestDriverReturnsStepErrorWithoutLossOrFaults(t *testing.T) {
	r := newDriverRig(t, 0)
	r.alg.stepFails[2] = true
	for round := 0; round < 2; round++ {
		if _, reinit, err := r.drv.Round(); err != nil || reinit {
			t.Fatalf("round %d: reinit %v, err %v", round, reinit, err)
		}
	}
	_, _, err := r.drv.Round()
	if err == nil || !strings.Contains(err.Error(), "fake round 2: desynchronized") {
		t.Fatalf("round 2: err = %v, want the step error", err)
	}
	if r.alg.inits != 1 {
		t.Errorf("%d Init calls, want 1: nothing may be reinitialized", r.alg.inits)
	}
	if got := r.decisions(); got != 2 {
		t.Errorf("%d decisions traced, want one per successful round (2)", got)
	}
}

func TestDriverInitRunsWithoutLoss(t *testing.T) {
	const loss = 0.3
	r := newDriverRig(t, loss)
	r.alg.stepFails[2] = true
	for round := 0; round < 4; round++ {
		_, reinit, err := r.drv.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if reinit != (round == 2) {
			t.Errorf("round %d: reinit = %v", round, reinit)
		}
		if p := r.rt.LossProb(); p != loss {
			t.Errorf("round %d: loss %v after the round, want %v restored", round, p, loss)
		}
	}
	if want := []float64{0, 0}; !reflect.DeepEqual(r.alg.initLoss, want) {
		t.Errorf("Init ran under loss %v, want %v", r.alg.initLoss, want)
	}
	if got := r.decisions(); got != 4 {
		t.Errorf("%d decisions traced, want 4", got)
	}

	// A failing Init, first or replayed, restores the loss too.
	r = newDriverRig(t, loss)
	r.alg.initFails[1] = true
	if _, _, err := r.drv.Round(); err == nil || !strings.Contains(err.Error(), "fake init") {
		t.Fatalf("first Init: err = %v, want the init error", err)
	}
	if p := r.rt.LossProb(); p != loss {
		t.Errorf("loss %v after a failed Init, want %v", p, loss)
	}
	r = newDriverRig(t, loss)
	r.alg.stepFails[1], r.alg.initFails[2] = true, true
	if _, _, err := r.drv.Round(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.drv.Round(); err == nil || !strings.Contains(err.Error(), "fake reinit round 1") {
		t.Fatalf("replayed Init: err = %v, want the reinit error", err)
	}
	if p := r.rt.LossProb(); p != loss {
		t.Errorf("loss %v after a failed replay, want %v", p, loss)
	}
	if got := r.decisions(); got != 1 {
		t.Errorf("%d decisions traced, want 1", got)
	}
}

func TestDriverAppliesControllerFirst(t *testing.T) {
	r := newDriverRig(t, 0.3)
	r.alg.stepFails[2] = true
	r.drv.SetController(logController{&r.log})
	for round := 0; round < 4; round++ {
		if _, _, err := r.drv.Round(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	want := []string{
		"init",          // round 0: no Apply before initialization
		"apply", "step", // round 1
		"apply", "step", "init", // round 2: the failed Step is replayed
		"apply", "step", // round 3
	}
	if !reflect.DeepEqual(r.log, want) {
		t.Errorf("call order %v, want %v", r.log, want)
	}
}

func TestDriverPendingReinitSkipsStep(t *testing.T) {
	r := newDriverRig(t, 0)
	// Node 1 relays nodes 2 and 3; its recovery at round 4 leaves the
	// protocol state stale, which ConsumeReinit reports.
	plan, err := fault.Parse("crash@2-4:n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.SetFaults(plan, 1, sim.DefaultARQ()); err != nil {
		t.Fatal(err)
	}
	r.drv.SetController(logController{&r.log})
	var reinits []bool
	for round := 0; round < 6; round++ {
		_, reinit, err := r.drv.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		reinits = append(reinits, reinit)
	}
	if want := []bool{false, false, false, false, true, false}; !reflect.DeepEqual(reinits, want) {
		t.Errorf("reinit flags %v, want %v", reinits, want)
	}
	want := []string{"init", "apply", "step", "apply", "step", "apply", "step", "apply", "init", "apply", "step"}
	if !reflect.DeepEqual(r.log, want) {
		t.Errorf("call order %v, want %v", r.log, want)
	}
	if got := r.decisions(); got != 6 {
		t.Errorf("%d decisions traced, want 6", got)
	}
}
