package protocol

import (
	"fmt"

	"wsnq/internal/sim"
)

// Controller is a closed-loop controller a Driver actuates on round
// boundaries (adapt.Controller satisfies it). Apply drains the actions
// queued on the previous round's data and returns how many took effect.
type Controller interface{ Apply() int }

// Driver runs one continuous query on a runtime round by round. It is
// the only implementation of the recovery contract that every execution
// path — the experiment engine, Simulation, served queries and the test
// harnesses — shares:
//
//   - The first Round runs Init reliably: iid loss is set to 0 and link
//     faults are suspended (SetFaultReliable), both restored on every
//     path. Crashes stay in force.
//   - Every later Round advances the runtime, then applies the
//     controller (if any), then either replays a reliable Init when the
//     fault layer flags a tree repair (ConsumeReinit), or runs Step. A
//     Step error replays a reliable Init when the runtime is lossy or
//     carries faults — loss and faults can desynchronize a protocol —
//     and is returned otherwise.
//   - Every successful Round records its answer with TraceDecision.
//
// A replayed Init reports reinit = true. Its traffic is accounted like
// any other round's. Errors name the algorithm and the round: "IQ
// init", "IQ round 3", "IQ reinit round 3", "IQ repair reinit round 3".
type Driver struct {
	rt      *sim.Runtime
	alg     Algorithm
	k       int
	ctl     Controller
	started bool
}

// NewDriver returns a driver that runs alg for rank k on rt. The first
// Round is the initialization round.
func NewDriver(rt *sim.Runtime, alg Algorithm, k int) *Driver {
	return &Driver{rt: rt, alg: alg, k: k}
}

// SetController attaches the closed-loop controller applied after every
// AdvanceRound; nil detaches. An action decided on round t's data thus
// acts before round t+1 steps, and a proactive reroot's repair flag is
// consumed by the same round's reinit check.
func (d *Driver) SetController(c Controller) { d.ctl = c }

// Round executes the next round and returns its answer q and whether
// the round replayed initialization. An error stops the run.
func (d *Driver) Round() (q int, reinit bool, err error) {
	if q, reinit, err = d.round(); err != nil {
		return 0, false, err
	}
	d.rt.TraceDecision(d.k, q)
	return q, reinit, nil
}

func (d *Driver) round() (int, bool, error) {
	rt := d.rt
	if !d.started {
		d.started = true
		q, err := d.init()
		if err != nil {
			return 0, false, fmt.Errorf("%s init: %w", d.alg.Name(), err)
		}
		return q, false, nil
	}
	rt.AdvanceRound()
	if d.ctl != nil {
		d.ctl.Apply()
	}
	if rt.ConsumeReinit() {
		// Tree repair (or crash recovery) moved nodes; the protocol
		// state no longer matches the topology.
		q, err := d.init()
		if err != nil {
			return 0, true, fmt.Errorf("%s repair reinit round %d: %w", d.alg.Name(), rt.Round(), err)
		}
		return q, true, nil
	}
	q, err := d.alg.Step(rt)
	if err == nil {
		return q, false, nil
	}
	if rt.LossProb() == 0 && !rt.FaultsAttached() {
		return 0, false, fmt.Errorf("%s round %d: %w", d.alg.Name(), rt.Round(), err)
	}
	if q, err = d.init(); err != nil {
		return 0, true, fmt.Errorf("%s reinit round %d: %w", d.alg.Name(), rt.Round(), err)
	}
	return q, true, nil
}

// init runs the algorithm's initialization over reliable links.
func (d *Driver) init() (int, error) {
	if p := d.rt.LossProb(); p > 0 {
		_ = d.rt.SetLossProb(0)
		defer func() { _ = d.rt.SetLossProb(p) }()
	}
	d.rt.SetFaultReliable(true)
	defer d.rt.SetFaultReliable(false)
	return d.alg.Init(d.rt, d.k)
}
