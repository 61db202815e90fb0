// Package guard is the one harness behind the repository's overhead
// guards. A guard pairs a baseline with a treatment that adds exactly
// one layer — the disabled flight recorder's nil checks, series
// ingestion, phase attribution, SLO evaluation, adaptation policies —
// and bounds what the treatment costs over the baseline.
//
// Timing runs only with WSNQ_GUARD=1 (`make guard`), on an idle
// machine: wall-clock ratios are meaningless on a loaded one. Without
// it a guard is a smoke test that steps each arm a few times and fails
// on an error, so a guard's setup cannot rot while its timing half
// goes unrun.
package guard

import (
	"os"
	"testing"
)

// reps is how many times each arm is measured.
const reps = 10

// smokeSteps is how many operations each arm runs without WSNQ_GUARD.
const smokeSteps = 3

// Arm is one side of a guard pair.
type Arm struct {
	// Name labels the arm in the guard's report.
	Name string
	// Attach, if non-nil, switches a fixture both arms share to this
	// arm; it runs before every measurement of the arm.
	Attach func()
	// Step is one measured operation.
	Step func() error
}

// Check runs one guard pair. With WSNQ_GUARD=1 it measures base and
// treat ten times each, interleaved rep by rep so drift hits both
// sides alike, keeps each side's minimum (the fastest run is the
// closest estimate of the true cost), and fails t when treat costs
// more than budget (a fraction) over base. Otherwise it only
// smoke-steps both arms.
func Check(t *testing.T, budget float64, base, treat Arm) {
	t.Helper()
	arms := [2]Arm{base, treat}
	if os.Getenv("WSNQ_GUARD") != "1" {
		for _, a := range arms {
			if a.Attach != nil {
				a.Attach()
			}
			for i := 0; i < smokeSteps; i++ {
				if err := a.Step(); err != nil {
					t.Fatalf("%s: %v", a.Name, err)
				}
			}
		}
		return
	}
	var best [2]float64
	for rep := 0; rep < reps; rep++ {
		// Alternate which side goes first, so neither is always the one
		// measured right after the other.
		for i := range arms {
			side := (i + rep) % 2
			if ns := measure(t, arms[side]); rep == 0 || ns < best[side] {
				best[side] = ns
			}
		}
	}
	overhead := best[1]/best[0] - 1
	t.Logf("%s %.0f ns/op, %s %.0f ns/op, overhead %+.2f%% (budget %.0f%%)",
		base.Name, best[0], treat.Name, best[1], 100*overhead, 100*budget)
	if overhead > budget {
		t.Errorf("%s costs %.2f%% over %s (> %.0f%% budget)", treat.Name, 100*overhead, base.Name, 100*budget)
	}
}

// measure benchmarks one arm and returns its ns/op.
func measure(t *testing.T, a Arm) float64 {
	t.Helper()
	if a.Attach != nil {
		a.Attach()
	}
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = a.Step()
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return float64(r.NsPerOp())
}
