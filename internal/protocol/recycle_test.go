package protocol

import (
	"math/rand"
	"reflect"
	"testing"

	"wsnq/internal/sim"
)

// TestCollectorResultsSurviveRecycling guards the payload recycling of
// the collectors: what CollectValuesIn, CollectHistogram, RunValidation
// (its Attached values) and a recycled SmallestK return must be the
// caller's own memory, unchanged by the next convergecasts on the same
// runtime and the next collections of the same SmallestK — within the
// round and after the next one starts.
func TestCollectorResultsSurviveRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rt := newRuntime(t, randomSeries(rng, 150, 3, 1000), 5)
	bu, err := NewBuckets(0, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	attachAll := ValidationSpec{
		Lb: 500, Ub: 501,
		Prev:   func(n int) int { return 0 },
		Hints:  HintTwoValues,
		Attach: func(n, v int) bool { return v >= 200 && v <= 700 },
	}

	vals := CollectValuesIn(rt, 100, 800)
	hist := CollectHistogram(rt, bu)
	attached := RunValidation(rt, attachAll).Attached
	var tag SmallestK
	smallest := tag.Collect(rt, 40)
	if len(vals) == 0 || len(attached) == 0 || len(smallest) != 40 {
		t.Fatal("fixture collected nothing")
	}
	wantVals := append([]int(nil), vals...)
	wantHist := append([]int(nil), hist...)
	wantAttached := append([]int(nil), attached...)
	wantSmallest := append([]int(nil), smallest...)

	churn := func() {
		CollectValuesIn(rt, 0, 999)
		CollectHistogram(rt, bu)
		RunValidation(rt, attachAll)
		CollectSmallestK(rt, 40)
		tag.Collect(rt, 40)
		tag.Collect(rt, 150)
		CollectExtreme(rt, 0, 999, 10, true)
		rt.Convergecast(func(n int, children []sim.Payload) sim.Payload {
			return NewValues([]int{-1, -1, -1}, rt.Sizes(), 0)
		})
	}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(vals, wantVals) {
			t.Errorf("%s: CollectValuesIn result changed", when)
		}
		if !reflect.DeepEqual(hist, wantHist) {
			t.Errorf("%s: CollectHistogram result changed", when)
		}
		if !reflect.DeepEqual(attached, wantAttached) {
			t.Errorf("%s: RunValidation Attached changed", when)
		}
		if !reflect.DeepEqual(smallest, wantSmallest) {
			t.Errorf("%s: SmallestK.Collect result changed", when)
		}
	}
	churn()
	check("same round")
	rt.AdvanceRound()
	churn()
	check("next round")
}
