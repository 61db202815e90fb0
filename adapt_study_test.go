package wsnq_test

import (
	"context"
	"fmt"
	"testing"

	"wsnq"
	"wsnq/internal/experiment"
)

// adaptStudyConfig is the shared chaos deployment of the closed-loop
// study: the recovery-study topology (60 nodes, seed 11) under
// sustained 30% per-hop convergecast loss, with the highest-load relay
// crashing mid-run. Under that loss rate, retry-exhausted subtree
// payloads are the dominant source of degraded answers outside the
// crash window, and every payload on the air is a degradation risk —
// the lever the controller's Ξ actions pull.
func adaptStudyConfig(t *testing.T) (wsnq.Config, *wsnq.FaultPlan) {
	t.Helper()
	cfg := wsnq.Config{
		Nodes: 60, Area: 200, RadioRange: 45,
		Phi: 0.5, Rounds: 60, Runs: 1, Seed: 11,
		LossProb: 0.3,
		Dataset:  wsnq.Dataset{Kind: wsnq.SyntheticData, Universe: 1 << 12},
	}

	// The highest-load relay: the non-leaf node whose subtree carries
	// the most measurements (ties broken by id for reproducibility).
	// The deployment is rebuilt from the same internal defaults the
	// public Config maps onto, so node ids line up with the study runs.
	icfg := experiment.Default()
	icfg.Nodes = cfg.Nodes
	icfg.RadioRange = cfg.RadioRange
	icfg.Rounds = cfg.Rounds
	icfg.Runs = cfg.Runs
	icfg.Seed = cfg.Seed
	icfg.LossProb = cfg.LossProb
	icfg.Dataset.Synthetic.Universe = 1 << 12
	dep, err := experiment.BuildDeployment(icfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	top := dep.Topology()
	size := make([]int, top.N())
	for _, u := range top.PostOrder {
		size[u] = 1
		for _, c := range top.Children[u] {
			size[u] += size[c]
		}
	}
	relay := -1
	for u := 0; u < top.N(); u++ {
		if len(top.Children[u]) == 0 {
			continue
		}
		if relay == -1 || size[u] > size[relay] {
			relay = u
		}
	}
	if relay < 0 {
		t.Fatal("no relay in the deployment")
	}
	plan, err := wsnq.ParseFaultPlan(fmt.Sprintf("crash@15-27:n%d", relay))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, plan
}

// adaptStudyPolicies is the golden closed-loop policy set: the relay
// crash surfaces as orphaned subtrees and is answered with a proactive
// reroot away from the hottest relay, and the sustained rank-error
// excursions the lossy regime produces are answered by narrowing IQ's
// Ξ interval — fewer raw values ride the validation convergecast, so
// fewer payloads are exposed to retry exhaustion and the hotspot
// drains slower.
const adaptStudyPolicies = "on excursion(warn) do narrow 2 cooldown 16; " +
	"on orphan(warn) do reroot cooldown 30"

// TestGoldenAdaptiveStudy pins the closed-loop controller's value
// proposition: under the golden chaos plan (lossy links + relay crash),
// IQ driven by the controller must answer with strictly fewer degraded
// rounds than the best static algorithm and outlive static IQ — and
// the decision log must stay byte-identical run to run.
func TestGoldenAdaptiveStudy(t *testing.T) {
	cfg, plan := adaptStudyConfig(t)
	ctx := context.Background()

	static, err := wsnq.CompareContext(ctx, cfg, []wsnq.Algorithm{wsnq.IQ, wsnq.HBC},
		wsnq.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	iq, hbc := static[0].Metrics, static[1].Metrics

	ctl, err := wsnq.NewController(adaptStudyPolicies)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := wsnq.CompareContext(ctx, cfg, []wsnq.Algorithm{wsnq.IQ},
		wsnq.WithFaults(plan), wsnq.WithObserver(&wsnq.Observer{Adapt: ctl}))
	if err != nil {
		t.Fatal(err)
	}
	ad := adaptive[0].Metrics

	t.Logf("degraded: static IQ %d, static HBC %d, adaptive %d (of %d rounds)",
		iq.DegradedRounds, hbc.DegradedRounds, ad.DegradedRounds, ad.Rounds)
	t.Logf("lifetime: static IQ %.0f, static HBC %.0f, adaptive %.0f",
		iq.LifetimeRounds, hbc.LifetimeRounds, ad.LifetimeRounds)

	best := iq.DegradedRounds
	if hbc.DegradedRounds < best {
		best = hbc.DegradedRounds
	}
	if ad.DegradedRounds >= best {
		t.Errorf("adaptive run answered %d degraded rounds, static best is %d — the controller must strictly improve",
			ad.DegradedRounds, best)
	}
	if ad.LifetimeRounds <= iq.LifetimeRounds {
		t.Errorf("adaptive lifetime %.0f rounds <= static IQ's %.0f — narrowing must cut the hotspot drain",
			ad.LifetimeRounds, iq.LifetimeRounds)
	}

	// The decision log is part of the golden contract: byte-pinned, so
	// any drift in the controller, the alert presets, the series
	// pipeline, or the simulator shows up here first.
	want := []string{
		"IQ@15 orphan(warn) -> reroot",
		"IQ@34 excursion(warn) -> narrow 2",
		"IQ@50 excursion(crit) -> narrow 2",
	}
	var got []string
	for _, d := range ctl.Decisions() {
		got = append(got, d.String())
	}
	if len(got) != len(want) {
		t.Fatalf("decision log changed:\n got  %q\nwant %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decision %d = %q, want %q", i, got[i], want[i])
		}
	}
	if ad.Adapts != len(want) {
		t.Errorf("metrics report %d applied actions, want %d", ad.Adapts, len(want))
	}
}
