GO ?= go
FUZZTIME ?= 5s
# The staticcheck release `make check` enforces when the binary is
# installed; install with
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
STATICCHECK_VERSION ?= 2025.1

.PHONY: help build test check bench bench-json bench-diff race vet fmt fuzz-smoke allocs oracle trace-guard telemetry alert series-guard prof prof-guard chaos serve scenario slo slo-guard adapt adapt-guard staticcheck

# help lists the targets; keep the `##` summaries next to the targets
# they describe.
help:
	@echo "wsnq targets:"
	@echo "  build       compile every package and tool"
	@echo "  test        run the full test suite"
	@echo "  check       the merge gate: vet + staticcheck + race + allocs + oracle + telemetry + alert + prof + chaos + serve + scenario + slo + adapt + fuzz-smoke"
	@echo "  vet         static analysis"
	@echo "  race        full suite under the race detector"
	@echo "  allocs      round-path memory contract: zero-alloc convergecast, no loss"
	@echo "              sampler on lossless runtimes, no recycled buffer in results"
	@echo "  oracle      flight-recorder collectors + invariant oracle suite"
	@echo "  telemetry   registry race test and snapshot-determinism test under -race"
	@echo "  alert       series ring race-hammer and alert rule-engine determinism"
	@echo "  chaos       seeded crash+burst fault smoke of HBC and IQ under -race"
	@echo "  serve       query-service gate: registry race hammer + seeded 1,000-query load smoke"
	@echo "  scenario    golden-scenario gate: DSL round-trips, pinned replay digests,"
	@echo "              live-vs-replay differential, replay speedup, fleet boot"
	@echo "  slo         SLO gate: spec grammar round-trips, budget-arithmetic"
	@echo "              goldens, serve /slo surface, and the live-vs-replay"
	@echo "              budget-trajectory differential"
	@echo "  slo-guard   per-round SLO evaluation overhead vs the 2% budget (idle machine)"
	@echo "  adapt       closed-loop adaptation gate: policy grammar round-trips,"
	@echo "              controller hysteresis/cooldown determinism, the pinned"
	@echo "              golden adaptive study, cross-driver decision parity,"
	@echo "              and the adapt-clause scenario goldens"
	@echo "  adapt-guard per-round policy evaluation overhead vs the 2% budget (idle machine)"
	@echo "  prof        profiling gate: attribution unit suite, golden attribution"
	@echo "              snapshot, /profilez + pprof endpoint coverage, and the"
	@echo "              allocation-ceiling regression guard"
	@echo "  fuzz-smoke  short fresh-input budget for every fuzz target"
	@echo "  trace-guard disabled-tracer overhead vs the 2% budget (idle machine)"
	@echo "  series-guard series-ingest overhead vs the 2% budget (idle machine)"
	@echo "  prof-guard  phase-attribution overhead vs the 2% budget (idle machine)"
	@echo "  bench       run all Go benchmarks with -benchmem"
	@echo "  bench-json  measure tracked hot paths into BENCH_<date>.json; the"
	@echo "              regression guard (TestBenchRegressionGuard) diffs the"
	@echo "              newest two sessions and fails on >15% hot-path slowdown"
	@echo "              or a broken allocs/op ceiling"
	@echo "  bench-diff  benchstat-style delta table between the two newest"
	@echo "              committed BENCH_*.json sessions"
	@echo "  fmt         gofmt the tree"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# allocs gates the round path's memory contract (DESIGN.md §4l): a warm
# convergecast with a non-allocating merge allocates nothing, a
# lossless runtime never builds its loss sampler, and what the
# collectors return survives the payload recycling of later
# convergecasts on the same runtime.
allocs:
	$(GO) test -count=1 -run '^(TestConvergecastAllocFree|TestLosslessRuntimeHasNoRNG)$$' -v ./internal/sim/
	$(GO) test -count=1 -run '^TestCollectorResultsSurviveRecycling$$' -v ./internal/protocol/

# oracle runs the flight-recorder suite: collectors, the invariant
# checker, and the differential tests against the centralized oracle.
oracle:
	$(GO) test ./internal/trace/...

# telemetry gates the metrics registry: the concurrent-hammer test must
# pass under the race detector and snapshots must encode
# deterministically.
telemetry:
	$(GO) test -race -run '^(TestRegistryConcurrent|TestSnapshotDeterminism)$$' -v ./internal/telemetry/

# alert gates the streaming-observability layer: the series ring must
# survive concurrent ingest/read hammering under the race detector, and
# the alert rule engine must produce byte-identical logs across runs.
alert:
	$(GO) test -race -run '^TestSeriesRingRace$$' -v ./internal/series/
	$(GO) test -run '^TestRuleEngineDeterminism$$' -v ./internal/alert/

# prof gates the profiling layer: the recorder/report unit suite, the
# benchfmt schema-v2 + diff-table suite, the telemetry exposition
# endpoints (/profilez, /metrics runtime gauges, /debug/pprof labels),
# the golden attribution snapshot of the 60-node lossy study, and the
# allocation-ceiling arithmetic behind the regression guard. The timing
# half of the layer (the ≤2% overhead budget) lives in prof-guard,
# which — like trace-guard and series-guard — needs an idle machine.
prof:
	$(GO) test -v ./internal/prof/
	$(GO) test -v ./internal/benchfmt/
	$(GO) test -short -run '^(TestProfilezEndpoint|TestMetricsPublishRuntime|TestDebugPprofProfile)$$' -v ./internal/telemetry/
	$(GO) test -count=1 -run '^(TestProfAttributionGolden|TestProfNamesLCLLSTopAllocPhase|TestProfResetAndReuse|TestBenchRegressionGuard|TestBenchGuardArithmetic)$$' -v .

# prof-guard measures phase attribution (pprof label switches plus the
# allocation-delta accounting) against the traced hot path and fails
# beyond the 2% budget. Timing sensitive — run on an idle machine.
prof-guard:
	PROF_GUARD=1 $(GO) test -count=1 -run '^TestProfOverheadGuard$$' -v .

# chaos is the robustness gate: the seeded crash+burst smoke of HBC
# and IQ through the engine, the public API, the oracle's fault mode,
# and the pinned golden recovery study — all under the race detector.
chaos:
	$(GO) test -race -run '^(TestEngineUnderFaults|TestEngineFaultDeterminism|TestEngineFaultPartition)$$' -v ./internal/experiment/
	$(GO) test -race -run '^TestDifferentialUnderFaults$$' -v ./internal/trace/oracle/
	$(GO) test -race -run '^(TestRunWithFaults|TestSimulationSetFaults|TestGoldenRecoveryStudy)$$' -v .

# serve gates the continuous query service: the registry's concurrent
# register/advance/subscribe hammer under the race detector, the
# HTTP-surface branch tests, and the seeded load smoke — 1,000 queries
# multiplexed over one shared 60-node deployment, asserting nonzero
# sustained throughput, zero dropped subscriber answers under quota,
# and engaged series downsampling.
serve:
	$(GO) test -race -run '^(TestServeHammer|TestHandlerBranches|TestSubscribeBackpressure)$$' -v ./internal/serve/
	$(GO) test -count=1 -run '^(TestServeDeterminism|TestServeLoadSmoke)$$' -v .

# scenario gates the golden scenarios: the DSL parser/printer
# round-trip suite, the committed recordings replaying to their pinned
# outcome digests, the live-vs-replay differential, the replay speedup
# floor, and the scenario-booted server fleet matching a standalone
# run. Regenerate recordings with WSNQ_REGEN=1 after an intentional
# behavior change.
scenario:
	$(GO) test -run '^Test' -v ./internal/scenario/
	$(GO) test -count=1 -run '^(TestGoldenScenarioReplays|TestScenarioLiveReplayDifferential|TestScenarioReplaySpeedup|TestScenarioServe|TestScenarioSimulationFaults)$$' -v .

# slo gates the SLO engine: the spec grammar and budget/burn-rate unit
# suite (including the pinned budget-arithmetic goldens), the serve
# layer's /slo surface and update stamping, and the differential test
# proving a live run and a replay of its recording produce identical
# budget trajectories and burn-rate transitions. The timing half (the
# ≤2% per-round overhead budget) lives in slo-guard.
slo:
	$(GO) test -v ./internal/slo/
	$(GO) test -race -run '^TestSLO' -v ./internal/serve/
	$(GO) test -count=1 -run '^(TestSLOBudgetGolden|TestSLOLiveReplayDifferential)$$' -v .

# slo-guard measures the serve step path with objectives attached
# against the plain step path and fails beyond the 2% budget. Timing
# sensitive — run on an idle machine.
slo-guard:
	SLO_GUARD=1 $(GO) test -count=1 -run '^TestSLOOverheadGuard$$' -v .

# adapt gates the closed-loop adaptation layer: the policy grammar and
# controller unit suite (round-trips, hysteresis, cooldowns, replay
# determinism), the pinned golden adaptive study — the controller must
# strictly beat the best static algorithm under the golden chaos plan —
# and the cross-driver parity tests proving the batch engine, the
# round-by-round Simulation, and the parallel grid all derive one
# decision log. The timing half (the ≤2% per-round overhead budget)
# lives in adapt-guard.
adapt:
	$(GO) test -v ./internal/adapt/
	$(GO) test -count=1 -run '^(TestGoldenAdaptiveStudy|TestAdaptDecisionsDeterministicAcrossParallelism|TestSimulationControllerMatchesEngine|TestControllerResetForReuse|TestControllerCanonicalString)$$' -v .

# adapt-guard measures the serve step path with a standing (never
# firing) policy set attached against the plain step path and fails
# beyond the 2% budget. Timing sensitive — run on an idle machine.
adapt-guard:
	ADAPT_GUARD=1 $(GO) test -count=1 -run '^TestAdaptOverheadGuard$$' -v .

# fuzz-smoke gives each fuzz target a short budget of fresh inputs on
# top of the committed corpus (go test -fuzz accepts one target at a
# time, hence one invocation per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFragmentRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzReassembleRobust$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramCodec$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzBucketsIndex$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/adapt/

# trace-guard measures the disabled flight recorder against the
# pre-instrumentation hot path and fails beyond the 2% budget. Timing
# sensitive — run on an idle machine.
trace-guard:
	TRACE_GUARD=1 $(GO) test -run '^TestTracerOverheadGuard$$' -v ./internal/sim/

# series-guard measures per-round series ingestion (sampling fast path
# plus the storm rule) against the traced hot path and fails beyond the
# 2% budget. Timing sensitive — run on an idle machine.
series-guard:
	SERIES_GUARD=1 $(GO) test -count=1 -run '^TestSeriesIngestOverheadGuard$$' -v .

# staticcheck is enforced when the pinned binary is installed: any
# finding fails the gate. Machines without it skip with an install
# hint, so the gate stays dependency-free; install the pinned release
# to run what CI runs.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || exit 1; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# check is the gate every change must pass: static analysis (vet
# always, staticcheck when installed — see the staticcheck target),
# the full suite under the race detector (the parallel engine makes
# this the interesting configuration), the round path's allocation
# gate, the oracle suite, the telemetry
# gate, the observability gate, the profiling gate, the chaos gate,
# the query-service gate, the golden-scenario gate, the SLO gate, the
# closed-loop adaptation gate, and a fuzz smoke run.
check: vet staticcheck race allocs oracle telemetry alert prof chaos serve scenario slo adapt fuzz-smoke

bench:
	$(GO) test -bench . -benchmem .

# bench-json appends one session to the perf trajectory: commit the
# produced BENCH_<date>.json and TestBenchRegressionGuard will diff it
# against the previous session.
bench-json: build
	$(GO) run ./cmd/wsnq-bench -json

# bench-diff prints the benchstat-style per-path delta table between
# the two newest committed sessions — the table behind any regression
# guard failure.
bench-diff:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "need two BENCH_*.json sessions to diff"; exit 1; fi; \
	$(GO) run ./cmd/wsnq-bench -diff $$1 $$2

fmt:
	gofmt -l -w .
