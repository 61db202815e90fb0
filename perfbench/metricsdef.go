package main

// endToEnd and perLayer declare every metric of the result line, with
// its unit; BENCHMARK.json lists the same names and units, which
// TestDeclaredMetrics checks. Every workload reports every one of them:
// a timed run (-trace 0) all of endToEnd, a traced run (-trace 1) all
// of perLayer, and mainErr refuses to print a result line that misses
// one. Numbers only one workload has (serve's read latency and Advance
// tail, the taps, the scenario stream, the serve registry) are printed
// on standard error instead; README.md lists them.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"node_rounds_per_s": "1/s",
	"call_ms_p50":       "ms",
	"peak_rss_mb":       "MB",
}

var perLayer = map[string]string{
	"experiment.jobs":       "count",
	"experiment.job_ms_p50": "ms",

	"deploy.build_ms": "ms",

	"sim.convergecast_us":      "us",
	"sim.convergecast_allocs":  "count",
	"sim.broadcast_us":         "us",
	"sim.frames_per_round":     "count/round",
	"sim.payloads_per_round":   "count/round",
	"sim.bits_per_round":       "bit/round",
	"sim.broadcasts_per_round": "count/round",

	"fault.retries_per_round":    "count/round",
	"fault.ack_frames_per_round": "count/round",
	"fault.reinits":              "count",
	"fault.repairs":              "count",
	"fault.degraded_rounds":      "count",
	"fault.delivery_frac":        "frac",

	"energy.charge_ns":        "ns",
	"energy.debits_per_round": "count/round",

	"phase.init_us_per_round":       "us/round",
	"phase.validation_us_per_round": "us/round",
	"phase.refinement_us_per_round": "us/round",
	"phase.filter_us_per_round":     "us/round",

	"protocol.allocs_per_round":    "count/round",
	"protocol.hist_encode_ns":      "ns",
	"protocol.hist_decode_ns":      "ns",
	"protocol.refines_per_round":   "count/round",
	"protocol.validation_hit_frac": "frac",

	"go.allocs_per_node_round":  "count",
	"go.allocs_per_answer":      "count",
	"go.alloc_bytes_per_answer": "B",
	"go.gc_cycles":              "count",
	"go.gc_pause_ms":            "ms",

	"trace.overhead_ms": "ms",
}

// aggregatePhases are the algorithm phases every workload's algorithms
// run; phase.<phase>_us_per_round sums them over the algorithms. TAG's
// "collect" phase, which only fig7-sweep and serve-fleet run, is among
// the per-algorithm numbers on standard error.
var aggregatePhases = []string{"init", "validation", "refinement", "filter"}
