// Command perfbench is the end-to-end benchmark of the wsnq module:
// three workloads driven through the exported wsnq API — the paper's
// Figure 7 sweep, a served query fleet, and a lossy scenario recorded
// and replayed — each checked for correct outputs. A traced run
// (-trace 1) adds per-layer numbers from isolated calls into the
// internal packages and a table of layer self times. See README.md.
//
// Usage:
//
//	bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are pinned (digest.go).
const defaultSeed = 1

// maxProcs bounds the benchmark's own parallelism: engine workers and
// serve workers never exceed the CPUs the process may use.
func maxProcs() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	if n > 2 {
		// The recorded numbers come from a 2-CPU machine; more workers
		// would make runs on bigger machines incomparable.
		n = 2
	}
	return n
}

type workload struct {
	name string
	run  func(ctx context.Context, seed int64, seconds float64, tr *traced) (*report, error)
}

var workloads = []workload{
	{"fig7-sweep", runFig7},
	{"serve-fleet", runServe},
	{"lossy-record-replay", runReplay},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: fig7-sweep, serve-fleet or lossy-record-replay")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	spanDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var tr *traced
	if *trace == 1 {
		tr = newTraced()
	}
	rep, err := w.run(context.Background(), *seed, *seconds, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, f)
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	declared, extras := endToEnd, rep.extras
	if tr != nil {
		out.Metrics, declared, extras = tr.metrics, perLayer, tr.extras
		if err := tr.finish(w.name, *seed, *spanDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	for n := range declared {
		if _, ok := out.Metrics[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.name, n)
			return 1
		}
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", w.name)
		return 1
	}
	for n, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", w.name, n, m.Value)
			return 1
		}
	}
	printSummary(w.name, out, extras, rep.notes)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload's end-to-end metrics and its output
// checks: every check is one attempted operation, every violation one
// failed operation.
type report struct {
	attempted, failed int64
	failures          []string // the first few violations, for stderr
	metrics           map[string]metric
	extras            map[string]metric // this workload's own numbers, for stderr
	notes             []string          // sample counts and the like, for stderr
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), extras: make(map[string]metric)}
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// extra records a number only this workload has. It goes to standard
// error, not into the result line, which holds the metrics every
// workload reports.
func (r *report) extra(name string, v float64, unit string) {
	r.extras[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// traced is the state of a traced run: the span recorder, the
// per-layer metrics, and the layer-table notes.
type traced struct {
	t        *tracer
	metrics  map[string]metric
	extras   map[string]metric // this workload's own layer numbers, for stderr
	untraced time.Duration     // wall time of the untraced repetition
	notes    []string
}

func newTraced() *traced {
	return &traced{t: newTracer(), metrics: make(map[string]metric), extras: make(map[string]metric)}
}

func (tr *traced) set(name string, v float64) {
	unit, ok := perLayer[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	tr.metrics[name] = metric{Value: v, Unit: unit}
}

// extra records a layer number only this workload has, for stderr.
func (tr *traced) extra(name string, v float64, unit string) {
	tr.extras[name] = metric{Value: v, Unit: unit}
}

func (tr *traced) finish(workload string, seed int64, dir string) error {
	tr.t.end() // the workload root span
	tr.set("trace.overhead_ms", ms(tracedWork(tr.t.spans)-tr.untraced))
	writeTable(os.Stderr, workload, tr.t.spans, tr.untraced, tr.notes)
	path, err := writeSpans(dir, workload, seed, tr.t.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.t.spans), path)
	return nil
}

func printSummary(workload string, out result, extras map[string]metric, notes []string) {
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", workload, out.Correct, out.Attempted, out.Failed)
	printMetrics(out.Metrics)
	if len(extras) > 0 {
		fmt.Fprintf(os.Stderr, "%s only (not in the result line):\n", workload)
		printMetrics(extras)
	}
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(os.Stderr, "  %-42s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// rtCounters is a sample of the Go runtime's cumulative counters.
type rtCounters struct {
	allocs, bytes, gcs uint64
	pause              time.Duration
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRT() rtCounters {
	metrics.Read(rtSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtCounters{
		allocs: rtSamples[0].Value.Uint64(),
		bytes:  rtSamples[1].Value.Uint64(),
		gcs:    rtSamples[2].Value.Uint64(),
		pause:  time.Duration(ms.PauseTotalNs),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pause - b.pause}
}

// callNote adds an isolated call's time and allocations per call to
// the layer-table notes.
func (tr *traced) callNote(name string, calls int, d time.Duration, allocs uint64) {
	tr.notes = append(tr.notes, fmt.Sprintf("isolated call %s: %.0f ns and %.2f allocations per call over %d calls",
		name, float64(d)/float64(calls), float64(allocs)/float64(calls), calls))
}

// setAllocs reports the heap allocations of the untraced repetition
// per simulated node-round and per query-round answer.
func (tr *traced) setAllocs(d rtCounters, nodeRounds, answers float64) {
	tr.set("go.allocs_per_node_round", float64(d.allocs)/nodeRounds)
	tr.set("go.allocs_per_answer", float64(d.allocs)/answers)
	tr.set("go.alloc_bytes_per_answer", float64(d.bytes)/answers)
}

// setGC reports the GC work of the untraced repetition.
func (tr *traced) setGC(d rtCounters) {
	tr.set("go.gc_cycles", float64(d.gcs))
	tr.set("go.gc_pause_ms", ms(d.pause))
}

// readAllocs reads the cumulative heap allocation count alone; it is
// cheap enough to bracket a single call.
func readAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// rss measures the resident set's high-water mark over each timed
// operation: the kernel's peak counter is reset before the operation
// and read after it. The median over operations is steady where the
// process-lifetime peak is not — with a small heap, when the collector
// happens to run decides the lifetime peak. Where the counter cannot be
// reset, the lifetime peak is reported.
type rss struct {
	peaks    []float64
	lifetime bool
}

func (r *rss) reset() {
	if r.lifetime {
		return
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.lifetime = true
	}
}

func (r *rss) sample() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.peaks = append(r.peaks, mb)
	return nil
}

func (r *rss) mb() float64 {
	if r.lifetime {
		mb, _ := peakRSSMB()
		return mb
	}
	return median(r.peaks)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
