package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the enclosing span (-1 for a root);
// Trace groups the spans of one tick or round. Spans are kept in memory
// and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	// Attributed marks a span synthesized from a report the program
	// keeps (Prof, byte counters) rather than timed around a call.
	Attributed bool `json:"attributed,omitempty"`
}

type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span and
// returns its index.
func (t *tracer) begin(name string, trace int) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Trace: trace})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// do runs f inside a span.
func (t *tracer) do(name string, trace int, f func() error) error {
	t.begin(name, trace)
	defer t.end()
	return f()
}

// dur returns the duration of a closed span.
func (t *tracer) dur(i int) time.Duration { return time.Duration(t.spans[i].End - t.spans[i].Start) }

// attribute adds a child span of duration d to span parent, laid out
// after the parent's previously attributed children. It turns a
// duration the program reports (a Prof bucket, time inside an
// io.Writer) into a span so that self times still add up.
func (t *tracer) attribute(parent int, name string, trace int, d time.Duration) {
	start := t.spans[parent].Start
	for i := len(t.spans) - 1; i > parent; i-- {
		if t.spans[i].Parent == parent && t.spans[i].Attributed && t.spans[i].End > start {
			start = t.spans[i].End
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Trace: trace, Attributed: true})
}

// selfTimes returns each span name's self time: its spans' durations
// minus the part of each interval its child spans cover. Children are
// clipped to their parent's interval and overlapping children cover
// their union once. In a tree whose children nest inside their parent
// without overlapping — what begin/end and attribute record on one
// goroutine — the self times add up to the roots' durations.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo := iv[0]
			if lo < reach {
				lo = reach
			}
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// rootTime sums the durations of the root spans.
func rootTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// writeTable prints the layer table: every span name's self time and
// share of the traced wall time, largest first, then the total and the
// tracing overhead.
func writeTable(w io.Writer, workload string, spans []span, untraced time.Duration, notes []string) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	var sum time.Duration
	for n, d := range self {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(a, b int) bool {
		if self[names[a]] != self[names[b]] {
			return self[names[a]] > self[names[b]]
		}
		return names[a] < names[b]
	})
	wall := rootTime(spans)
	fmt.Fprintf(w, "layer table: %s (self time of each span name)\n", workload)
	fmt.Fprintf(w, "  %-44s %12s %7s\n", "span", "self ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %12.3f %6.1f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(wall))
	}
	fmt.Fprintf(w, "  %-44s %12.3f (traced wall %.3f ms)\n", "sum of self times", ms(sum), ms(wall))
	fmt.Fprintf(w, "  tracing overhead: traced %.3f ms - untraced %.3f ms = %.3f ms\n",
		ms(tracedWork(spans)), ms(untraced), ms(tracedWork(spans)-untraced))
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// tracedWork is the duration of the spans named "traced", the traced
// repetition of the work the untraced timing covers.
func tracedWork(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == "traced" {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// writeSpans writes the spans as JSON Lines into dir.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
