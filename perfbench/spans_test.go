package main

import (
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
		{Name: "b", Start: 50, End: 80, Parent: 0},
		{Name: "a", Start: 85, End: 95, Parent: 0},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 30, "a": 35, "leaf": 5, "b": 30}
	var sum time.Duration
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
	for _, d := range self {
		sum += d
	}
	if sum != rootTime(spans) {
		t.Errorf("self times sum to %d, root spans last %d", sum, rootTime(spans))
	}
}

func TestSelfTimesOverlapAndClip(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "x", Start: 10, End: 50, Parent: 0},
		{Name: "y", Start: 30, End: 60, Parent: 0},  // overlaps x: the union 10..60 is covered once
		{Name: "z", Start: 90, End: 120, Parent: 0}, // clipped to 90..100 for its parent
	}
	if got := selfTimes(spans)["root"]; got != 40 {
		t.Errorf("root self time = %d, want 100 - 50 - 10 = 40", got)
	}
}

func TestTracerAttributeLaysChildrenOut(t *testing.T) {
	tr := newTracer()
	p := tr.begin("parent", 0)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.attribute(p, "x", 0, 300*time.Microsecond)
	tr.attribute(p, "y", 0, 500*time.Microsecond)
	x, y := tr.spans[1], tr.spans[2]
	if x.Start != tr.spans[p].Start || y.Start != x.End || y.End-y.Start != int64(500*time.Microsecond) {
		t.Fatalf("attributed spans %+v %+v not laid out from the parent's start", x, y)
	}
	self := selfTimes(tr.spans)
	if got, want := self["parent"], time.Duration(tr.spans[p].End-tr.spans[p].Start)-800*time.Microsecond; got != want {
		t.Errorf("parent self time = %v, want %v", got, want)
	}
}
