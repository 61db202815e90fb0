package sim

// Flight-recorder overhead guard. The tracing hooks in the convergecast
// hot path must be free when disabled: one nil check per potential
// event. baselineConvergecast below is convergecast with only those
// hooks removed; the guard compares it against the instrumented path
// with tracing detached and fails when the regression exceeds the 2%
// budget (internal/guard: timed only with WSNQ_GUARD=1).

import (
	"math/rand"
	"testing"

	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/guard"
	"wsnq/internal/msg"
	"wsnq/internal/trace"
	"wsnq/internal/wsn"
)

// benchPayload is a fixed-size aggregate, the shape of a validation or
// summary convergecast payload.
type benchPayload struct{ bits, values int }

func (p benchPayload) Bits() int       { return p.bits }
func (p benchPayload) ValueCount() int { return p.values }

// baselineCharge is charge without the flight-recorder hook. Keep it
// in step with charge, or the guard stops measuring just the hook.
func (rt *Runtime) baselineCharge(sender, receiver int, p Payload) {
	if rt.top.IsVirtual(sender) {
		return
	}
	bits := p.Bits()
	wire := rt.sizes.WireBits(bits)
	frames := rt.sizes.Frames(bits)
	rt.ledger.ChargeSend(sender, wire, rt.uplinkRange(sender))
	rt.ledger.ChargeRecv(receiver, wire)
	values := 0
	if vc, ok := p.(ValueCarrier); ok {
		values = vc.ValueCount()
	}
	rt.account(wire, frames, values)
}

// baselineConvergecast is convergecast without the flight-recorder
// hooks. Keep it in step with convergecast. (The energy ledger's own
// debit hook cannot be excised here, so its nil check is part of the
// baseline on both sides — the guard measures exactly the checks this
// layer added.)
func (rt *Runtime) baselineConvergecast(readings []int, lo, hi int, merge func(node int, children []Payload) Payload) []Payload {
	rt.stats.Convergecasts++
	stack, to := rt.stack[:0], rt.stackTo[:0]
	for _, u := range rt.top.PostOrder {
		top := len(stack)
		for top > 0 && to[top-1] == u {
			top--
		}
		if top == len(stack) && readings != nil && (readings[u] < lo || readings[u] > hi) {
			continue
		}
		var p Payload
		if rt.flt == nil || !rt.crashedNode(u) {
			var children []Payload
			if top < len(stack) {
				children = stack[top:]
			}
			p = merge(u, children)
		}
		clear(stack[top:])
		stack, to = stack[:top], to[:top]
		if p == nil {
			continue
		}
		parent := rt.top.Parent[u]
		if rt.flt != nil {
			if rt.hopWithFaults(u, parent, p) {
				stack, to = append(stack, p), append(to, parent)
			}
			continue
		}
		rt.baselineCharge(u, parent, p)
		if rt.dropHop() {
			rt.stats.PayloadsLost++
			rt.stats.PayloadsLostUp++
			continue
		}
		stack, to = append(stack, p), append(to, parent)
	}
	rt.stack, rt.stackTo = stack, to
	return stack
}

// benchRuntime builds a 256-node random connected deployment with a
// constant one-round trace, loss disabled, positioned at round 0.
func benchRuntime(tb testing.TB) *Runtime {
	tb.Helper()
	top, err := wsn.BuildConnectedTree(256, 200, 35, rand.New(rand.NewSource(1)), 50)
	if err != nil {
		tb.Fatal(err)
	}
	series := make([][]int, top.N())
	for i := range series {
		series[i] = []int{i % 97}
	}
	src, err := data.NewTrace(series)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(Config{
		Topology: top, Source: src,
		Sizes:  msg.DefaultSizes(),
		Energy: energy.DefaultParams(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// benchMerge aggregates every node's reading into one fixed-size
// payload per hop, the dominant traffic pattern of the continuous
// algorithms.
func benchMerge(rt *Runtime) func(node int, children []Payload) Payload {
	return func(node int, children []Payload) Payload {
		values := 1
		for _, c := range children {
			values += c.(benchPayload).values
		}
		_ = rt.Reading(node)
		return benchPayload{bits: 32, values: values}
	}
}

func BenchmarkConvergecastBaseline(b *testing.B) {
	rt := benchRuntime(b)
	merge := benchMerge(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.baselineConvergecast(nil, 0, 0, merge)
	}
}

func BenchmarkConvergecastTracerDisabled(b *testing.B) {
	rt := benchRuntime(b)
	merge := benchMerge(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Convergecast(merge)
	}
}

func BenchmarkConvergecastTracerRing(b *testing.B) {
	rt := benchRuntime(b)
	rt.SetTrace(trace.NewRing(4096))
	merge := benchMerge(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Convergecast(merge)
	}
}

// TestTracerOverheadGuard enforces the ≤2% budget for the disabled
// recorder:
//
//	WSNQ_GUARD=1 go test -count=1 -run TestTracerOverheadGuard ./internal/sim/
func TestTracerOverheadGuard(t *testing.T) {
	rt := benchRuntime(t)
	merge := benchMerge(rt)
	guard.Check(t, 0.02,
		guard.Arm{Name: "baseline", Step: func() error { rt.baselineConvergecast(nil, 0, 0, merge); return nil }},
		guard.Arm{Name: "tracer-disabled", Step: func() error { rt.Convergecast(merge); return nil }})
}
