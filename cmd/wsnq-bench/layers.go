package main

import (
	"math/rand"
	"testing"

	"wsnq"
	"wsnq/internal/data"
	"wsnq/internal/energy"
	"wsnq/internal/msg"
	"wsnq/internal/protocol"
	"wsnq/internal/sim"
	"wsnq/internal/wsn"
)

// The layer benchmarks time one layer of the round path each, below the
// protocols, so every layer gets its own trajectory and allocation
// ceiling in the BENCH sessions: the radio core (one convergecast over
// the default 500-node deployment), the energy ledger (one send and one
// receive charge), and the histogram codec (one encode and decode of a
// full-frame histogram).
var layerBenches = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"Convergecast", benchConvergecast},
	{"LedgerCharge", benchLedgerCharge},
	{"HistogramCodec", benchHistogramCodec},
}

// aggregate is a fixed-size aggregate payload: the shape of the
// validation convergecast, without the protocol around it.
type aggregate struct{ values int }

func (a *aggregate) Bits() int { return 64 }

// benchConvergecast times Convergecast over the default-cell deployment
// (|N| = 500, 200 m square, 35 m range) with a merge that aggregates
// counts into preallocated per-node payloads, so the sample is the
// radio core's own cost: the payload stack, the charges, the accounting
// and the reading cache.
func benchConvergecast(b *testing.B) {
	cfg := wsnq.DefaultConfig()
	top, err := wsn.BuildConnectedTree(cfg.Nodes, cfg.Area, cfg.RadioRange, rand.New(rand.NewSource(1)), 50)
	if err != nil {
		b.Fatal(err)
	}
	series := make([][]int, top.N())
	for i := range series {
		series[i] = []int{i % 97}
	}
	src, err := data.NewTrace(series)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := sim.New(sim.Config{Topology: top, Source: src, Sizes: msg.DefaultSizes(), Energy: energy.DefaultParams()})
	if err != nil {
		b.Fatal(err)
	}
	rt.SetPhase(sim.PhaseValidation)
	payloads := make([]aggregate, top.N())
	merge := func(n int, children []sim.Payload) sim.Payload {
		p := &payloads[n]
		p.values = rt.Reading(n) & 1
		for _, c := range children {
			p.values += c.(*aggregate).values
		}
		return p
	}
	rt.Convergecast(merge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Convergecast(merge)
	}
}

// benchLedgerCharge times one convergecast hop's energy bookkeeping: a
// ChargeSend at the nominal range and the matching ChargeRecv.
func benchLedgerCharge(b *testing.B) {
	const n = 500
	l := energy.NewLedger(n, energy.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ChargeSend(i%n, 1024, 35)
		l.ChargeRecv((i+1)%n, 1024)
	}
}

// benchHistogramCodec times one encode and decode of a full-frame
// histogram (64 buckets with the default sizes) holding 500
// measurements in a triangular spread, as around a median.
func benchHistogramCodec(b *testing.B) {
	s := msg.DefaultSizes()
	buckets := s.PayloadBits / s.BucketBits
	counts := make([]int, buckets)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		counts[(rng.Intn(buckets)+rng.Intn(buckets))/2]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := protocol.EncodeHistogram(counts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.DecodeHistogram(enc, buckets); err != nil {
			b.Fatal(err)
		}
	}
}
