package energy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	p := DefaultParams()
	p.Alpha = 0
	if p.Validate() == nil {
		t.Error("zero alpha accepted")
	}
	p = DefaultParams()
	p.InitialBudget = -1
	if p.Validate() == nil {
		t.Error("negative budget accepted")
	}
	p = DefaultParams()
	p.P = 9
	if p.Validate() == nil {
		t.Error("absurd path-loss exponent accepted")
	}
}

func TestSendRecvCost(t *testing.T) {
	p := DefaultParams()
	// 1000 bits at 35 m: (50e-9 + 10e-12*35²)·1000 = 50µJ + 12.25µJ.
	got := p.SendCost(1000, 35)
	want := (50e-9 + 10e-12*35*35) * 1000
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("SendCost = %v, want %v", got, want)
	}
	if math.Abs(p.RecvCost(1000)-50e-6) > 1e-15 {
		t.Errorf("RecvCost = %v", p.RecvCost(1000))
	}
	if p.SendCost(0, 35) != 0 || p.RecvCost(-1) != 0 {
		t.Error("zero/negative bits must cost nothing")
	}
}

func TestSendCostMonotoneInRange(t *testing.T) {
	p := DefaultParams()
	prev := 0.0
	for _, rho := range []float64{15, 35, 60, 85} {
		c := p.SendCost(1000, rho)
		if c <= prev {
			t.Fatalf("SendCost not increasing at rho=%v", rho)
		}
		prev = c
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(3, DefaultParams())
	l.ChargeSend(0, 1000, 35)
	l.ChargeRecv(1, 1000)
	if l.Spent(2) != 0 {
		t.Error("idle node charged")
	}
	wantTotal := DefaultParams().SendCost(1000, 35) + DefaultParams().RecvCost(1000)
	if math.Abs(l.TotalSpent()-wantTotal) > 1e-18 {
		t.Errorf("TotalSpent = %v, want %v", l.TotalSpent(), wantTotal)
	}
	node, joules := l.MaxSpent()
	if node != 0 || joules != l.Spent(0) {
		t.Errorf("MaxSpent = (%d, %v)", node, joules)
	}
}

func TestLedgerRootIsFree(t *testing.T) {
	l := NewLedger(2, DefaultParams())
	l.ChargeSend(-1, 1e6, 35)
	l.ChargeRecv(-1, 1e6)
	if l.TotalSpent() != 0 {
		t.Error("root charges must be ignored")
	}
}

func TestEndRoundResetsAndReportsMax(t *testing.T) {
	l := NewLedger(2, DefaultParams())
	l.ChargeRecv(0, 100)
	l.ChargeRecv(1, 300)
	maxE := l.EndRound()
	if math.Abs(maxE-DefaultParams().RecvCost(300)) > 1e-18 {
		t.Errorf("round max = %v", maxE)
	}
	if l.EndRound() != 0 {
		t.Error("round consumption not cleared")
	}
	// Cumulative totals survive EndRound.
	if l.Spent(1) == 0 {
		t.Error("cumulative total cleared by EndRound")
	}
}

func TestExhaustedAndReset(t *testing.T) {
	p := DefaultParams()
	p.InitialBudget = 1e-6
	l := NewLedger(1, p)
	if l.Exhausted() {
		t.Error("fresh ledger exhausted")
	}
	l.ChargeRecv(0, 100) // 5 µJ > 1 µJ budget
	if !l.Exhausted() {
		t.Error("over-budget node not detected")
	}
	l.Reset()
	if l.Exhausted() || l.TotalSpent() != 0 {
		t.Error("Reset did not clear state")
	}
}

// TestLedgerConservation: the sum of individual charges always equals
// the total, for arbitrary charge sequences.
func TestLedgerConservation(t *testing.T) {
	f := func(charges []uint16) bool {
		l := NewLedger(4, DefaultParams())
		want := 0.0
		for i, c := range charges {
			bits := int(c)
			node := i % 4
			if i%2 == 0 {
				l.ChargeSend(node, bits, 35)
				want += DefaultParams().SendCost(bits, 35)
			} else {
				l.ChargeRecv(node, bits)
				want += DefaultParams().RecvCost(bits)
			}
		}
		return math.Abs(l.TotalSpent()-want) <= 1e-12*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChargeFloodMatchesChargeLoop pins ChargeFlood to the top-down
// loop it replaces — per node, ChargeRecv, then ChargeSend if the node
// relays — bit for bit on both the cumulative and the per-round sums,
// across repeated floods with distinct relay ranges and a round end.
func TestChargeFloodMatchesChargeLoop(t *testing.T) {
	const n = 9
	recv := []int{4, 0, 7, 2, 8, 1, 5} // top-down; 3 and 6 never hear it
	relays := []int{4, 0, 2}           // top-down subsequence of recv
	rho := []float64{35, 12.25, 1e-3}  // per relay
	relayRho := map[int]float64{4: 35, 0: 12.25, 2: 1e-3}
	flood, loop := NewLedger(n, DefaultParams()), NewLedger(n, DefaultParams())
	same := func(when string) {
		t.Helper()
		for u := 0; u < n; u++ {
			if a, b := math.Float64bits(flood.spent[u]), math.Float64bits(loop.spent[u]); a != b {
				t.Fatalf("%s: node %d spent %v (flood) != %v (loop)", when, u, flood.spent[u], loop.spent[u])
			}
			if a, b := math.Float64bits(flood.round[u]), math.Float64bits(loop.round[u]); a != b {
				t.Fatalf("%s: node %d round %v (flood) != %v (loop)", when, u, flood.round[u], loop.round[u])
			}
		}
	}
	for i, bits := range []int{136, 0, 1048, 136, 77} {
		if i == 3 {
			if a, b := flood.EndRound(), loop.EndRound(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("EndRound %v (flood) != %v (loop)", a, b)
			}
		}
		// Interleave unicast traffic so the sums do not start from zero
		// and the cached send coefficient changes between floods.
		for _, l := range []*Ledger{flood, loop} {
			l.ChargeSend(3, 200+bits, 20)
			l.ChargeRecv(4, 200+bits)
		}
		flood.ChargeFlood(recv, relays, rho, bits)
		for _, u := range recv {
			loop.ChargeRecv(u, bits)
			if r, ok := relayRho[u]; ok {
				loop.ChargeSend(u, bits, r)
			}
		}
		same(fmt.Sprintf("flood %d (%d bits)", i, bits))
	}
}
