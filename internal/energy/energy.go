// Package energy implements the first-order radio energy model the
// paper adopts from Heinzelman et al. [11] and the per-node bookkeeping
// needed for the two evaluation metrics: maximum per-node energy
// consumption and network lifetime.
//
// Sending s bits over a radio range of ρ meters costs
//
//	E_send(s) = (α + β·ρ^p) · s
//
// and receiving s bits costs E_recv(s) = γ·s. The paper prints α and γ
// as 50 mJ/bit, which contradicts its own 30 mJ initial budget; the
// cited source uses 50 nJ/bit, so that is the default here (the β of
// 10 pJ/bit/m² is kept). See DESIGN.md §2.
package energy

import (
	"fmt"
	"math"

	"wsnq/internal/trace"
)

// Params configures the radio cost function.
type Params struct {
	Alpha float64 // distance-independent send cost per bit [J/bit]
	Beta  float64 // distance-dependent send coefficient [J/bit/m^p]
	P     float64 // path-loss exponent
	Gamma float64 // receive cost per bit [J/bit]

	InitialBudget float64 // per-node energy supply [J]
}

// DefaultParams returns the calibrated defaults: α = γ = 50 nJ/bit,
// β = 10 pJ/bit/m², p = 2, 30 mJ initial supply.
func DefaultParams() Params {
	return Params{
		Alpha:         50e-9,
		Beta:          10e-12,
		P:             2,
		Gamma:         50e-9,
		InitialBudget: 30e-3,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.Alpha <= 0 || p.Beta < 0 || p.Gamma <= 0 {
		return fmt.Errorf("energy: cost coefficients must be positive: %+v", p)
	}
	if p.P < 1 || p.P > 6 {
		return fmt.Errorf("energy: implausible path-loss exponent %v", p.P)
	}
	if p.InitialBudget <= 0 {
		return fmt.Errorf("energy: initial budget must be positive, got %v", p.InitialBudget)
	}
	return nil
}

// SendCost returns the energy in joules to transmit bits over range rho.
func (p Params) SendCost(bits int, rho float64) float64 {
	if bits <= 0 {
		return 0
	}
	return p.sendCoef(rho) * float64(bits)
}

// sendCoef returns the per-bit send cost α + β·ρ^p over range rho.
func (p Params) sendCoef(rho float64) float64 {
	return p.Alpha + p.Beta*math.Pow(rho, p.P)
}

// RecvCost returns the energy in joules to receive bits.
func (p Params) RecvCost(bits int) float64 {
	if bits <= 0 {
		return 0
	}
	return p.Gamma * float64(bits)
}

// Ledger tracks per-node energy consumption across a simulation run.
// Node indices are dense in [0, n). The root node of the network is
// accounted separately by the caller (it has infinite supply) and
// should simply not appear in the ledger.
type Ledger struct {
	params Params
	spent  []float64 // cumulative consumption per node [J]
	round  []float64 // consumption in the current round [J]

	// The send coefficient of the last charged range: ChargeSend is
	// called with the same nominal range for almost every hop, so one
	// math.Pow per distinct range replaces one per transmission.
	coefRho float64
	coef    float64
	hasCoef bool

	tr    trace.Collector               // nil = debit tracing disabled
	clock func() (round int, ph string) // round/phase stamp for debit events
}

// NewLedger creates a ledger for n sensor nodes.
func NewLedger(n int, params Params) *Ledger {
	return &Ledger{
		params: params,
		spent:  make([]float64, n),
		round:  make([]float64, n),
	}
}

// Params returns the radio cost parameters the ledger charges with.
func (l *Ledger) Params() Params { return l.params }

// Nodes returns the number of tracked nodes.
func (l *Ledger) Nodes() int { return len(l.spent) }

// SetTrace attaches a flight-recorder collector that receives one
// trace.KindEnergy event per debit, stamped with clock's round and
// phase. Passing a nil collector detaches the hook.
func (l *Ledger) SetTrace(c trace.Collector, clock func() (round int, ph string)) {
	if c == nil || clock == nil {
		l.tr, l.clock = nil, nil
		return
	}
	l.tr, l.clock = c, clock
}

// debit emits one energy event for a booked charge.
func (l *Ledger) debit(node, bits int, joules float64, op int) {
	round, ph := l.clock()
	l.tr.Collect(trace.Event{
		Kind: trace.KindEnergy, Round: round, Phase: ph,
		Node: node, Wire: bits, Joules: joules, Aux: op,
	})
}

// ChargeSend charges node its cost for transmitting bits over rho meters.
// Charging a negative node index is a no-op (the root sends for free).
func (l *Ledger) ChargeSend(node, bits int, rho float64) {
	if node < 0 {
		return
	}
	c := 0.0
	if bits > 0 {
		if !l.hasCoef || rho != l.coefRho {
			l.coef, l.coefRho, l.hasCoef = l.params.sendCoef(rho), rho, true
		}
		c = l.coef * float64(bits)
	}
	l.spent[node] += c
	l.round[node] += c
	if l.tr != nil {
		l.debit(node, bits, c, trace.EnergySend)
	}
}

// ChargeRecv charges node its cost for receiving bits.
// Charging a negative node index is a no-op (the root receives for free).
func (l *Ledger) ChargeRecv(node, bits int) {
	if node < 0 {
		return
	}
	c := l.params.RecvCost(bits)
	l.spent[node] += c
	l.round[node] += c
	if l.tr != nil {
		l.debit(node, bits, c, trace.EnergyRecv)
	}
}

// EndRound closes the current round and returns the maximum per-node
// energy consumed during it.
func (l *Ledger) EndRound() float64 {
	maxE := 0.0
	for i, e := range l.round {
		if e > maxE {
			maxE = e
		}
		l.round[i] = 0
	}
	return maxE
}

// Spent returns node's cumulative consumption in joules.
func (l *Ledger) Spent(node int) float64 { return l.spent[node] }

// TotalSpent returns the network-wide cumulative consumption in joules.
func (l *Ledger) TotalSpent() float64 {
	t := 0.0
	for _, e := range l.spent {
		t += e
	}
	return t
}

// SpentTotals returns the network-wide and hottest-node cumulative
// consumption in one pass — the per-round sampling fast path of the
// series recorder, where separate TotalSpent and MaxSpent scans would
// double the cost.
func (l *Ledger) SpentTotals() (total, hottest float64) {
	for _, e := range l.spent {
		total += e
		if e > hottest {
			hottest = e
		}
	}
	return total, hottest
}

// MaxSpent returns the cumulative consumption of the hottest node and
// its index. It returns (-1, 0) for an empty ledger.
func (l *Ledger) MaxSpent() (node int, joules float64) {
	node = -1
	for i, e := range l.spent {
		if node == -1 || e > joules {
			node, joules = i, e
		}
	}
	return node, joules
}

// Exhausted reports whether any node has consumed at least the initial
// budget, i.e. whether the network (as the paper defines lifetime) is dead.
func (l *Ledger) Exhausted() bool {
	for _, e := range l.spent {
		if e >= l.params.InitialBudget {
			return true
		}
	}
	return false
}

// Snapshot returns a copy of every node's cumulative consumption.
func (l *Ledger) Snapshot() []float64 {
	return append([]float64(nil), l.spent...)
}

// Reset clears all consumption, keeping the parameters.
func (l *Ledger) Reset() {
	for i := range l.spent {
		l.spent[i] = 0
		l.round[i] = 0
	}
}
