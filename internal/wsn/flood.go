package wsn

// Flood is the broadcast schedule of a routing tree: which sensors pay
// a reception, which retransmit, and how far each retransmission must
// reach. It depends on the tree alone, so a topology builds it once and
// every runtime on the topology shares it; Reparent discards it (see
// Topology.Flood).
type Flood struct {
	// Recv lists the radio (non-virtual) sensors top-down: every one
	// receives a flood. Virtual nodes share their host's radio.
	Recv []int
	// Relays lists, top-down, the radio sensors with a radio child:
	// every one retransmits a flood once.
	Relays []int
	// RelayAt[u] is u's index in Relays, or -1 if u does not relay.
	RelayAt []int32

	reach   []float64 // distance from each relay to its farthest radio child
	nominal []float64 // the radio range ρ, once per relay
}

// Ranges returns the range each relay's retransmission is charged
// for, indexed like Relays: the distance to its farthest radio child,
// which the single transmission must reach, when byDistance is set,
// else the nominal radio range ρ. The slice is shared; do not modify
// it.
func (f *Flood) Ranges(byDistance bool) []float64 {
	if byDistance {
		return f.reach
	}
	return f.nominal
}

// Flood returns the tree's broadcast schedule, building it on first
// use. It is safe for concurrent use on a shared topology; Reparent
// discards it, so the next call describes the new tree.
func (t *Topology) Flood() *Flood {
	if f := t.flood.Load(); f != nil {
		return f
	}
	// Concurrent first calls may each build one; the plans are equal.
	f := t.buildFlood()
	t.flood.Store(f)
	return f
}

// buildFlood lists the receivers and relays of the tree top-down.
func (t *Topology) buildFlood() *Flood {
	f := &Flood{RelayAt: make([]int32, t.N())}
	for i := len(t.PostOrder) - 1; i >= 0; i-- {
		u := t.PostOrder[i]
		f.RelayAt[u] = -1
		if t.IsVirtual(u) {
			continue
		}
		f.Recv = append(f.Recv, u)
		relay, reach := false, 0.0
		for _, c := range t.Children[u] {
			if t.IsVirtual(c) {
				continue
			}
			relay = true
			if d := t.Pos[u].Dist(t.Pos[c]); d > reach {
				reach = d
			}
		}
		if relay {
			f.RelayAt[u] = int32(len(f.Relays))
			f.Relays = append(f.Relays, u)
			f.reach = append(f.reach, reach)
			f.nominal = append(f.nominal, t.Range)
		}
	}
	return f
}
