package wsn

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// checkFlood fails unless t.Flood() is the schedule derived straight
// from the tree: radio sensors top-down, relays those with a radio
// child, reaches their farthest radio child's distance.
func checkFlood(tb testing.TB, t *Topology, when string) {
	tb.Helper()
	var recv, relays []int
	var reach []float64
	for i := len(t.PostOrder) - 1; i >= 0; i-- {
		u := t.PostOrder[i]
		if t.IsVirtual(u) {
			continue
		}
		recv = append(recv, u)
		far, relay := 0.0, false
		for _, c := range t.Children[u] {
			if !t.IsVirtual(c) {
				relay, far = true, max(far, t.Pos[u].Dist(t.Pos[c]))
			}
		}
		if relay {
			relays, reach = append(relays, u), append(reach, far)
		}
	}
	f := t.Flood()
	if !reflect.DeepEqual(f.Recv, recv) || !reflect.DeepEqual(f.Relays, relays) || !reflect.DeepEqual(f.Ranges(true), reach) {
		tb.Fatalf("%s: flood has %d receivers and %d relays, the tree %d and %d", when, len(f.Recv), len(f.Relays), len(recv), len(relays))
	}
	for i, r := range f.Ranges(false) {
		if r != t.Range {
			tb.Fatalf("%s: nominal range of relay %d is %v, want %v", when, i, r, t.Range)
		}
	}
	isRelay := make([]bool, t.N())
	for _, u := range relays {
		isRelay[u] = true
	}
	for u, r := range f.RelayAt {
		if (r >= 0) != isRelay[u] || r >= 0 && f.Relays[r] != u {
			tb.Fatalf("%s: RelayAt[%d] = %d", when, u, r)
		}
	}
}

// TestFloodFollowsTree pins the broadcast schedule to the tree it
// describes: with virtual nodes (they neither receive nor relay), when
// many goroutines ask a shared topology for it at once, after a
// re-parent (which must discard it), and on a clone.
func TestFloodFollowsTree(t *testing.T) {
	base, err := BuildConnectedTree(120, 200, 35, rand.New(rand.NewSource(4)), 50)
	if err != nil {
		t.Fatal(err)
	}
	top, err := ExpandVirtual(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = top.Flood()
		}()
	}
	wg.Wait()
	checkFlood(t, top, "shared")

	// Hang a relay's only radio child under the root: the relay stops
	// relaying.
	moved := false
	for _, u := range top.PostOrder {
		p := top.Parent[u]
		if top.IsVirtual(u) || p < 0 || len(top.Children[u]) != 1 {
			continue
		}
		radio := 0
		for _, c := range top.Children[p] {
			if !top.IsVirtual(c) {
				radio++
			}
		}
		if radio == 1 {
			before := top.Flood()
			if err := top.Reparent(u, -1); err != nil {
				t.Fatal(err)
			}
			if top.Flood() == before || top.Flood().RelayAt[p] >= 0 {
				t.Fatalf("re-parenting %d left %d relaying", u, p)
			}
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fixture has no relay with a single radio child")
	}
	checkFlood(t, top, "after Reparent")

	c := top.Clone()
	checkFlood(t, c, "clone")
}
