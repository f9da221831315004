package core

import (
	"fmt"
	"strings"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// swapState renders everything a swap may write: every live cluster's
// member list in order with its row's Byzantine count and live class, its
// settled class and its neighbour mass, the row table, the size multiset (trailing
// empty sizes trimmed) and its max, the insecure counters, Stats, the
// node records, the allegiance bitset and the sampling indexes.
func swapState(w *World) string {
	var b strings.Builder
	for i, cs := range w.clusters {
		if !cs.live {
			continue
		}
		c := ids.ClusterID(i)
		fmt.Fprintf(&b, "%v byz=%d sec=%v/%v mass=%d:", c, w.rows[c].Byz, rowClass(w.rows[c]), cs.settled, w.NeighborMass(c))
		for _, x := range cs.members {
			fmt.Fprintf(&b, " %v", x)
		}
		b.WriteString("\n")
	}
	sizes := w.sizeCount
	for len(sizes) > 0 && sizes[len(sizes)-1] == 0 {
		sizes = sizes[:len(sizes)-1]
	}
	fmt.Fprintf(&b, "rows:%v\nsizes:%v max:%d insecure:%d/%d\n", w.rows, sizes, w.maxSize, w.degraded, w.captured)
	fmt.Fprintf(&b, "stats:%+v\nnodes:%v\nbyz:%x\n", w.stats, w.nodes, w.byzBits)
	fmt.Fprintf(&b, "order:%v byzOrder:%v\n", w.allNodes, w.byzNodes)
	return b.String()
}

// swapWorld bootstraps a world with a third of its nodes Byzantine, so
// that random swaps move clusters across the degraded and captured
// thresholds.
func swapWorld(t *testing.T, seed uint64, grouped bool) *World {
	t.Helper()
	cfg := DefaultConfig(512)
	cfg.Seed = seed
	cfg.Shuffle = cascadeMode(grouped)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(240, func(slot int) bool { return slot%3 == 0 }); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSwapMatchesTransferPair is Swap's oracle: twin worlds from one seed,
// one swapping through Swap and the other through the pair of moveNodes it
// replaces (x to b, then the partner to a) counted as two swaps, must end
// every group of random swaps in the same state after settling, member
// order included.
// Between groups both worlds run the same join or leave, so the swaps
// land on worlds churned in either cascade mode.
func TestSwapMatchesTransferPair(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			fused, pair := swapWorld(t, 17, grouped), swapWorld(t, 17, grouped)
			r := xrand.New(0x5A9)
			swaps, moved := 0, 0
			for group := 0; group < 60; group++ {
				for k := 1 + r.Intn(6); k > 0; k-- {
					cs := fused.Clusters()
					a, b := cs[r.Intn(len(cs))], cs[r.Intn(len(cs))]
					if a == b {
						continue
					}
					x := fused.MemberAt(a, r.Intn(fused.Size(a)))
					j := r.Intn(fused.Size(b))
					y := pair.MemberAt(b, j)
					if fused.IsByzantine(x) != fused.IsByzantine(y) {
						moved++
					}
					if err := fused.Swap(a, x, b, j); err != nil {
						t.Fatalf("group %d: Swap: %v", group, err)
					}
					if err := pair.moveNode(x, a, b); err != nil {
						t.Fatal(err)
					}
					if err := pair.moveNode(y, b, a); err != nil {
						t.Fatal(err)
					}
					pair.stats.Swaps += 2
					swaps++
				}
				fused.settleSecurity()
				pair.settleSecurity()
				if got, want := swapState(fused), swapState(pair); got != want {
					t.Fatalf("group %d: Swap and the moveNode pair differ:\n%s\nvs\n%s", group, got, want)
				}
				for _, w := range []*World{fused, pair} {
					if err := w.CheckConsistency(); err != nil {
						t.Fatalf("group %d: %v", group, err)
					}
				}
				if group%2 == 0 {
					byz := r.Bool(0.3)
					_, err1 := fused.JoinAuto(byz)
					_, err2 := pair.JoinAuto(byz)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
				} else {
					x, _ := fused.RandomNode(r)
					if err1, err2 := fused.Leave(x), pair.Leave(x); err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
				}
			}
			if st := fused.Stats(); swaps < 150 || moved == 0 || st.DegradedEvents == 0 {
				t.Fatalf("%d swaps, %d across allegiance, %d degraded events: the swaps exercised too little", swaps, moved, st.DegradedEvents)
			}
		})
	}
}

// TestSwapRejects: each malformed swap errors and leaves the world as it
// was.
func TestSwapRejects(t *testing.T) {
	w := swapWorld(t, 23, true)
	cs := w.Clusters()
	a, b := cs[0], cs[1]
	x, inB := w.MemberAt(a, 0), w.MemberAt(b, 0)
	unknown := ids.ClusterID(w.clAlloc.Issued() + 5)
	for _, tc := range []struct {
		name string
		a    ids.ClusterID
		x    ids.NodeID
		b    ids.ClusterID
		j    int
	}{
		{"same cluster", a, x, a, 0},
		{"unknown source", unknown, x, b, 0},
		{"unknown partner", a, x, unknown, 0},
		{"node not in source", a, inB, b, 0},
		{"unknown node", a, ids.NodeID(1 << 40), b, 0},
		{"negative index", a, x, b, -1},
		{"index past the members", a, x, b, w.Size(b)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := swapState(w)
			queued := len(w.settleQueue)
			if err := w.Swap(tc.a, tc.x, tc.b, tc.j); err == nil {
				t.Fatal("accepted")
			}
			if got := swapState(w); got != before || len(w.settleQueue) != queued {
				t.Fatalf("a rejected swap changed the world:\n%s\nvs\n%s", got, before)
			}
		})
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
