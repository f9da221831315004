package core

import (
	"strings"
	"testing"
	"unsafe"

	"nowover/internal/ids"
	"nowover/internal/walk"
)

// TestRowsTrackCompositionThroughChurn drives joins, leaves (with their
// splits, merges and cascades) and allegiance flips, and after every
// operation requires each row to equal its cluster's member count and the
// Byzantine members the allegiance bitset marks, every
// retired or unminted ID to read (0, 0) through Size and Byz, and View's
// counts to equal the cluster count, the overlay's edge count and the
// largest cluster's size.
func TestRowsTrackCompositionThroughChurn(t *testing.T) {
	w := newTestWorld(t, 5)
	r := w.Rng().Split(0x5107)
	check := func(step int) {
		t.Helper()
		if err := w.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		maxSize := 0
		for c := ids.ClusterID(0); int(c) < len(w.rows)+2; c++ {
			size, byz := 0, 0
			if cs := w.cluster(c); cs != nil {
				size = len(cs.members)
				for _, x := range cs.members {
					byz += byzCount(w.IsByzantine(x))
				}
			}
			maxSize = max(maxSize, size)
			if w.Size(c) != size || w.Byz(c) != byz {
				t.Fatalf("step %d: %v reads (%d, %d), record (%d, %d)", step, c, w.Size(c), w.Byz(c), size, byz)
			}
		}
		v := w.View()
		if v.NumClusters != len(w.Clusters()) || v.NumEdges != w.Overlay().NumEdges() || v.MaxSize != maxSize {
			t.Fatalf("step %d: View counts (%d clusters, %d edges, max %d), recount (%d, %d, %d)",
				step, v.NumClusters, v.NumEdges, v.MaxSize, len(w.Clusters()), w.Overlay().NumEdges(), maxSize)
		}
	}
	check(-1)
	// Grow towards the 512-node cap, then shrink: splits on the way up,
	// merges on the way down.
	for step := 0; step < 600; step++ {
		leaveBias := 0.15
		if step >= 300 {
			leaveBias = 0.85
		}
		switch {
		case step%7 == 3:
			x, _ := w.RandomNode(r)
			if err := w.SetCorrupted(x, !w.IsByzantine(x)); err != nil {
				t.Fatal(err)
			}
		case r.Bool(leaveBias) && w.NumNodes() > 60:
			x, _ := w.RandomNode(r)
			if err := w.Leave(x); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := w.JoinAuto(r.Bool(0.2)); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
	if s := w.Stats(); s.Splits == 0 || s.Merges == 0 {
		t.Fatalf("%d splits, %d merges; the row writes of putCluster and retire went untested", s.Splits, s.Merges)
	}
}

// TestCheckConsistencyCatchesRowDrift corrupts the row table, then the
// overlay weights, and requires CheckConsistency to report each, for a
// live cluster and for an ID with no live cluster.
func TestCheckConsistencyCatchesRowDrift(t *testing.T) {
	w := newTestWorld(t, 6)
	c := w.Clusters()[0]
	w.rows[c].Byz++
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "row") {
		t.Fatalf("live row drift not reported: %v", err)
	}
	w.rows[c].Byz--
	w.rows = append(w.rows, walk.Row{Size: 1})
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "row") {
		t.Fatalf("unminted row not reported: %v", err)
	}
	w.rows = w.rows[:len(w.rows)-1]
	size := int64(w.Size(c))
	w.overlay.SetWeight(c, size+1)
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("live weight drift not reported: %v", err)
	}
	w.overlay.SetWeight(c, size)
	unminted := ids.ClusterID(len(w.rows))
	w.rows = append(w.rows, walk.Row{})
	w.overlay.SetWeight(unminted, 4)
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("unminted weight not reported: %v", err)
	}
}

// TestRetireZeroesRow retires a populated record directly (protocol paths
// empty a cluster before retiring it, so their rows and weights are
// already zero) and requires its row to read (0, 0), its overlay weight 0
// and every neighbour's mass to have dropped by its size.
func TestRetireZeroesRow(t *testing.T) {
	w := newTestWorld(t, 7)
	c := w.Clusters()[0]
	if w.Size(c) == 0 || len(w.overlay.Adjacent(c)) == 0 {
		t.Fatal("test cluster is empty or isolated")
	}
	if !w.retire(c) {
		t.Fatal("retire of a live cluster reported false")
	}
	if w.Size(c) != 0 || w.Byz(c) != 0 {
		t.Fatalf("retired %v reads (%d, %d), want (0, 0)", c, w.Size(c), w.Byz(c))
	}
	if wt := w.overlay.Weight(c); wt != 0 {
		t.Fatalf("retired %v weighs %d in the overlay, want 0", c, wt)
	}
	for _, d := range w.overlay.Adjacent(c) {
		var mass int64
		for _, e := range w.overlay.Adjacent(d) {
			mass += int64(w.Size(e))
		}
		if got := w.NeighborMass(d); got != mass {
			t.Fatalf("neighbour %v of retired %v: NeighborMass %d, recount %d", d, c, got, mass)
		}
	}
}

// TestHotRecordWidths pins the widths of the records a hop and a swap
// read: an overlay adjacency entry (a ClusterID), a composition row and a
// node record. At the churn_large shape (2^18 nodes) the adjacency and
// the node table only fit a private L2 at these widths, so a widening
// costs ~1.2x end to end without failing anything else.
func TestHotRecordWidths(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"ids.ClusterID", unsafe.Sizeof(ids.ClusterID(0)), 4},
		{"walk.Row", unsafe.Sizeof(walk.Row{}), 8},
		{"core.nodeInfo", unsafe.Sizeof(nodeInfo{}), 8},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d: ROADMAP item 4's hop record measured "+
				"churn_large ~1.2x slower with 8-byte cluster IDs and 16-byte node records", r.name, r.got, r.want)
		}
	}
}
