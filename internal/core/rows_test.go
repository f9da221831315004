package core

import (
	"strings"
	"testing"

	"nowover/internal/ids"
)

// TestRowsTrackCompositionThroughChurn drives joins, leaves (with their
// splits, merges and cascades) and allegiance flips, and after every
// operation requires each row to equal its cluster's (size, byz) and every
// retired or unminted ID to read (0, 0) through Size and Byz.
func TestRowsTrackCompositionThroughChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		w := newTestWorld(t, shards, 5)
		r := w.Rng().Split(0x5107)
		check := func(step int) {
			t.Helper()
			if err := w.CheckConsistency(); err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, step, err)
			}
			for c := ids.ClusterID(0); int(c) < len(w.rows)+2; c++ {
				size, byz := 0, 0
				if cs := w.shardFor(c).cluster(c); cs != nil {
					size, byz = len(cs.members), cs.byz
				}
				if w.Size(c) != size || w.Byz(c) != byz {
					t.Fatalf("shards=%d step %d: %v reads (%d, %d), record (%d, %d)", shards, step, c, w.Size(c), w.Byz(c), size, byz)
				}
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
			t.Fatalf("shards=%d: %d splits, %d merges; the row writes of putCluster and retire went untested", shards, s.Splits, s.Merges)
		}
	}
}

// TestCheckConsistencyCatchesRowDrift corrupts the row table and requires
// CheckConsistency to report it, for a live cluster and for an ID with no
// live cluster.
func TestCheckConsistencyCatchesRowDrift(t *testing.T) {
	w := newTestWorld(t, 1, 6)
	c := w.Clusters()[0]
	w.rows[c].byz++
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "row") {
		t.Fatalf("live row drift not reported: %v", err)
	}
	w.rows[c].byz--
	w.rows = append(w.rows, clusterRow{size: 1})
	if err := w.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "row") {
		t.Fatalf("unminted row not reported: %v", err)
	}
}

// TestRetireZeroesRow retires a populated record directly (protocol paths
// empty a cluster before retiring it, so their rows are already zero) and
// requires its row to read (0, 0).
func TestRetireZeroesRow(t *testing.T) {
	w := newTestWorld(t, 1, 7)
	c := w.Clusters()[0]
	if w.Size(c) == 0 {
		t.Fatal("test cluster is empty")
	}
	if !w.shardFor(c).retire(c) {
		t.Fatal("retire of a live cluster reported false")
	}
	if w.Size(c) != 0 || w.Byz(c) != 0 {
		t.Fatalf("retired %v reads (%d, %d), want (0, 0)", c, w.Size(c), w.Byz(c))
	}
}
