package core

import (
	"testing"

	"nowover/internal/ids"
)

// Regression layer for the size-multiset max tracker: the historical
// map-backed noteSizeChange deleted zeroed entries and then re-read the
// deleted count to decide whether the stale-max recompute was needed —
// an ordering hazard the dense slice multiset removes by construction.
// These tests pin the tracker against a ground-truth recompute through
// every transition kind, at the unit level and through the protocol's
// own shrink/split/merge paths.

// recountMax recomputes the true max from the multiset.
func recountMax(w *World) int {
	for m := len(w.sizeCount) - 1; m > 0; m-- {
		if w.sizeCount[m] != 0 {
			return m
		}
	}
	return 0
}

func TestNoteSizeChangeMaxScanDown(t *testing.T) {
	w := &World{}
	check := func(want int) {
		t.Helper()
		if w.maxSize != want {
			t.Fatalf("tracked max %d, want %d", w.maxSize, want)
		}
		if got := recountMax(w); got != w.maxSize {
			t.Fatalf("tracked max %d, multiset recount %d", w.maxSize, got)
		}
	}
	w.noteSizeChange(0, 5) // first cluster appears at size 5
	w.noteSizeChange(0, 5) // a second cluster ties the max
	w.noteSizeChange(0, 3)
	check(5)
	w.noteSizeChange(5, 4) // one of the two maxima shrinks: max holds
	check(5)
	w.noteSizeChange(5, 4) // the unique max shrinks: scan down
	check(4)
	w.noteSizeChange(4, 6) // growth past the old max
	check(6)
	w.noteSizeChange(6, 0) // the unique max retires outright
	check(4)
	w.noteSizeChange(4, 0)
	check(3)
	w.noteSizeChange(3, 0) // last cluster gone
	check(0)
	w.noteSizeChange(0, 7) // repopulate from empty
	check(7)
}

// TestMaxSizeTrackerThroughShrinkSplitMerge drives the (unique) largest
// cluster through the transitions that stress the stale-max recompute —
// shrinking the current maximum member by member, splitting an oversized
// cluster in half, merging an undersized one away — and cross-checks the
// tracked max against ground truth after every operation through the
// CheckInvariants oracle (which recounts the true max on each call).
func TestMaxSizeTrackerThroughShrinkSplitMerge(t *testing.T) {
	w := newTestWorld(t, 99)
	requireInvariants(t, w)

	pick := func(want func(sz, best int) bool) ids.ClusterID {
		var best ids.ClusterID
		bestSize := -1
		for _, c := range w.Clusters() {
			if sz := w.Size(c); bestSize < 0 || want(sz, bestSize) {
				best, bestSize = c, sz
			}
		}
		return best
	}
	largest := func() ids.ClusterID {
		return pick(func(sz, best int) bool { return sz > best })
	}
	smallest := func() ids.ClusterID {
		return pick(func(sz, best int) bool { return sz < best })
	}
	leaveOne := func(c ids.ClusterID) {
		t.Helper()
		members := w.Members(c)
		if len(members) == 0 {
			t.Fatalf("cluster %v empty", c)
		}
		if err := w.Leave(members[0]); err != nil {
			t.Fatalf("leave from %v: %v", c, err)
		}
		requireInvariants(t, w)
	}

	// Shrink: peel members off whatever cluster currently holds the
	// max, forcing repeated scan-downs of the tracked maximum.
	maxBefore := w.MaxClusterSize()
	for i := 0; i < 30; i++ {
		leaveOne(largest())
	}
	if got := w.MaxClusterSize(); got >= maxBefore {
		t.Fatalf("max %d did not shrink from %d", got, maxBefore)
	}

	// Merge: drain the smallest cluster through the merge threshold so
	// a retire + refill of the absorbing cluster goes through the
	// multiset.
	for i := 0; i < 100 && w.Stats().Merges == 0; i++ {
		leaveOne(smallest())
	}
	if w.Stats().Merges == 0 {
		t.Fatal("drain phase produced no merge")
	}

	// Grow: joins until at least one split bisects a max-size cluster.
	before := w.Stats().Splits
	for i := 0; i < 400 && w.Stats().Splits == before; i++ {
		if _, err := w.JoinAuto(i%7 == 0); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		requireInvariants(t, w)
	}
	if w.Stats().Splits == before {
		t.Fatal("growth phase produced no split")
	}
}
