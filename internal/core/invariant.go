package core

import (
	"fmt"

	"nowover/internal/ids"
)

// CheckInvariants asserts the global consistency properties the paper's
// maintenance operations promise to preserve. It runs CheckConsistency
// first, which recounts every cluster's row and overlay weight, the
// insecure counters, the size multiset and the tracked max, and checks
// that the members across clusters number the indexed nodes and that the
// overlay vertex set is the cluster set. On top of that:
//
//   - no node sits in two member slots, so with the member count above
//     every indexed node is a member of exactly one cluster;
//   - no cluster is empty, none exceeds the split threshold, and — when
//     more than one cluster exists, so merging was possible — none sits
//     below the merge threshold.
//
// It is the reusable oracle for the randomized-op, fuzz and batch test
// layers, valid for the one-op API and ExecBatch alike: a batch runs its
// ops one by one through the one-op code, so these invariants hold at
// every batch boundary exactly as they do after every one-op call.
func CheckInvariants(w *World) error {
	if err := w.CheckConsistency(); err != nil {
		return err
	}

	// seen is a NodeID-indexed bitset: CheckConsistency has found every
	// member in the node table, so len(w.nodes) bits cover them all.
	seen := make([]uint64, (len(w.nodes)+63)/64)
	lo, hi := w.cfg.MergeThreshold(), w.cfg.SplitThreshold()
	// Ascending ClusterID walk: which violated invariant gets reported is
	// part of the oracle's observable output, so the scan order must come
	// from the cluster IDs, not any map hash seed.
	for i := range w.clusters {
		cs := &w.clusters[i]
		if !cs.live {
			continue
		}
		c := ids.ClusterID(i)
		size := len(cs.members)
		if size == 0 {
			return fmt.Errorf("invariant: cluster %v is empty", c)
		}
		if size > hi {
			return fmt.Errorf("invariant: cluster %v size %d above split threshold %d", c, size, hi)
		}
		if w.NumClusters() > 1 && size < lo {
			return fmt.Errorf("invariant: cluster %v size %d below merge threshold %d", c, size, lo)
		}
		for _, x := range cs.members {
			word, bit := x>>6, uint64(1)<<(x&63)
			if seen[word]&bit != 0 {
				return fmt.Errorf("invariant: node %v is a member of two clusters", x)
			}
			seen[word] |= bit
		}
	}
	return nil
}
