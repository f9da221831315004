package core

import (
	"fmt"

	"nowover/internal/ids"
)

// CheckInvariants asserts the global consistency properties the paper's
// maintenance operations promise to preserve, on top of the bookkeeping
// cross-checks of CheckConsistency:
//
//   - every node is a member of exactly one cluster, and the membership
//     union equals the node index (no phantom, duplicated or orphaned
//     nodes);
//   - every cluster's Byzantine counter, security class and the per-shard
//     size multisets equal a recount (via CheckConsistency), and the
//     tracked max cluster size equals the true maximum;
//   - no cluster is empty, none exceeds the split threshold, and — when
//     more than one cluster exists, so merging was possible — none sits
//     below the merge threshold;
//   - the overlay vertex set and the cluster set are identical.
//
// It is the reusable oracle for the randomized-op, fuzz and scheduler
// test layers, valid in both the serial and sharded execution modes: the
// op scheduler defers every structural operation to its serial tail, so
// these invariants must hold at every batch boundary exactly as they do
// after every classic operation.
func CheckInvariants(w *World) error {
	if err := w.CheckConsistency(); err != nil {
		return err
	}

	// Membership union == node index, each node in exactly one cluster.
	// The walk also recomputes the true maximum cluster size so the
	// tracked max (worldShard.maxSize, maintained by noteSizeChange's
	// size-multiset scan-down) is checked against ground truth on every
	// oracle call — the regression oracle for the stale-max recompute.
	seen := make(ids.NodeSet, w.NumNodes())
	lo, hi := w.cfg.MergeThreshold(), w.cfg.SplitThreshold()
	clusters := ids.NewClusterSet()
	trueMax := 0
	for _, s := range w.shards {
		// Ascending slot walk = ascending ClusterID within the shard:
		// which violated invariant gets reported is part of the oracle's
		// observable output, so the scan order must come from the cluster
		// IDs, not any map hash seed.
		for slot, cs := range s.clusters {
			if cs == nil {
				continue
			}
			c := s.idAt(slot)
			clusters.Add(c)
			size := len(cs.members)
			if size > trueMax {
				trueMax = size
			}
			if size == 0 {
				return fmt.Errorf("invariant: cluster %v is empty", c)
			}
			if size > hi {
				return fmt.Errorf("invariant: cluster %v size %d above split threshold %d", c, size, hi)
			}
			if w.nClusters > 1 && size < lo {
				return fmt.Errorf("invariant: cluster %v size %d below merge threshold %d", c, size, lo)
			}
			for _, x := range cs.members {
				if !seen.Add(x) {
					return fmt.Errorf("invariant: node %v is a member of two clusters", x)
				}
			}
		}
	}
	if seen.Len() != w.NumNodes() {
		return fmt.Errorf("invariant: %d member nodes vs %d indexed nodes", seen.Len(), w.NumNodes())
	}
	if got := w.MaxClusterSize(); got != trueMax {
		return fmt.Errorf("invariant: tracked max cluster size %d, true max %d", got, trueMax)
	}

	// Overlay vertices == cluster set.
	vs := w.overlay.Vertices()
	if len(vs) != clusters.Len() {
		return fmt.Errorf("invariant: overlay has %d vertices vs %d clusters", len(vs), clusters.Len())
	}
	for _, c := range vs {
		if !clusters.Has(c) {
			return fmt.Errorf("invariant: overlay vertex %v is not a cluster", c)
		}
	}
	return nil
}
