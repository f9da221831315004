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
//   - every cluster's Byzantine counter, security class and the size
//     multiset equal a recount (via CheckConsistency), and the
//     tracked max cluster size equals the true maximum;
//   - no cluster is empty, none exceeds the split threshold, and — when
//     more than one cluster exists, so merging was possible — none sits
//     below the merge threshold;
//   - the overlay vertex set and the cluster set are identical.
//
// It is the reusable oracle for the randomized-op, fuzz and batch test
// layers, valid for the one-op API and ExecBatch alike: a batch runs its
// ops one by one through the one-op code, so these invariants hold at
// every batch boundary exactly as they do after every one-op call.
func CheckInvariants(w *World) error {
	if err := w.CheckConsistency(); err != nil {
		return err
	}

	// Membership union == node index, each node in exactly one cluster.
	// The walk also recomputes the true maximum cluster size so the
	// tracked max (World.maxSize, maintained by noteSizeChange's
	// size-multiset scan-down) is checked against ground truth on every
	// oracle call — the regression oracle for the stale-max recompute.
	// seen is a NodeID-indexed bitset: CheckConsistency has found every
	// member in the node table, so len(w.nodes) bits cover them all.
	seen := make([]uint64, (len(w.nodes)+63)/64)
	members := 0
	lo, hi := w.cfg.MergeThreshold(), w.cfg.SplitThreshold()
	clusters := 0
	trueMax := 0
	// Ascending ClusterID walk: which violated invariant gets reported is
	// part of the oracle's observable output, so the scan order must come
	// from the cluster IDs, not any map hash seed.
	for i, cs := range w.clusters {
		if cs == nil {
			continue
		}
		c := ids.ClusterID(i)
		clusters++
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
			word, bit := x>>6, uint64(1)<<(x&63)
			if seen[word]&bit != 0 {
				return fmt.Errorf("invariant: node %v is a member of two clusters", x)
			}
			seen[word] |= bit
			members++
		}
	}
	if members != w.NumNodes() {
		return fmt.Errorf("invariant: %d member nodes vs %d indexed nodes", members, w.NumNodes())
	}
	if got := w.MaxClusterSize(); got != trueMax {
		return fmt.Errorf("invariant: tracked max cluster size %d, true max %d", got, trueMax)
	}

	// Overlay vertices == cluster set.
	vs := w.overlay.Vertices()
	if len(vs) != clusters {
		return fmt.Errorf("invariant: overlay has %d vertices vs %d clusters", len(vs), clusters)
	}
	for _, c := range vs {
		if !w.hasCluster(c) {
			return fmt.Errorf("invariant: overlay vertex %v is not a cluster", c)
		}
	}
	return nil
}
