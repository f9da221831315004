package core

import (
	"fmt"
	"strings"

	"nowover/internal/ids"
	"nowover/internal/over"
	"nowover/internal/randnum"
)

// Audit is a point-in-time invariant check of the world: the quantities
// the paper's theorems bound. Cheap (O(#clusters + #overlay edges), and
// allocation-free: the connectivity BFS reuses the overlay's scratch);
// call as often as needed. Structural expansion checks are costlier — see
// OverlayHealth.
type Audit struct {
	Nodes    int
	Byz      int
	Clusters int

	MinSize, MaxSize int
	// SizeLo/SizeHi are the configured merge/split thresholds for
	// reference.
	SizeLo, SizeHi int

	// MaxByzFraction is the worst current per-cluster Byzantine fraction.
	MaxByzFraction float64
	// Degraded counts clusters at >= 1/3 Byzantine (quorum rule at risk);
	// Captured counts clusters at >= 1/2 (adversary speaks for them).
	Degraded, Captured int

	MinDegree, MaxDegree int
	OverlayConnected     bool
}

// OK reports whether every invariant the paper maintains holds: all
// clusters strictly below 1/3 Byzantine, sizes within thresholds, overlay
// connected.
func (a Audit) OK() bool {
	return a.Degraded == 0 && a.Captured == 0 &&
		a.MinSize >= a.SizeLo && a.MaxSize <= a.SizeHi &&
		a.OverlayConnected
}

// String renders the audit compactly.
func (a Audit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d (byz %d) clusters=%d size=[%d,%d] (bounds %d..%d) ",
		a.Nodes, a.Byz, a.Clusters, a.MinSize, a.MaxSize, a.SizeLo, a.SizeHi)
	fmt.Fprintf(&b, "maxByzFrac=%.3f degraded=%d captured=%d deg=[%d,%d] connected=%v",
		a.MaxByzFraction, a.Degraded, a.Captured, a.MinDegree, a.MaxDegree, a.OverlayConnected)
	return b.String()
}

// Audit computes the invariant check.
func (w *World) Audit() Audit {
	a := Audit{
		Nodes:    len(w.allNodes),
		Byz:      len(w.byzNodes),
		Clusters: w.nClusters,
		SizeLo:   w.cfg.MergeThreshold(),
		SizeHi:   w.cfg.SplitThreshold(),
	}
	first := true
	for _, s := range w.shards {
		// Ascending slot walk = ascending ClusterID within the shard:
		// min/max/fraction folds are commutative, but the audit is part of
		// rendered output and the determinism contract is cheaper to hold
		// uniformly than to re-prove per fold.
		for _, cs := range s.clusters {
			if cs == nil {
				continue
			}
			size := len(cs.members)
			if first {
				a.MinSize, a.MaxSize = size, size
				first = false
			} else {
				if size < a.MinSize {
					a.MinSize = size
				}
				if size > a.MaxSize {
					a.MaxSize = size
				}
			}
			if size > 0 {
				if f := float64(cs.byz) / float64(size); f > a.MaxByzFraction {
					a.MaxByzFraction = f
				}
			}
			switch randnum.Classify(size, cs.byz) {
			case randnum.Degraded:
				a.Degraded++
			case randnum.Captured:
				a.Captured++
				a.Degraded++ // captured clusters are degraded too
			}
		}
	}
	a.MinDegree, a.MaxDegree = w.overlay.DegreeRange()
	a.OverlayConnected = w.overlay.Connected()
	return a
}

// OverlayHealth runs the structural OVER audit (degrees + expansion
// estimates); randomized analyses draw from a stream split off the world's
// seed so they do not perturb protocol randomness.
func (w *World) OverlayHealth(spectralIters, randomCuts int) over.Health {
	return w.overlay.CheckHealth(w.rng.Split(0xAEA1), spectralIters, randomCuts)
}

// CheckConsistency exhaustively cross-checks the world's redundant
// bookkeeping (membership indexes, Byzantine counts, the row table,
// per-shard size multisets and max trackers, the incremental security
// classes and insecure counters, arena slot placement, overlay/partition
// correspondence, the overlay's own structure). Used by tests and the
// simulator's paranoid mode; returns the first inconsistency found. All walks run in ascending
// slot (= ascending ID) order, so which inconsistency is reported first
// is a function of the state, not of any map hash seed.
func (w *World) CheckConsistency() error {
	nodeRecords := 0
	for _, ns := range w.nodeShards {
		present := 0
		for _, info := range ns.nodes {
			if info.present {
				present++
			}
		}
		if present != ns.count {
			return fmt.Errorf("consistency: node shard %d counts %d records, actual %d", ns.index, ns.count, present)
		}
		nodeRecords += present
	}
	if len(w.allNodes) != nodeRecords {
		return fmt.Errorf("consistency: %d indexed nodes vs %d records", len(w.allNodes), nodeRecords)
	}
	totalMembers := 0
	totalClusters := 0
	maxSize := 0
	for si, s := range w.shards {
		shardMax := 0
		liveSlots := 0
		degraded, captured := 0, 0
		sizes := make([]int32, len(s.sizeCount))
		queued := make(map[int32]bool, len(s.dirtySlots))
		for _, slot := range s.dirtySlots {
			queued[slot] = true
		}
		for slot, cs := range s.clusters {
			if cs == nil {
				continue
			}
			c := s.idAt(slot)
			liveSlots++
			if !w.overlay.Has(c) {
				return fmt.Errorf("consistency: cluster %v missing from overlay", c)
			}
			byz := 0
			for _, x := range cs.members {
				info, ok := w.nodeInfoOf(x)
				if !ok {
					return fmt.Errorf("consistency: member %v of %v unknown", x, c)
				}
				if info.cluster != c {
					return fmt.Errorf("consistency: node %v thinks it is in %v, member list says %v", x, info.cluster, c)
				}
				if info.byz {
					byz++
				}
			}
			if byz != cs.byz {
				return fmt.Errorf("consistency: cluster %v byz count %d, actual %d", c, cs.byz, byz)
			}
			if row := w.rows[c]; int(row.size) != len(cs.members) || int(row.byz) != byz {
				return fmt.Errorf("consistency: cluster %v row (%d, %d), actual (%d, %d)", c, row.size, row.byz, len(cs.members), byz)
			}
			want := randnum.Secure
			if len(cs.members) > 0 {
				want = randnum.Classify(len(cs.members), cs.byz)
			}
			if cs.sec != want {
				return fmt.Errorf("consistency: cluster %v live class %v, actual %v", c, cs.sec, want)
			}
			if cs.sec >= randnum.Degraded {
				degraded++
			}
			if cs.sec == randnum.Captured {
				captured++
			}
			if cs.dirty && !queued[int32(slot)] {
				return fmt.Errorf("consistency: cluster %v dirty but not queued for settle", c)
			}
			totalMembers += len(cs.members)
			totalClusters++
			if len(cs.members) > shardMax {
				shardMax = len(cs.members)
			}
			if n := len(cs.members); n > 0 {
				if n >= len(sizes) {
					sizes = append(sizes, make([]int32, n+1-len(sizes))...)
				}
				sizes[n]++
			}
		}
		if liveSlots != s.liveSlots {
			return fmt.Errorf("consistency: shard %d tracks %d live slots, actual %d", si, s.liveSlots, liveSlots)
		}
		if degraded != s.degraded || captured != s.captured {
			return fmt.Errorf("consistency: shard %d insecure counters %d/%d, actual %d/%d",
				si, s.degraded, s.captured, degraded, captured)
		}
		if shardMax != s.maxSize {
			return fmt.Errorf("consistency: shard %d tracked max size %d, actual %d", si, s.maxSize, shardMax)
		}
		if shardMax > maxSize {
			maxSize = shardMax
		}
		for sz := range sizes {
			var got int32
			if sz < len(s.sizeCount) {
				got = s.sizeCount[sz]
			}
			if got != sizes[sz] {
				return fmt.Errorf("consistency: shard %d size multiset at %d is %d, actual %d", si, sz, got, sizes[sz])
			}
		}
		for sz := len(sizes); sz < len(s.sizeCount); sz++ {
			if n := s.sizeCount[sz]; n != 0 {
				return fmt.Errorf("consistency: shard %d size multiset extra entry %d=%d", si, sz, n)
			}
		}
	}
	if totalMembers != nodeRecords {
		return fmt.Errorf("consistency: %d members across clusters vs %d nodes", totalMembers, nodeRecords)
	}
	if totalClusters != w.nClusters {
		return fmt.Errorf("consistency: cluster counter %d vs %d stored clusters", w.nClusters, totalClusters)
	}
	if w.overlay.NumVertices() != totalClusters {
		return fmt.Errorf("consistency: overlay has %d vertices vs %d clusters", w.overlay.NumVertices(), totalClusters)
	}
	for i, row := range w.rows {
		if c := ids.ClusterID(i); row != (clusterRow{}) && !w.hasCluster(c) {
			return fmt.Errorf("consistency: retired or unminted cluster %v has row (%d, %d)", c, row.size, row.byz)
		}
	}
	if err := w.overlay.Check(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	if maxSize != w.MaxClusterSize() {
		return fmt.Errorf("consistency: tracked max size %d, actual %d", w.MaxClusterSize(), maxSize)
	}
	for _, x := range w.byzNodes {
		info, ok := w.nodeInfoOf(x)
		if !ok || !info.byz {
			return fmt.Errorf("consistency: byz index entry %v invalid", x)
		}
	}
	for _, ns := range w.nodeShards {
		for slot, info := range ns.nodes {
			if !info.present {
				continue
			}
			x := ids.NodeID(uint64(slot)*uint64(ns.stride) + uint64(ns.index))
			if p := w.samplePos(x); p < 0 || w.allNodes[p] != x {
				return fmt.Errorf("consistency: node %v missing from flat index", x)
			}
			if info.byz {
				if p := w.byzSamplePos(x); p < 0 || w.byzNodes[p] != x {
					return fmt.Errorf("consistency: byz node %v missing from index", x)
				}
			}
		}
	}
	return nil
}
