package core

import (
	"fmt"
	"math/bits"
	"strings"

	"nowover/internal/ids"
	"nowover/internal/over"
	"nowover/internal/randnum"
	"nowover/internal/walk"
)

// Audit is a point-in-time invariant check of the world: the quantities
// the paper's theorems bound. Cheap and allocation-free: the cluster half
// is one O(#clusters) fold; the overlay half (degree range and
// connectivity) is O(1) until the overlay changes, because the overlay
// caches it, and one degree scan plus one BFS on the overlay's reused
// scratch after a change. Call as often as needed. Structural expansion
// checks are costlier — see OverlayHealth.
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
		Clusters: w.NumClusters(),
		SizeLo:   w.cfg.MergeThreshold(),
		SizeHi:   w.cfg.SplitThreshold(),
	}
	first := true
	// Ascending ClusterID walk: min/max/fraction folds are commutative, but
	// the audit is part of rendered output and the determinism contract is
	// cheaper to hold uniformly than to re-prove per fold.
	for i := range w.clusters {
		if !w.clusters[i].live {
			continue
		}
		row := w.rows[i]
		size := int(row.Size)
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
			if f := float64(row.Byz) / float64(size); f > a.MaxByzFraction {
				a.MaxByzFraction = f
			}
		}
		switch rowClass(row) {
		case randnum.Degraded:
			a.Degraded++
		case randnum.Captured:
			a.Captured++
			a.Degraded++ // captured clusters are degraded too
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

// CheckConsistency recounts every derived store of the world against the
// store it derives from and returns the first disagreement: each node
// record's sampling position against the flat index, each member list
// against the node records, and the row (size, Byzantine count) each
// cluster's members and the allegiance bitset give against its row, its
// overlay weight, the size multiset and max tracker, the insecure
// counters and the settle queue; the Byzantine index against the bitset;
// the cluster table against the overlay's vertex set; and the overlay's
// own structure. Used by tests and the simulator's paranoid mode. All
// walks run in ascending ID order, so which inconsistency is reported
// first is a function of the state, not of any map hash seed.
func (w *World) CheckConsistency() error {
	nodeRecords := 0
	for i, info := range w.nodes {
		if info.pos == 0 {
			continue
		}
		x := ids.NodeID(i)
		if p := int(info.pos) - 1; p < 0 || p >= len(w.allNodes) || w.allNodes[p] != x {
			return fmt.Errorf("consistency: node %v has sampling position %d, not its place in the flat index", x, p)
		}
		if w.IsByzantine(x) {
			if p := w.byzSamplePos(x); p < 0 || int(p) >= len(w.byzNodes) || w.byzNodes[p] != x {
				return fmt.Errorf("consistency: byz node %v missing from index", x)
			}
		}
		nodeRecords++
	}
	// Each record's position holds its own node, so the positions are
	// distinct; as many records as entries makes them every entry.
	if len(w.allNodes) != nodeRecords {
		return fmt.Errorf("consistency: %d indexed nodes vs %d records", len(w.allNodes), nodeRecords)
	}
	totalMembers := 0
	totalClusters := 0
	maxSize := 0
	degraded, captured := 0, 0
	sizes := make([]int32, len(w.sizeCount))
	queued := make(map[ids.ClusterID]bool, len(w.settleQueue))
	for _, c := range w.settleQueue {
		queued[c] = true
	}
	for i := range w.clusters {
		cs := &w.clusters[i]
		c := ids.ClusterID(i)
		if !cs.live {
			if len(cs.members) != 0 {
				return fmt.Errorf("consistency: retired or unminted cluster %v holds %d members", c, len(cs.members))
			}
			continue
		}
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
			byz += byzCount(w.IsByzantine(x))
		}
		n := len(cs.members)
		if row := w.rows[c]; int(row.Size) != n || int(row.Byz) != byz {
			return fmt.Errorf("consistency: cluster %v row (%d, %d), actual (%d, %d)", c, row.Size, row.Byz, n, byz)
		}
		if wt := w.overlay.Weight(c); wt != int64(n) {
			return fmt.Errorf("consistency: cluster %v has overlay weight %d, size %d", c, wt, n)
		}
		class := rowClass(walk.Row{Size: int32(n), Byz: int32(byz)})
		if class >= randnum.Degraded {
			degraded++
		}
		if class == randnum.Captured {
			captured++
		}
		if cs.dirty && !queued[c] {
			return fmt.Errorf("consistency: cluster %v dirty but not queued for settle", c)
		}
		totalMembers += n
		totalClusters++
		maxSize = max(maxSize, n)
		if n > 0 {
			if n >= len(sizes) {
				sizes = append(sizes, make([]int32, n+1-len(sizes))...)
			}
			sizes[n]++
		}
	}
	if degraded != w.degraded || captured != w.captured {
		return fmt.Errorf("consistency: insecure counters %d/%d, actual %d/%d",
			w.degraded, w.captured, degraded, captured)
	}
	if maxSize != w.maxSize {
		return fmt.Errorf("consistency: tracked max size %d, actual %d", w.maxSize, maxSize)
	}
	for sz := range sizes {
		var got int32
		if sz < len(w.sizeCount) {
			got = w.sizeCount[sz]
		}
		if got != sizes[sz] {
			return fmt.Errorf("consistency: size multiset at %d is %d, actual %d", sz, got, sizes[sz])
		}
	}
	for sz := len(sizes); sz < len(w.sizeCount); sz++ {
		if n := w.sizeCount[sz]; n != 0 {
			return fmt.Errorf("consistency: size multiset extra entry %d=%d", sz, n)
		}
	}
	if totalMembers != nodeRecords {
		return fmt.Errorf("consistency: %d members across clusters vs %d nodes", totalMembers, nodeRecords)
	}
	if w.overlay.NumVertices() != totalClusters {
		return fmt.Errorf("consistency: overlay has %d vertices vs %d clusters", w.overlay.NumVertices(), totalClusters)
	}
	for i, row := range w.rows {
		c := ids.ClusterID(i)
		if w.hasCluster(c) {
			continue
		}
		if row != (walk.Row{}) {
			return fmt.Errorf("consistency: retired or unminted cluster %v has row (%d, %d)", c, row.Size, row.Byz)
		}
		if wt := w.overlay.Weight(c); wt != 0 {
			return fmt.Errorf("consistency: retired or unminted cluster %v has overlay weight %d", c, wt)
		}
	}
	if err := w.overlay.Check(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	for _, x := range w.byzNodes {
		if !w.Contains(x) || !w.IsByzantine(x) {
			return fmt.Errorf("consistency: byz index entry %v invalid", x)
		}
	}
	marked := 0
	for _, word := range w.byzBits {
		marked += bits.OnesCount64(word)
	}
	if marked != len(w.byzNodes) {
		return fmt.Errorf("consistency: allegiance bitset marks %d Byzantine nodes, byz index %d", marked, len(w.byzNodes))
	}
	return nil
}
