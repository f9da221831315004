package core

import (
	"errors"
	"fmt"

	"nowover/internal/exchange"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/over"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// ErrUnknownNode reports an operation aimed at a node that is not in the
// network. Batch drivers match it to distinguish "the victim already left"
// from genuine protocol failures.
var ErrUnknownNode = errors.New("core: unknown node")

// IsUnknownNode reports whether err indicates an operation aimed at a node
// that is not (or no longer) in the network.
func IsUnknownNode(err error) bool { return errors.Is(err, ErrUnknownNode) }

// ErrUnknownCluster reports an operation aimed at a cluster that is not in
// the overlay — typically one dissolved by a merge earlier in the same
// batch. Batch drivers match it the same way as ErrUnknownNode.
var ErrUnknownCluster = errors.New("core: unknown cluster")

// IsUnknownCluster reports whether err indicates an operation aimed at a
// cluster that is not (or no longer) in the overlay.
func IsUnknownCluster(err error) bool { return errors.Is(err, ErrUnknownCluster) }

// nodeInfo is the world's per-node record. Records live in a dense
// NodeID-indexed table (World.nodes); present distinguishes a live record
// from a never-used or vacated entry. A node's allegiance is not here but
// in the world's byzBits.
type nodeInfo struct {
	cluster ids.ClusterID
	present bool
}

// clusterState is the world's per-cluster record: member list, incremental
// Byzantine count, and the security bookkeeping folded by settleSecurity
// at operation boundaries. Records live in the world's ClusterID-indexed
// arena — retired records keep their member capacity and return to a free
// list for recycling by putCluster — so steady-state churn allocates
// nothing.
//
// Member removal is a linear scan: cluster sizes are bounded by the split
// threshold (K·L·log2 N, ~80 at n=2^20), so the scan is cheaper than the
// position map it replaced and keeps the record to two words of header
// state per cluster.
type clusterState struct {
	members []ids.NodeID
	byz     int
	// sec is the current (live) security class, maintained incrementally
	// by World.reclassify on every membership/allegiance change.
	sec randnum.Security
	// settled is the class as of the last settleSecurity pass; the
	// sec-vs-settled delta drives the Degraded/CapturedEvents counters.
	settled randnum.Security
	// dirty marks the record as queued in the world's settle queue.
	dirty bool
}

func (cs *clusterState) indexOf(x ids.NodeID) int {
	for i, m := range cs.members {
		if m == x {
			return i
		}
	}
	return -1
}

func (cs *clusterState) add(x ids.NodeID, byz bool) {
	cs.members = append(cs.members, x)
	if byz {
		cs.byz++
	}
}

func (cs *clusterState) remove(x ids.NodeID, byz bool) error {
	i := cs.indexOf(x)
	if i < 0 {
		// Double removal (e.g. of a node that was swap-moved out by an
		// earlier removal) lands here: the membership scan is the guard.
		return fmt.Errorf("core: node %v not in cluster", x)
	}
	if byz && cs.byz == 0 {
		return fmt.Errorf("core: removing %v would underflow the Byzantine count", x)
	}
	last := len(cs.members) - 1
	cs.members[i] = cs.members[last]
	cs.members = cs.members[:last]
	if byz {
		cs.byz--
	}
	// An emptied record deliberately keeps its backing array: the cluster
	// is about to be retired into the world's free list (or refilled), and
	// the retained capacity is what makes the recycled record's next fill
	// allocation-free.
	return nil
}

// clone deep-copies the membership-relevant fields of the record; the copy
// carries no security bookkeeping.
func (cs *clusterState) clone() *clusterState {
	out := &clusterState{
		members: make([]ids.NodeID, len(cs.members)),
		byz:     cs.byz,
	}
	copy(out.members, cs.members)
	return out
}

// Stats accumulates protocol-lifetime counters and security high-water
// marks.
type Stats struct {
	Joins, Leaves, Splits, Merges int64
	// Rejoins counts re-insertions of merge-displaced nodes; each is also
	// counted in Joins (a rejoin executes the Join operation).
	Rejoins int64
	// Swaps counts individual node exchanges.
	Swaps int64
	// HijackedWalks counts walks redirected through captured clusters.
	HijackedWalks int64
	// DegradedEvents / CapturedEvents count transitions of a cluster into
	// the >=1/3-Byzantine and >=1/2-Byzantine states. These are the
	// security failures whose absence Theorem 3 guarantees.
	DegradedEvents, CapturedEvents int64
	// MaxByzFractionEver is the worst per-cluster Byzantine fraction
	// observed at any point in the run.
	MaxByzFractionEver float64
}

// hijackProxy lets the adversary be installed after World construction:
// walker configs capture the proxy once and read whatever hook is current.
type hijackProxy struct {
	h walk.Hijacker
}

func (p *hijackProxy) Redirect(r *xrand.Rand, at ids.ClusterID) (ids.ClusterID, bool) {
	if p.h == nil {
		return 0, false
	}
	return p.h.Redirect(r, at)
}

func (p *hijackProxy) set(h walk.Hijacker) { p.h = h }

// World is the complete NOW protocol state. Every cluster-keyed table is
// indexed by ClusterID and every node-keyed table by NodeID: IDs are minted
// densely and never reused, so each index belongs to one cluster (node) for
// the lifetime of the world, and an ascending index walk IS an ascending ID
// walk — which keeps every pass over the tables deterministic without
// sorting.
//
// The world is not safe for concurrent use: the paper's model is
// synchronous and every method runs on one goroutine.
type World struct {
	cfg     Config
	led     *metrics.Ledger
	rng     *xrand.Rand
	walkCfg walk.Config

	// clusters is the cluster arena; nil = retired or not yet minted.
	clusters []*clusterState
	// free holds retired records (capacity retained) for putCluster.
	free      []*clusterState
	nClusters int
	overlay   *over.Overlay
	// rows is the composition table Size, Byz and View read: one
	// walk.Row per minted ClusterID, so a row is one indexed load with no
	// record pointer chase. Retired and not-yet-minted IDs read (0, 0).
	// Every mutator of a record's composition writes it through setRow.
	rows []walk.Row

	// sizeCount is the cluster-size multiset — sizeCount[s] = number of
	// clusters of size s — with maxSize as its tracked maximum. The dense
	// int-indexed layout makes the stale-max recompute an exact scan-down
	// (no deleted-entry ordering hazards: the count for every size is
	// always addressable).
	sizeCount []int32
	maxSize   int

	// degraded/captured count clusters whose live class is >= Degraded
	// resp. == Captured, so CurrentInsecure is O(1).
	degraded, captured int

	// settleQueue holds clusters whose record changed since the last
	// settle pass, deduplicated by clusterState.dirty.
	settleQueue []ids.ClusterID

	// nodes is the node index; nodeCount counts its present records.
	nodes     []nodeInfo
	nodeCount int
	// byzBits is the allegiance bitset: bit x is set iff node x is present
	// and Byzantine. One bit a node keeps it within the private caches at
	// sizes where the node table is not, and a swap reads both nodes' bits.
	byzBits []uint64

	nodeAlloc ids.NodeAllocator
	clAlloc   ids.ClusterAllocator

	// Flat node indexes for O(1) uniform sampling by workloads. nodePos
	// and byzPos are NodeID-indexed position arrays (-1 = absent). Their
	// ordering seeds RandomNode draws.
	allNodes []ids.NodeID
	nodePos  []int32
	byzNodes []ids.NodeID
	byzPos   []int32

	walker *walk.Walker
	exch   *exchange.Exchanger
	hijack *hijackProxy
	steer  func(ids.ClusterID) float64

	// hijackHook/steerHook are the installed hooks' batch lifecycles
	// (BatchHook side of SetHijacker / SetSteerHook), driven by ExecBatch:
	// BeginBatch before the first op, CommitOp in op order after the last.
	// See hooks.go.
	hijackHook BatchHook
	steerHook  BatchHook

	pendingRejoin []ids.NodeID
	rejoinByz     map[ids.NodeID]bool
	stats         Stats
	bootstrapped  bool

	// hijacked is ExecBatch's per-op hijacked-walk tally, handed to
	// CommitOp; kept so steady-state batches do not allocate it.
	hijacked []int64
}

// Interface compliance: the world is the topology the primitives run over.
var (
	_ walk.Topology  = (*World)(nil)
	_ exchange.World = (*World)(nil)
)

// NewWorld returns an empty world; call Bootstrap before operations.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ov, err := over.New(over.Params{
		TargetDegree: cfg.TargetDegree(),
		DegreeCap:    cfg.DegreeCap(),
		DegreeFloor:  cfg.DegreeFloor(),
		Repair:       cfg.OverlayRepair,
	})
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:       cfg,
		led:       &metrics.Ledger{},
		rng:       xrand.New(cfg.Seed),
		overlay:   ov,
		rejoinByz: make(map[ids.NodeID]bool),
		hijack:    &hijackProxy{},
	}
	w.walkCfg = walk.Config{
		DurationFactor: cfg.WalkDurationFactor,
		MaxRestarts:    maxWalkRestarts,
		Gen:            cfg.Generator,
		Hijack:         w.hijack,
		// Steer is installed whether or not a steer hook is: with none,
		// every cluster scores 0, so a captured cluster's next-hop draw
		// takes Adjacent(c)[0] and its acceptance coin accepts (see
		// walk.Config.Steer), not the uniform draw of a nil Objective.
		// Pinned by TestCapturedDrawsWithoutSteerHook; whether that is
		// the adversary model wanted is an open question.
		Steer: func(c ids.ClusterID) float64 { return w.steerScore(c) },
	}
	walker, err := walk.NewWalker(w.walkCfg, w)
	if err != nil {
		return nil, err
	}
	w.walker = walker
	exch, err := exchange.New(w, walker, cfg.Generator)
	if err != nil {
		return nil, err
	}
	w.exch = exch
	return w, nil
}

func (w *World) steerScore(c ids.ClusterID) float64 {
	if w.steer == nil {
		return 0
	}
	return w.steer(c)
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Ledger returns the world's cost ledger.
func (w *World) Ledger() *metrics.Ledger { return w.led }

// Stats returns the lifetime counters.
func (w *World) Stats() Stats { return w.stats }

// --- the cluster and node tables ---

// cluster returns the record for c, or nil when c is not a live cluster.
func (w *World) cluster(c ids.ClusterID) *clusterState {
	if uint64(c) < uint64(len(w.clusters)) {
		return w.clusters[c]
	}
	return nil
}

func (w *World) hasCluster(c ids.ClusterID) bool { return w.cluster(c) != nil }

// setRow publishes cs's composition to c's row, and a new size to c's
// overlay weight, which keeps its neighbours' masses exact.
func (w *World) setRow(c ids.ClusterID, cs *clusterState) {
	size := int32(len(cs.members))
	if w.rows[c].Size != size {
		w.overlay.SetWeight(c, int64(size))
	}
	w.rows[c] = walk.Row{Size: size, Byz: int32(cs.byz)}
}

// noteSizeChange updates the size multiset and max-size tracker for a
// cluster moving from size a to size b.
func (w *World) noteSizeChange(a, b int) {
	if a == b {
		return
	}
	if a > 0 {
		w.sizeCount[a]--
	}
	if b > 0 {
		if b >= len(w.sizeCount) {
			w.sizeCount = append(w.sizeCount, make([]int32, b+1-len(w.sizeCount))...)
		}
		w.sizeCount[b]++
	}
	if b > w.maxSize {
		w.maxSize = b
	} else if a == w.maxSize && w.sizeCount[a] == 0 {
		// The (possibly unique) largest cluster shrank: scan down to the
		// next occupied size. The multiset is dense, so the scan is exact
		// by construction — there is no "entry already deleted" state for
		// the recompute to mis-read.
		m := a
		for m > 0 && w.sizeCount[m] == 0 {
			m--
		}
		w.maxSize = m
	}
}

// recomposed publishes a change to cs's members or Byzantine count: c's
// row, its live class and its place in the settle queue.
func (w *World) recomposed(c ids.ClusterID, cs *clusterState) {
	w.setRow(c, cs)
	w.reclassify(cs)
	w.markDirty(c, cs)
}

// markDirty queues c's record for the next settleSecurity pass.
func (w *World) markDirty(c ids.ClusterID, cs *clusterState) {
	if cs.dirty {
		return
	}
	cs.dirty = true
	w.settleQueue = append(w.settleQueue, c)
}

// reclassify recomputes a record's live security class after a membership
// or allegiance change, maintaining the insecure counters. Event counters
// are NOT advanced here — transients inside one operation are not time
// step states; settleSecurity handles accounting at operation boundaries.
func (w *World) reclassify(cs *clusterState) {
	now := randnum.Secure
	if len(cs.members) > 0 {
		now = randnum.Classify(len(cs.members), cs.byz)
	}
	if now == cs.sec {
		return
	}
	if cs.sec >= randnum.Degraded {
		w.degraded--
	}
	if cs.sec == randnum.Captured {
		w.captured--
	}
	if now >= randnum.Degraded {
		w.degraded++
	}
	if now == randnum.Captured {
		w.captured++
	}
	cs.sec = now
}

// putCluster installs a fresh cluster record for c, recycling a retired
// record (with its member capacity) when the free list has one.
func (w *World) putCluster(c ids.ClusterID) {
	if n := int(c) + 1; n > len(w.clusters) {
		w.clusters = append(w.clusters, make([]*clusterState, n-len(w.clusters))...)
	}
	if n := int(c) + 1; n > len(w.rows) {
		w.rows = append(w.rows, make([]walk.Row, n-len(w.rows))...)
	}
	var cs *clusterState
	if n := len(w.free); n > 0 {
		cs, w.free = w.free[n-1], w.free[:n-1]
	} else {
		cs = &clusterState{}
	}
	w.clusters[c] = cs
	w.nClusters++
}

// retire removes c's record from the arena and returns it — reset,
// capacity retained — to the free list, reporting whether c was live.
func (w *World) retire(c ids.ClusterID) bool {
	cs := w.cluster(c)
	if cs == nil {
		return false
	}
	w.noteSizeChange(len(cs.members), 0)
	cs.members = cs.members[:0]
	cs.byz = 0
	w.reclassify(cs) // live class -> Secure, counters updated
	cs.settled = randnum.Secure
	// Any settle-queue entry for c now points at a nil record and is
	// skipped by the settle pass; the flag must clear here so the recycled
	// record re-queues cleanly at its next home.
	cs.dirty = false
	w.clusters[c] = nil
	w.nClusters--
	w.free = append(w.free, cs)
	w.rows[c] = walk.Row{}
	w.overlay.SetWeight(c, 0)
	return true
}

func (w *World) nodeInfoOf(x ids.NodeID) (nodeInfo, bool) {
	var info nodeInfo
	if uint64(x) < uint64(len(w.nodes)) {
		info = w.nodes[x]
	}
	return info, info.present
}

func (w *World) setNodeInfo(x ids.NodeID, info nodeInfo) {
	info.present = true
	if n := int(x) + 1; n > len(w.nodes) {
		w.nodes = append(w.nodes, make([]nodeInfo, n-len(w.nodes))...)
	}
	if !w.nodes[x].present {
		w.nodeCount++
	}
	w.nodes[x] = info
}

func (w *World) deleteNodeInfo(x ids.NodeID) {
	if uint64(x) < uint64(len(w.nodes)) && w.nodes[x].present {
		w.nodes[x] = nodeInfo{}
		w.nodeCount--
	}
}

// setByz writes x's allegiance bit.
func (w *World) setByz(x ids.NodeID, byz bool) {
	i := int(x >> 6)
	if i >= len(w.byzBits) {
		if !byz {
			return
		}
		w.byzBits = append(w.byzBits, make([]uint64, i+1-len(w.byzBits))...)
	}
	if byz {
		w.byzBits[i] |= 1 << (x & 63)
	} else {
		w.byzBits[i] &^= 1 << (x & 63)
	}
}

// --- core membership mutators ---

// insertMember adds x (allegiance byz) to cluster c, updating the size
// multiset and live security class. It does not touch the node index.
func (w *World) insertMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := w.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: insert into unknown cluster %v", c)
	}
	w.noteSizeChange(len(cs.members), len(cs.members)+1)
	cs.add(x, byz)
	w.recomposed(c, cs)
	return nil
}

// removeMember removes x from c, updating the size multiset and live
// security class. It does not touch the node index.
func (w *World) removeMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := w.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: remove from unknown cluster %v", c)
	}
	n := len(cs.members)
	if err := cs.remove(x, byz); err != nil {
		return err
	}
	w.noteSizeChange(n, n-1)
	w.recomposed(c, cs)
	return nil
}

// --- walk.Topology ---

// NumClusters implements walk.Topology.
func (w *World) NumClusters() int { return w.nClusters }

// NumOverlayEdges implements walk.Topology.
func (w *World) NumOverlayEdges() int { return w.overlay.NumEdges() }

// Adjacent implements walk.Topology: c's overlay adjacency, not copied,
// read-only and invalidated by the next edge mutation incident to c.
func (w *World) Adjacent(c ids.ClusterID) []ids.ClusterID { return w.overlay.Adjacent(c) }

// Size implements walk.Topology: one read of c's row.
func (w *World) Size(c ids.ClusterID) int {
	if uint64(c) < uint64(len(w.rows)) {
		return int(w.rows[c].Size)
	}
	return 0
}

// Byz implements walk.Topology: one read of c's row.
func (w *World) Byz(c ids.ClusterID) int {
	if uint64(c) < uint64(len(w.rows)) {
		return int(w.rows[c].Byz)
	}
	return 0
}

// MaxClusterSize implements walk.Topology: the size multiset's tracked
// maximum.
func (w *World) MaxClusterSize() int { return w.maxSize }

// View implements walk.Topology: the row table and the overlay's
// ClusterID-indexed adjacency, not copied.
func (w *World) View() walk.View {
	return walk.View{Rows: w.rows, Adj: w.overlay.AdjTable()}
}

// --- exchange.World ---

// MemberAt implements exchange.World.
func (w *World) MemberAt(c ids.ClusterID, i int) ids.NodeID {
	return w.clusters[c].members[i]
}

// NeighborMass implements exchange.World: the number of nodes in c's
// overlay neighbours, the sum of |D| over every D adjacent to c, which
// the overlay keeps as c's neighbour mass (setRow and retire keep every
// cluster's weight its size). It is the neighbourhood term of every cost
// charge in which c's neighbours learn something about c or c's members
// learn its neighbours.
func (w *World) NeighborMass(c ids.ClusterID) int64 { return w.overlay.NeighborMass(c) }

// Swap implements exchange.World: x, a member of a, and y, the member at
// index j of b, trade clusters. The member lists end as two Transfers
// (x to b, then y to a) leave them: x's slot in a takes a's last member,
// y takes a's last slot, and x takes y's slot in b. No size changes, so
// the size multiset and the overlay weights stand; the rows, Byzantine
// counts, live classes and settle queue change only when x and y differ
// in allegiance. Each of the two moves counts in Stats.Swaps.
func (w *World) Swap(a ids.ClusterID, x ids.NodeID, b ids.ClusterID, j int) error {
	if a == b {
		return fmt.Errorf("core: swap of %v inside cluster %v", x, a)
	}
	ca, cb := w.cluster(a), w.cluster(b)
	if ca == nil {
		return fmt.Errorf("core: swap from unknown cluster %v", a)
	}
	if cb == nil {
		return fmt.Errorf("core: swap with unknown cluster %v", b)
	}
	i := ca.indexOf(x)
	if i < 0 {
		return fmt.Errorf("core: node %v is not in %v", x, a)
	}
	if j < 0 || j >= len(cb.members) {
		return fmt.Errorf("core: swap index %d outside %v's %d members", j, b, len(cb.members))
	}
	y := cb.members[j]
	last := len(ca.members) - 1
	ca.members[i] = ca.members[last]
	ca.members[last] = y
	cb.members[j] = x
	w.nodes[x].cluster = b
	w.nodes[y].cluster = a
	if bx := w.IsByzantine(x); bx != w.IsByzantine(y) {
		d := 1 // a trades an honest x for a Byzantine y
		if bx {
			d = -1
		}
		ca.byz += d
		cb.byz -= d
		w.recomposed(a, ca)
		w.recomposed(b, cb)
	}
	w.stats.Swaps += 2
	return nil
}

// Members returns a snapshot copy of c's member list.
func (w *World) Members(c ids.ClusterID) []ids.NodeID {
	cs := w.cluster(c)
	if cs == nil {
		return nil
	}
	out := make([]ids.NodeID, len(cs.members))
	copy(out, cs.members)
	return out
}

// Transfer moves x between clusters with all bookkeeping (membership,
// Byzantine counts, size multiset, overlay weights, security
// classification). It counts one swap; moveNode, its one caller inside
// core, takes the count back.
func (w *World) Transfer(x ids.NodeID, from, to ids.ClusterID) error {
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: transfer of unknown node %v", x)
	}
	if info.cluster != from {
		return fmt.Errorf("core: node %v is in %v, not %v", x, info.cluster, from)
	}
	if !w.hasCluster(from) {
		return fmt.Errorf("core: transfer from unknown cluster %v", from)
	}
	if !w.hasCluster(to) {
		return fmt.Errorf("core: transfer to unknown cluster %v", to)
	}
	byz := w.IsByzantine(x)
	if err := w.removeMember(from, x, byz); err != nil {
		return err
	}
	if err := w.insertMember(to, x, byz); err != nil {
		return err
	}
	w.nodes[x].cluster = to
	w.stats.Swaps++
	return nil
}

// --- bookkeeping helpers ---

// settleSecurity advances the security accounting to the current state:
// called at the end of every public operation (= paper time step) and at
// the end of every ExecBatch. It counts transitions into the
// degraded (>= 1/3) and captured (>= 1/2) states and tracks the worst
// per-cluster Byzantine fraction.
//
// Only records that changed since the last pass are visited: an unchanged
// cluster's class equals its settled class (no transition to count) and
// its Byzantine fraction was already folded into the monotone
// MaxByzFractionEver when it last changed, so the dirty-only walk is
// fold-for-fold identical to the full scan it replaces.
func (w *World) settleSecurity() {
	// The queue is in the order the op path dirtied its clusters, which is
	// deterministic, and the pass is blind to it: each record's transition
	// depends on that record alone, and the folds (two counters and a max)
	// commute (TestSettleOrderBlind). So the queue is walked as it stands.
	for _, c := range w.settleQueue {
		cs := w.clusters[c]
		if cs == nil {
			continue // retired after it was queued
		}
		cs.dirty = false
		size := len(cs.members)
		if size == 0 {
			cs.settled = randnum.Secure
			continue
		}
		if frac := float64(cs.byz) / float64(size); frac > w.stats.MaxByzFractionEver {
			w.stats.MaxByzFractionEver = frac
		}
		now := cs.sec
		prev := cs.settled
		if now > prev {
			if now >= randnum.Degraded && prev < randnum.Degraded {
				w.stats.DegradedEvents++
			}
			if now == randnum.Captured && prev < randnum.Captured {
				w.stats.CapturedEvents++
			}
		}
		cs.settled = now
	}
	w.settleQueue = w.settleQueue[:0]
}

// samplePos returns x's position in the flat sampling index, -1 if absent.
func (w *World) samplePos(x ids.NodeID) int32 {
	if int(x) >= len(w.nodePos) {
		return -1
	}
	return w.nodePos[x]
}

// byzSamplePos returns x's position in the Byzantine sampling index, -1 if
// absent.
func (w *World) byzSamplePos(x ids.NodeID) int32 {
	if int(x) >= len(w.byzPos) {
		return -1
	}
	return w.byzPos[x]
}

// growPos extends a NodeID-indexed position array to cover x, filling new
// entries with the absent marker.
func growPos(pos []int32, x ids.NodeID) []int32 {
	for int(x) >= len(pos) {
		pos = append(pos, -1)
	}
	return pos
}

// sampleAdd appends a node to the flat sampling indexes. The append order
// seeds RandomNode draws.
func (w *World) sampleAdd(x ids.NodeID, byz bool) {
	w.nodePos = growPos(w.nodePos, x)
	w.nodePos[x] = int32(len(w.allNodes))
	w.allNodes = append(w.allNodes, x)
	if byz {
		w.byzPos = growPos(w.byzPos, x)
		w.byzPos[x] = int32(len(w.byzNodes))
		w.byzNodes = append(w.byzNodes, x)
	}
}

// sampleRemove swap-removes a node from the flat sampling indexes.
func (w *World) sampleRemove(x ids.NodeID, byz bool) {
	i := w.nodePos[x]
	last := len(w.allNodes) - 1
	moved := w.allNodes[last]
	w.allNodes[i] = moved
	w.nodePos[moved] = i
	w.allNodes = w.allNodes[:last]
	w.nodePos[x] = -1
	if byz {
		j := w.byzPos[x]
		lastB := len(w.byzNodes) - 1
		movedB := w.byzNodes[lastB]
		w.byzNodes[j] = movedB
		w.byzPos[movedB] = j
		w.byzNodes = w.byzNodes[:lastB]
		w.byzPos[x] = -1
	}
}

// registerNode inserts a brand-new (or rejoining) node record into the
// node index and the flat sampling indexes.
func (w *World) registerNode(x ids.NodeID, byz bool, c ids.ClusterID) {
	w.setNodeInfo(x, nodeInfo{cluster: c})
	w.setByz(x, byz)
	w.sampleAdd(x, byz)
}

// unregisterNode removes a node record from the node index and the flat
// sampling indexes.
func (w *World) unregisterNode(x ids.NodeID) {
	byz := w.IsByzantine(x)
	w.deleteNodeInfo(x)
	w.setByz(x, false)
	w.sampleRemove(x, byz)
}

// --- public read accessors ---

// NumNodes returns the current network size n.
func (w *World) NumNodes() int { return len(w.allNodes) }

// NumByzantine returns the number of Byzantine nodes currently present.
func (w *World) NumByzantine() int { return len(w.byzNodes) }

// Clusters returns the current cluster IDs (overlay insertion order).
func (w *World) Clusters() []ids.ClusterID { return w.overlay.Vertices() }

// ClusterOf returns the cluster containing x.
func (w *World) ClusterOf(x ids.NodeID) (ids.ClusterID, bool) {
	info, ok := w.nodeInfoOf(x)
	return info.cluster, ok
}

// IsByzantine reports whether x is adversary-controlled: one read of its
// allegiance bit. Absent nodes read false.
func (w *World) IsByzantine(x ids.NodeID) bool {
	i := uint64(x) >> 6
	return i < uint64(len(w.byzBits)) && w.byzBits[i]&(1<<(x&63)) != 0
}

// Contains reports whether x is currently in the network.
func (w *World) Contains(x ids.NodeID) bool {
	_, ok := w.nodeInfoOf(x)
	return ok
}

// RandomNode returns a uniform member of the network.
func (w *World) RandomNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.allNodes) == 0 {
		return 0, false
	}
	return w.allNodes[r.Intn(len(w.allNodes))], true
}

// RandomHonestNode returns a uniform honest member (rejection sampling;
// honest nodes are a >2/3 majority so this terminates fast).
func (w *World) RandomHonestNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.allNodes) == len(w.byzNodes) {
		return 0, false
	}
	for {
		x := w.allNodes[r.Intn(len(w.allNodes))]
		if !w.IsByzantine(x) {
			return x, true
		}
	}
}

// RandomByzantineNode returns a uniform Byzantine member.
func (w *World) RandomByzantineNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.byzNodes) == 0 {
		return 0, false
	}
	return w.byzNodes[r.Intn(len(w.byzNodes))], true
}

// RandomCluster returns a uniform cluster ID (used for join contacts).
func (w *World) RandomCluster(r *xrand.Rand) (ids.ClusterID, bool) {
	n := w.overlay.NumVertices()
	if n == 0 {
		return 0, false
	}
	return w.overlay.VertexAt(r.Intn(n)), true
}

// CurrentInsecure returns the number of clusters presently at or above
// the 1/3 (degraded) and 1/2 (captured) Byzantine thresholds, maintained
// incrementally so the check is O(1).
func (w *World) CurrentInsecure() (degraded, captured int) { return w.degraded, w.captured }

// Overlay exposes the OVER overlay for structural analysis. Callers must
// not mutate it.
func (w *World) Overlay() *over.Overlay { return w.overlay }

// Rng exposes the world's random stream for workloads that must share the
// run's determinism.
func (w *World) Rng() *xrand.Rand { return w.rng }

// Walker exposes the world's CTRW walker so applications (sampling,
// overlay maintenance by embedders) can run walks over the live topology.
func (w *World) Walker() *walk.Walker { return w.walker }

// Generator exposes the configured randNum construction.
func (w *World) Generator() randnum.Generator { return w.cfg.Generator }

// PendingRejoins drains the queue of nodes displaced by MergeRejoinAll;
// the simulator re-joins them on subsequent time steps.
func (w *World) PendingRejoins() []ids.NodeID {
	out := w.pendingRejoin
	w.pendingRejoin = nil
	return out
}
