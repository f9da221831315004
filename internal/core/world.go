package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// slot-indexed arena (see nodeShard); present distinguishes a live record
// from a never-used or vacated slot.
type nodeInfo struct {
	cluster ids.ClusterID
	byz     bool
	present bool
}

// clusterState is the world's per-cluster record: member list, incremental
// Byzantine count, and the security bookkeeping folded by settleSecurity
// at operation boundaries. Records are arena-managed by their shard —
// retired records keep their member capacity and return to a free list for
// recycling by putCluster — so steady-state churn allocates nothing.
//
// Member removal is a linear scan: cluster sizes are bounded by the split
// threshold (K·L·log2 N, ~80 at n=2^20), so the scan is cheaper than the
// position map it replaced and keeps the record to two words of header
// state per cluster.
type clusterState struct {
	members []ids.NodeID
	byz     int
	// sec is the current (live) security class, maintained incrementally
	// by worldShard.reclassify on every membership/allegiance change.
	sec randnum.Security
	// settled is the class as of the last settleSecurity pass; the
	// sec-vs-settled delta drives the Degraded/CapturedEvents counters.
	settled randnum.Security
	// dirty marks the record as queued in its shard's dirtySlots list.
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
	// is about to be retired into the shard's free list (or refilled), and
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

// clusterRow is a cluster's composition as the walk and exchange hot path
// reads it: World.rows packs one row per minted ClusterID, so Size and Byz
// are one indexed load with no shard routing or record pointer chase.
// Retired and not-yet-minted IDs read (0, 0).
type clusterRow struct{ size, byz int32 }

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

// accumulate folds per-operation deltas (from the op scheduler) into the
// lifetime counters. High-water fields are not deltas and are settled
// separately at batch boundaries.
func (s *Stats) accumulate(d Stats) {
	s.Joins += d.Joins
	s.Leaves += d.Leaves
	s.Splits += d.Splits
	s.Merges += d.Merges
	s.Rejoins += d.Rejoins
	s.Swaps += d.Swaps
	s.HijackedWalks += d.HijackedWalks
}

// hijackProxy lets the adversary be installed after World construction:
// walker configs capture the proxy once and read whatever hook is current.
// Installation is serial (SetHijacker must not run concurrently with
// world operations); Redirect is called from concurrent plan workers, but
// the hook contract (hooks.go) makes those calls pure reads, so the proxy
// needs no lock — concurrent readers of an unchanging field race with
// nothing.
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

// worldShard is one independently lockable segment of the cluster-keyed
// state: a dense slot-indexed arena of cluster records plus every index
// derived from them (the size multiset with its max tracker, the insecure
// counters, the settle queue).
//
// Cluster c lives in shard c % stride at slot c / stride. Cluster IDs are
// minted densely and never reused, so each shard's slots fill 0,1,2,...
// with no gaps and one slot belongs to exactly one cluster ID for the
// lifetime of the world; ascending slot order IS ascending ClusterID
// order, which is what keeps every walk over the arena deterministic
// without sorting.
//
// mu is taken by writers only, and only because of ExecBatch's apply
// phase: there, operations whose cluster footprints are disjoint write
// disjoint records concurrently, but share the shard's size multiset,
// counters and settle queue. Reads never lock. ExecBatch's plan phase only
// reads and its apply phase only writes, and runIndexed's WaitGroup
// barrier separates the two; every other World method runs on one
// goroutine by contract.
type worldShard struct {
	mu            sync.Mutex
	stride, index int

	// clusters is the cluster arena; nil = retired or not yet minted.
	clusters []*clusterState
	// free holds retired records (capacity retained) for putCluster.
	free []*clusterState
	// liveSlots counts non-nil arena entries.
	liveSlots int

	// sizeCount is the cluster-size multiset — sizeCount[s] = number of
	// clusters of size s — with maxSize as its tracked maximum. The dense
	// int-indexed layout makes the stale-max recompute an exact scan-down
	// (no deleted-entry ordering hazards: the count for every size is
	// always addressable).
	sizeCount []int32
	maxSize   int

	// degraded/captured count clusters whose live class is >= Degraded
	// resp. == Captured, so CurrentInsecure is O(shards).
	degraded, captured int

	// dirtySlots queues slots whose record changed since the last settle
	// pass, deduplicated by clusterState.dirty.
	dirtySlots []int32

	// rows points at the world's row table; every mutator of a record's
	// composition writes the cluster's row through it (setRow). Apply
	// workers write the rows of distinct clusters, and the table grows only
	// in the serial putCluster, so no worker ever sees it reallocated.
	rows *[]clusterRow
}

func newWorldShard(stride, index int) *worldShard {
	return &worldShard{stride: stride, index: index}
}

func (s *worldShard) slotOf(c ids.ClusterID) int {
	return int(uint64(c) / uint64(s.stride))
}

func (s *worldShard) idAt(slot int) ids.ClusterID {
	return ids.ClusterID(uint64(slot)*uint64(s.stride) + uint64(s.index))
}

// cluster returns the record for c, or nil when c is not a live cluster of
// this shard.
func (s *worldShard) cluster(c ids.ClusterID) *clusterState {
	slot := s.slotOf(c)
	if slot >= len(s.clusters) {
		return nil
	}
	return s.clusters[slot]
}

// clusterAt is cluster plus the slot, for callers that also mark dirty.
func (s *worldShard) clusterAt(c ids.ClusterID) (int, *clusterState) {
	slot := s.slotOf(c)
	if slot >= len(s.clusters) {
		return slot, nil
	}
	return slot, s.clusters[slot]
}

// setRow publishes cs's composition to c's row.
func (s *worldShard) setRow(c ids.ClusterID, cs *clusterState) {
	(*s.rows)[c] = clusterRow{size: int32(len(cs.members)), byz: int32(cs.byz)}
}

// noteSizeChange updates the shard's size multiset and max-size tracker for
// a cluster moving from size a to size b. Caller holds s.mu in the apply
// phase.
func (s *worldShard) noteSizeChange(a, b int) {
	if a == b {
		return
	}
	if a > 0 {
		s.sizeCount[a]--
	}
	if b > 0 {
		if b >= len(s.sizeCount) {
			s.sizeCount = append(s.sizeCount, make([]int32, b+1-len(s.sizeCount))...)
		}
		s.sizeCount[b]++
	}
	if b > s.maxSize {
		s.maxSize = b
	} else if a == s.maxSize && s.sizeCount[a] == 0 {
		// The (possibly unique) largest cluster of this shard shrank: scan
		// down to the next occupied size. The multiset is dense, so the
		// scan is exact by construction — there is no "entry already
		// deleted" state for the recompute to mis-read.
		m := a
		for m > 0 && s.sizeCount[m] == 0 {
			m--
		}
		s.maxSize = m
	}
}

// markDirty queues cs's slot for the next settleSecurity pass. Caller
// holds s.mu in the apply phase.
func (s *worldShard) markDirty(slot int, cs *clusterState) {
	if cs.dirty {
		return
	}
	cs.dirty = true
	s.dirtySlots = append(s.dirtySlots, int32(slot))
}

// reclassify recomputes a record's live security class after a membership
// or allegiance change, maintaining the shard's insecure counters. Event
// counters are NOT advanced here — transients inside one operation are not
// time step states; settleSecurity handles accounting at operation
// boundaries. Caller holds s.mu in the apply phase.
func (s *worldShard) reclassify(cs *clusterState) {
	now := randnum.Secure
	if len(cs.members) > 0 {
		now = randnum.Classify(len(cs.members), cs.byz)
	}
	if now == cs.sec {
		return
	}
	if cs.sec >= randnum.Degraded {
		s.degraded--
	}
	if cs.sec == randnum.Captured {
		s.captured--
	}
	if now >= randnum.Degraded {
		s.degraded++
	}
	if now == randnum.Captured {
		s.captured++
	}
	cs.sec = now
}

// retire removes c's record from the arena and returns it — reset,
// capacity retained — to the free list, reporting whether c was live.
// Serial contexts only: retiring a cluster is structural.
func (s *worldShard) retire(c ids.ClusterID) bool {
	slot, cs := s.clusterAt(c)
	if cs == nil {
		return false
	}
	s.noteSizeChange(len(cs.members), 0)
	cs.members = cs.members[:0]
	cs.byz = 0
	s.reclassify(cs) // live class -> Secure, counters updated
	cs.settled = randnum.Secure
	// Any dirtySlots entry for this slot now points at a nil record and is
	// skipped by the settle pass; the flag must clear here so the recycled
	// record re-queues cleanly at its next home.
	cs.dirty = false
	s.clusters[slot] = nil
	s.liveSlots--
	s.free = append(s.free, cs)
	(*s.rows)[c] = clusterRow{}
	return true
}

// nodeShard is one lockable segment of the node index: a dense slot-indexed
// arena of node records, slot = NodeID / stride for the shard at
// NodeID % stride (node IDs are minted densely and never reused, mirroring
// the cluster arena's slot scheme). Like worldShard.mu, mu is taken by
// writers only, for the apply phase's concurrent record updates.
type nodeShard struct {
	mu            sync.Mutex
	stride, index int
	nodes         []nodeInfo
	count         int
}

func (ns *nodeShard) slotOf(x ids.NodeID) int {
	return int(uint64(x) / uint64(ns.stride))
}

// defaultShards is the package-level default shard count applied when
// Config.Shards is zero; see SetDefaultShards.
var defaultShards atomic.Int32

// SetDefaultShards fixes the shard count used by worlds whose Config.Shards
// is zero: 1 restores the fully serial layout, n > 1 partitions cluster
// state across n lockable segments. Values below 1 reset to 1.
func SetDefaultShards(n int) {
	if n < 1 {
		n = 1
	}
	defaultShards.Store(int32(n))
}

// DefaultShards reports the package default shard count (minimum 1).
func DefaultShards() int {
	if v := defaultShards.Load(); v > 0 {
		return int(v)
	}
	return 1
}

// defaultGroupedCascade is the package-level default for
// Config.GroupedCascade, applied by DefaultConfig; see
// SetDefaultGroupedCascade.
var defaultGroupedCascade atomic.Bool

// SetDefaultGroupedCascade fixes whether configurations built by
// DefaultConfig run the leave cascade as one grouped shuffle round (true)
// or as Algorithm 2's per-receiver full exchanges (false, the paper
// default). It is the harness-wide knob behind the nowbench/nowsim
// -grouped-cascade flags; worlds built from an explicit Config are
// unaffected.
func SetDefaultGroupedCascade(on bool) { defaultGroupedCascade.Store(on) }

// DefaultGroupedCascade reports the package default cascade mode.
func DefaultGroupedCascade() bool { return defaultGroupedCascade.Load() }

// World is the complete NOW protocol state. Cluster-keyed state is
// partitioned across Config.Shards lockable segments so the op scheduler
// (ExecBatch) can execute operations with disjoint cluster footprints
// concurrently. Outside ExecBatch the world is not safe for concurrent
// use: the paper's model is synchronous and the classic per-operation API
// (Join/Leave/...) is single-threaded. Reads take no lock anywhere (see
// worldShard).
type World struct {
	cfg     Config
	led     *metrics.Ledger
	rng     *xrand.Rand
	walkCfg walk.Config

	shards     []*worldShard
	nodeShards []*nodeShard
	nClusters  int
	overlay    *over.Overlay
	// rows is the ClusterID-indexed composition table Size and Byz read
	// (see clusterRow); the shards write it.
	rows []clusterRow

	nodeAlloc ids.NodeAllocator
	clAlloc   ids.ClusterAllocator

	// Flat node indexes for O(1) uniform sampling by workloads. nodePos
	// and byzPos are NodeID-indexed position arrays (-1 = absent), dense
	// for the same reason the arenas are: IDs are minted densely and never
	// reused. They are serial-only state: the op scheduler mutates them in
	// its op-ordered post-pass, never from apply workers, so they need no
	// lock and their ordering (which seeds RandomNode draws) stays
	// deterministic.
	allNodes []ids.NodeID
	nodePos  []int32
	byzNodes []ids.NodeID
	byzPos   []int32

	walker *walk.Walker
	exch   *exchange.Exchanger
	hijack *hijackProxy
	steer  func(ids.ClusterID) float64

	// hijackHook/steerHook are the installed hooks' batch lifecycles
	// (BatchHook side of SetHijacker / SetSteerHook), driven serially by
	// ExecBatch: BeginBatch before planning, CommitOp in op order after
	// apply. See hooks.go.
	hijackHook BatchHook
	steerHook  BatchHook

	pendingRejoin []ids.NodeID
	rejoinByz     map[ids.NodeID]bool
	stats         Stats
	bootstrapped  bool

	// sched holds the pooled scratch of the batch scheduler (plan records,
	// RNG substreams, per-worker plan machinery). It is serial-only state:
	// ExecBatch alone touches it, and ExecBatch must not run concurrently
	// with itself.
	sched schedScratch
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
	shardCount := cfg.Shards
	if shardCount == 0 {
		shardCount = DefaultShards()
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
		cfg:        cfg,
		led:        &metrics.Ledger{},
		rng:        xrand.New(cfg.Seed),
		shards:     make([]*worldShard, shardCount),
		nodeShards: make([]*nodeShard, shardCount),
		overlay:    ov,
		rejoinByz:  make(map[ids.NodeID]bool),
		hijack:     &hijackProxy{},
	}
	for i := range w.shards {
		w.shards[i] = newWorldShard(shardCount, i)
		w.shards[i].rows = &w.rows
		w.nodeShards[i] = &nodeShard{stride: shardCount, index: i}
	}
	w.walkCfg = walk.Config{
		DurationFactor: cfg.WalkDurationFactor,
		MaxRestarts:    cfg.MaxWalkRestarts,
		Gen:            cfg.Generator,
		Hijack:         w.hijack,
		Steer:          func(c ids.ClusterID) float64 { return w.steerScore(c) },
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

// ShardCount reports how many lockable segments cluster state is
// partitioned across (>= 1).
func (w *World) ShardCount() int { return len(w.shards) }

// Ledger returns the world's cost ledger.
func (w *World) Ledger() *metrics.Ledger { return w.led }

// Stats returns the lifetime counters.
func (w *World) Stats() Stats { return w.stats }

// --- shard routing ---

func (w *World) shardFor(c ids.ClusterID) *worldShard {
	return w.shards[uint64(c)%uint64(len(w.shards))]
}

func (w *World) nodeShardFor(x ids.NodeID) *nodeShard {
	return w.nodeShards[uint64(x)%uint64(len(w.nodeShards))]
}

func (w *World) hasCluster(c ids.ClusterID) bool {
	return w.shardFor(c).cluster(c) != nil
}

// putCluster installs a fresh cluster record for c, recycling a retired
// record (with its member capacity) when the shard's free list has one.
// Serial contexts only (bootstrap, split, merge): cluster creation is
// structural and the op scheduler never admits structural plans for
// concurrent apply.
func (w *World) putCluster(c ids.ClusterID) {
	s := w.shardFor(c)
	slot := s.slotOf(c)
	for len(s.clusters) <= slot {
		s.clusters = append(s.clusters, nil)
	}
	var cs *clusterState
	if n := len(s.free); n > 0 {
		cs, s.free = s.free[n-1], s.free[:n-1]
	} else {
		cs = &clusterState{}
	}
	s.clusters[slot] = cs
	s.liveSlots++
	w.nClusters++
	if n := int(c) + 1; n > len(w.rows) {
		w.rows = append(w.rows, make([]clusterRow, n-len(w.rows))...)
	}
}

// snapshotClusterInto copies c's record into dst for a planning view,
// reusing dst's member capacity: a recycled dst makes the copy-on-write
// snapshot allocation-free in steady state.
func (w *World) snapshotClusterInto(c ids.ClusterID, dst *clusterState) bool {
	cs := w.shardFor(c).cluster(c)
	if cs == nil {
		return false
	}
	dst.members = append(dst.members[:0], cs.members...)
	dst.byz = cs.byz
	return true
}

func (w *World) nodeInfoOf(x ids.NodeID) (nodeInfo, bool) {
	ns := w.nodeShardFor(x)
	var info nodeInfo
	if slot := ns.slotOf(x); slot < len(ns.nodes) {
		info = ns.nodes[slot]
	}
	return info, info.present
}

func (w *World) setNodeInfo(x ids.NodeID, info nodeInfo) {
	info.present = true
	ns := w.nodeShardFor(x)
	ns.mu.Lock()
	slot := ns.slotOf(x)
	for len(ns.nodes) <= slot {
		ns.nodes = append(ns.nodes, nodeInfo{})
	}
	if !ns.nodes[slot].present {
		ns.count++
	}
	ns.nodes[slot] = info
	ns.mu.Unlock()
}

func (w *World) deleteNodeInfo(x ids.NodeID) {
	ns := w.nodeShardFor(x)
	ns.mu.Lock()
	if slot := ns.slotOf(x); slot < len(ns.nodes) && ns.nodes[slot].present {
		ns.nodes[slot] = nodeInfo{}
		ns.count--
	}
	ns.mu.Unlock()
}

// --- core membership mutators (shared by the classic serial path and the
// scheduler's apply phase). These, setNodeInfo/deleteNodeInfo and
// applyTransfer are the only code that locks: they are what the apply
// phase runs concurrently. Reads and serial-only writers take no lock. ---

// insertMember adds x (allegiance byz) to cluster c, updating the size
// multiset and live security class. It does not touch the node index.
func (w *World) insertMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	s := w.shardFor(c)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(c, x, byz)
}

// insertLocked is insertMember's body; the caller holds s.mu.
func (s *worldShard) insertLocked(c ids.ClusterID, x ids.NodeID, byz bool) error {
	slot, cs := s.clusterAt(c)
	if cs == nil {
		return fmt.Errorf("core: insert into unknown cluster %v", c)
	}
	s.noteSizeChange(len(cs.members), len(cs.members)+1)
	cs.add(x, byz)
	s.setRow(c, cs)
	s.reclassify(cs)
	s.markDirty(slot, cs)
	return nil
}

// removeMember removes x from c, updating the size multiset and live
// security class. It does not touch the node index.
func (w *World) removeMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	s := w.shardFor(c)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(c, x, byz)
}

// removeLocked is removeMember's body; the caller holds s.mu.
func (s *worldShard) removeLocked(c ids.ClusterID, x ids.NodeID, byz bool) error {
	slot, cs := s.clusterAt(c)
	if cs == nil {
		return fmt.Errorf("core: remove from unknown cluster %v", c)
	}
	n := len(cs.members)
	if err := cs.remove(x, byz); err != nil {
		return err
	}
	s.noteSizeChange(n, n-1)
	s.setRow(c, cs)
	s.reclassify(cs)
	s.markDirty(slot, cs)
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
		return int(w.rows[c].size)
	}
	return 0
}

// Byz implements walk.Topology: one read of c's row.
func (w *World) Byz(c ids.ClusterID) int {
	if uint64(c) < uint64(len(w.rows)) {
		return int(w.rows[c].byz)
	}
	return 0
}

// MaxClusterSize implements walk.Topology: the maximum over the per-shard
// max trackers.
func (w *World) MaxClusterSize() int {
	m := 0
	for _, s := range w.shards {
		m = max(m, s.maxSize)
	}
	return m
}

// --- exchange.World ---

// MemberAt implements exchange.World.
func (w *World) MemberAt(c ids.ClusterID, i int) ids.NodeID {
	return w.shardFor(c).cluster(c).members[i]
}

// Members implements exchange.World (snapshot copy).
func (w *World) Members(c ids.ClusterID) []ids.NodeID {
	cs := w.shardFor(c).cluster(c)
	if cs == nil {
		return nil
	}
	out := make([]ids.NodeID, len(cs.members))
	copy(out, cs.members)
	return out
}

// Transfer implements exchange.World: move x between clusters with all
// bookkeeping (membership, Byzantine counts, size multiset, security
// classification).
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
	if err := w.applyTransfer(x, from, to, info.byz); err != nil {
		return err
	}
	w.stats.Swaps++
	return nil
}

// applyTransfer performs the raw cluster-and-node-record relocation without
// validation or swap accounting. Used by Transfer and by the scheduler's
// apply phase (where admitted plans guarantee validity and stats come from
// the plan deltas). Both footprint shards are held for the whole move via
// the canonical ordered-acquire helper, so no reader can observe x
// removed from one cluster but not yet inserted into the other.
func (w *World) applyTransfer(x ids.NodeID, from, to ids.ClusterID, byz bool) error {
	lo, hi := w.lockShardPair(from, to)
	defer unlockShardPair(lo, hi)
	if err := w.shardFor(from).removeLocked(from, x, byz); err != nil {
		return err
	}
	if err := w.shardFor(to).insertLocked(to, x, byz); err != nil {
		return err
	}
	w.setNodeInfo(x, nodeInfo{cluster: to, byz: byz})
	return nil
}

// --- bookkeeping helpers ---

// settleSecurity advances the security accounting to the current state:
// called at the end of every public operation (= paper time step) and at
// the end of every scheduler batch. It counts transitions into the
// degraded (>= 1/3) and captured (>= 1/2) states and tracks the worst
// per-cluster Byzantine fraction.
//
// Only records that changed since the last pass are visited: an unchanged
// cluster's class equals its settled class (no transition to count) and
// its Byzantine fraction was already folded into the monotone
// MaxByzFractionEver when it last changed, so the dirty-only walk is
// fold-for-fold identical to the full scan it replaces.
func (w *World) settleSecurity() {
	for _, s := range w.shards {
		// Ascending slot order = ascending ClusterID within the shard: the
		// folds below are commutative today, but the settled-transition
		// accounting is exactly the kind of logic that grows
		// order-sensitive branches; fixing the order keeps the whole pass
		// trivially deterministic (and nowlint-clean), exactly like the
		// sorted map walk it replaces.
		slices.Sort(s.dirtySlots)
		for _, slot := range s.dirtySlots {
			cs := s.clusters[slot]
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
		s.dirtySlots = s.dirtySlots[:0]
	}
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

// sampleAdd appends a node to the flat sampling indexes. Serial contexts
// only (classic ops and the scheduler's op-ordered post-pass): the append
// order seeds RandomNode draws and must stay deterministic.
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

// sampleRemove swap-removes a node from the flat sampling indexes. Serial
// contexts only.
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
	w.setNodeInfo(x, nodeInfo{cluster: c, byz: byz})
	w.sampleAdd(x, byz)
}

// unregisterNode removes a node record from the node index and the flat
// sampling indexes.
func (w *World) unregisterNode(x ids.NodeID) {
	info, _ := w.nodeInfoOf(x)
	w.deleteNodeInfo(x)
	w.sampleRemove(x, info.byz)
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

// IsByzantine reports whether x is adversary-controlled.
func (w *World) IsByzantine(x ids.NodeID) bool {
	info, _ := w.nodeInfoOf(x)
	return info.byz
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
// incrementally per shard so the check is O(shards).
func (w *World) CurrentInsecure() (degraded, captured int) {
	for _, s := range w.shards {
		degraded += s.degraded
		captured += s.captured
	}
	return degraded, captured
}

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

// NodeIsQueued reports whether x awaits rejoin (MergeRejoinAll only).
func (w *World) NodeIsQueued(x ids.NodeID) bool {
	_, ok := w.rejoinByz[x]
	return ok
}
