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

// displacedNode is a node MergeRejoinAll removed, awaiting its OpRejoin.
type displacedNode struct {
	node ids.NodeID
	byz  bool
}

// nodeInfo is the world's per-node record. Records live in a dense
// NodeID-indexed table (World.nodes). pos is one past the node's index in
// World.allNodes, so the zero record — never used or vacated — reads as
// absent. A node's allegiance is not here but in the world's byzBits.
type nodeInfo struct {
	cluster ids.ClusterID
	pos     int32
}

// clusterState is the world's per-cluster record: what no other table
// holds. A cluster's size and Byzantine count are its row (World.rows) and
// its live security class is Classify of that row; the record keeps the
// member list and the settle bookkeeping. Records live by value in the
// world's ClusterID-indexed table; a retired record gives its member array
// (capacity retained) to the world's pool for putCluster to reuse, so
// steady-state churn allocates nothing.
//
// Member removal is a linear scan: cluster sizes are bounded by the split
// threshold (K·L·log2 N, ~80 at n=2^20), so the scan is cheaper than the
// position map it replaced.
type clusterState struct {
	members []ids.NodeID
	// settled is the class as of the last settleSecurity pass; the
	// live-vs-settled delta drives the Degraded/CapturedEvents counters.
	settled randnum.Security
	// dirty marks the record as queued in the world's settle queue.
	dirty bool
	// live is false for a retired or not yet minted ID.
	live bool
}

func (cs *clusterState) indexOf(x ids.NodeID) int {
	for i, m := range cs.members {
		if m == x {
			return i
		}
	}
	return -1
}

func (cs *clusterState) add(x ids.NodeID) { cs.members = append(cs.members, x) }

// removeAt swap-removes the member at index i. An emptied list keeps its
// backing array: the cluster is about to be retired and its array pooled
// (or refilled), and the retained capacity is what makes the next fill
// allocation-free.
func (cs *clusterState) removeAt(i int) {
	last := len(cs.members) - 1
	cs.members[i] = cs.members[last]
	cs.members = cs.members[:last]
}

// rowClass is the live security class of a cluster whose composition is
// r; an empty (or retired) cluster reads Secure.
func rowClass(r walk.Row) randnum.Security {
	if r.Size == 0 {
		return randnum.Secure
	}
	return randnum.Classify(int(r.Size), int(r.Byz))
}

// Stats accumulates protocol-lifetime counters and security high-water
// marks.
type Stats struct {
	Joins, Leaves, Splits, Merges int64
	// Rejoins counts OpRejoin re-insertions of merge-displaced nodes; each
	// is also counted in Joins (a rejoin executes the Join operation).
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

// World is the complete NOW protocol state: the partition and the overlay
// (paper section 3.2), each fact stored once. A cluster's size and
// Byzantine count are its row, its member list and settle bookkeeping its
// record, its edges and live count the overlay's; a node's cluster and
// sampling position are its record, its allegiance one bit. Every
// cluster-keyed table is indexed by ClusterID and every node-keyed table
// by NodeID: IDs are minted densely and never reused, so each index
// belongs to one cluster (node) for the lifetime of the world, and an
// ascending index walk IS an ascending ID walk — which keeps every pass
// over the tables deterministic without sorting.
//
// The world is not safe for concurrent use: the paper's model is
// synchronous and every method runs on one goroutine.
type World struct {
	cfg Config
	led *metrics.Ledger
	rng *xrand.Rand

	// clusters is the cluster table, records held by value; a retired or
	// not yet minted ID's record is not live. Only putCluster grows it, so
	// no &w.clusters[c] may be held across a call to putCluster.
	clusters []clusterState
	// spare holds retired clusters' member arrays (emptied, capacity
	// retained) for putCluster to reuse.
	spare   [][]ids.NodeID
	overlay *over.Overlay
	// rows is the composition table: one walk.Row per minted ClusterID,
	// the only store of a cluster's size and Byzantine count, read by
	// Size, Byz and View as one indexed load. Retired and not-yet-minted
	// IDs read (0, 0). recompose is its one writer.
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

	// settleQueue holds clusters whose composition changed since the last
	// settle pass, deduplicated by clusterState.dirty.
	settleQueue []ids.ClusterID

	// nodes is the node index.
	nodes []nodeInfo
	// byzBits is the allegiance bitset: bit x is set iff node x is present
	// and Byzantine. One bit a node keeps it within the private caches at
	// sizes where the node table is not, and a swap reads both nodes' bits.
	byzBits []uint64

	nodeAlloc ids.NodeAllocator
	clAlloc   ids.ClusterAllocator

	// Flat node indexes for O(1) uniform sampling by workloads: every
	// present node (its position is in its record) and the Byzantine
	// ones, with byzPos their NodeID-indexed positions (-1 = absent).
	// Their ordering seeds RandomNode draws.
	allNodes []ids.NodeID
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

	// displaced is the FIFO of nodes MergeRejoinAll removed, each with its
	// allegiance; OpRejoin pops its head.
	displaced    []displacedNode
	stats        Stats
	bootstrapped bool

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
		cfg:     cfg,
		led:     &metrics.Ledger{},
		rng:     xrand.New(cfg.Seed),
		overlay: ov,
		hijack:  &hijackProxy{},
	}
	walker, err := walk.NewWalker(walk.Config{
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
	}, w)
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
// The pointer is into the table: it must not be held across putCluster.
func (w *World) cluster(c ids.ClusterID) *clusterState {
	if uint64(c) < uint64(len(w.clusters)) && w.clusters[c].live {
		return &w.clusters[c]
	}
	return nil
}

func (w *World) hasCluster(c ids.ClusterID) bool { return w.cluster(c) != nil }

// recompose is the one writer of a live cluster's composition: it moves
// c's row by dSize members, dByz of them Byzantine, and publishes the move
// to everything derived from the row — the insecure counters (the live
// class is rowClass of the row), the overlay weight (which keeps the
// neighbours' masses exact) and the size multiset when the size moves,
// and the settle queue. A move that would take the Byzantine count below
// zero is refused with nothing written. Event counters are NOT advanced
// here — transients inside one operation are not time step states;
// settleSecurity handles accounting at operation boundaries.
func (w *World) recompose(c ids.ClusterID, dSize, dByz int) error {
	prev := w.rows[c]
	next := walk.Row{Size: prev.Size + int32(dSize), Byz: prev.Byz + int32(dByz)}
	if next.Byz < 0 {
		return fmt.Errorf("core: the move would underflow %v's Byzantine count", c)
	}
	if was, now := rowClass(prev), rowClass(next); was != now {
		if was >= randnum.Degraded {
			w.degraded--
		}
		if was == randnum.Captured {
			w.captured--
		}
		if now >= randnum.Degraded {
			w.degraded++
		}
		if now == randnum.Captured {
			w.captured++
		}
	}
	if next.Size != prev.Size {
		w.noteSizeChange(int(prev.Size), int(next.Size))
		w.overlay.SetWeight(c, int64(next.Size))
	}
	w.rows[c] = next
	if cs := &w.clusters[c]; !cs.dirty {
		cs.dirty = true
		w.settleQueue = append(w.settleQueue, c)
	}
	return nil
}

// noteSizeChange updates the size multiset and max-size tracker for a
// cluster moving from size a to size b.
func (w *World) noteSizeChange(a, b int) {
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

// putCluster installs a fresh live record for c, reusing a pooled member
// array when there is one. It is the only code that grows the cluster
// table.
func (w *World) putCluster(c ids.ClusterID) {
	if n := int(c) + 1; n > len(w.clusters) {
		w.clusters = append(w.clusters, make([]clusterState, n-len(w.clusters))...)
	}
	if n := int(c) + 1; n > len(w.rows) {
		w.rows = append(w.rows, make([]walk.Row, n-len(w.rows))...)
	}
	cs := clusterState{live: true}
	if n := len(w.spare); n > 0 {
		cs.members, w.spare = w.spare[n-1], w.spare[:n-1]
	}
	w.clusters[c] = cs
}

// retire empties c's composition, pools its member array and marks its
// record not live, reporting whether c was live.
func (w *World) retire(c ids.ClusterID) bool {
	cs := w.cluster(c)
	if cs == nil {
		return false
	}
	row := w.rows[c]
	_ = w.recompose(c, -int(row.Size), -int(row.Byz)) // to (0, 0): cannot underflow
	w.spare = append(w.spare, cs.members[:0])
	// Any settle-queue entry for c now points at a record that is not live
	// and is skipped by the settle pass.
	w.clusters[c] = clusterState{}
	return true
}

func (w *World) nodeInfoOf(x ids.NodeID) (nodeInfo, bool) {
	var info nodeInfo
	if uint64(x) < uint64(len(w.nodes)) {
		info = w.nodes[x]
	}
	return info, info.pos != 0
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

// byzCount is 1 for a Byzantine node and 0 for an honest one: its share of
// a cluster's Byzantine count.
func byzCount(byz bool) int {
	if byz {
		return 1
	}
	return 0
}

// insertMember adds x (allegiance byz) to cluster c and publishes the new
// composition. It does not touch the node index.
func (w *World) insertMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := w.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: insert into unknown cluster %v", c)
	}
	cs.add(x)
	return w.recompose(c, 1, byzCount(byz))
}

// removeMember removes x from c and publishes the new composition; a
// removal recompose refuses leaves the member list as it was. It does not
// touch the node index.
func (w *World) removeMember(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := w.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: remove from unknown cluster %v", c)
	}
	i := cs.indexOf(x)
	if i < 0 {
		// Double removal (e.g. of a node that was swap-moved out by an
		// earlier removal) lands here: the membership scan is the guard.
		return fmt.Errorf("core: node %v not in cluster %v", x, c)
	}
	if err := w.recompose(c, -1, -byzCount(byz)); err != nil {
		return fmt.Errorf("core: removing %v: %w", x, err)
	}
	cs.removeAt(i)
	return nil
}

// NumClusters returns the number of live clusters.
func (w *World) NumClusters() int { return w.overlay.NumVertices() }

// Size returns |C|, one read of c's row; 0 for a retired or unminted ID.
func (w *World) Size(c ids.ClusterID) int {
	if uint64(c) < uint64(len(w.rows)) {
		return int(w.rows[c].Size)
	}
	return 0
}

// Byz returns c's Byzantine member count, one read of c's row; 0 for a
// retired or unminted ID.
func (w *World) Byz(c ids.ClusterID) int {
	if uint64(c) < uint64(len(w.rows)) {
		return int(w.rows[c].Byz)
	}
	return 0
}

// View implements walk.Topology: the row table and the overlay's
// ClusterID-indexed adjacency, not copied, with the overlay's vertex and
// edge counts and the size multiset's tracked maximum. Swap rewrites rows
// in place (recompose) and grows neither table, as View's contract
// requires.
func (w *World) View() walk.View {
	return walk.View{
		Rows:        w.rows,
		Adj:         w.overlay.AdjTable(),
		NumClusters: w.overlay.NumVertices(),
		NumEdges:    w.overlay.NumEdges(),
		MaxSize:     w.maxSize,
	}
}

// --- exchange.World ---

// MemberAt implements exchange.World.
func (w *World) MemberAt(c ids.ClusterID, i int) ids.NodeID {
	return w.clusters[c].members[i]
}

// NeighborMass implements exchange.World: the number of nodes in c's
// overlay neighbours, the sum of |D| over every D adjacent to c, which
// the overlay keeps as c's neighbour mass (recompose keeps every
// cluster's weight its size). It is the neighbourhood term of every cost
// charge in which c's neighbours learn something about c or c's members
// learn its neighbours.
func (w *World) NeighborMass(c ids.ClusterID) int64 { return w.overlay.NeighborMass(c) }

// Swap implements exchange.World: x, a member of a, and y, the member at
// index j of b, trade clusters. The member lists end as two moveNodes
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
		if err := w.recompose(a, 0, d); err != nil {
			return err
		}
		if err := w.recompose(b, 0, -d); err != nil {
			return err
		}
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
		cs := &w.clusters[c]
		if !cs.live {
			continue // retired after it was queued
		}
		cs.dirty = false
		row := w.rows[c]
		if row.Size == 0 {
			cs.settled = randnum.Secure
			continue
		}
		if frac := float64(row.Byz) / float64(row.Size); frac > w.stats.MaxByzFractionEver {
			w.stats.MaxByzFractionEver = frac
		}
		now := rowClass(row)
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

// byzSamplePos returns x's position in the Byzantine sampling index, -1 if
// absent.
func (w *World) byzSamplePos(x ids.NodeID) int32 {
	if int(x) >= len(w.byzPos) {
		return -1
	}
	return w.byzPos[x]
}

// markByz sets x's allegiance bit and appends x to the Byzantine sampling
// index. The append order seeds RandomByzantineNode draws.
func (w *World) markByz(x ids.NodeID) {
	w.setByz(x, true)
	for int(x) >= len(w.byzPos) {
		w.byzPos = append(w.byzPos, -1)
	}
	w.byzPos[x] = int32(len(w.byzNodes))
	w.byzNodes = append(w.byzNodes, x)
}

// unmarkByz clears x's allegiance bit and swap-removes x from the
// Byzantine sampling index.
func (w *World) unmarkByz(x ids.NodeID) {
	w.setByz(x, false)
	j := w.byzPos[x]
	last := len(w.byzNodes) - 1
	moved := w.byzNodes[last]
	w.byzNodes[j] = moved
	w.byzPos[moved] = j
	w.byzNodes = w.byzNodes[:last]
	w.byzPos[x] = -1
}

// registerNode writes a brand-new (or rejoining) node's record, its
// allegiance and its place in the flat sampling indexes. The append order
// seeds RandomNode draws.
func (w *World) registerNode(x ids.NodeID, byz bool, c ids.ClusterID) {
	if n := int(x) + 1; n > len(w.nodes) {
		w.nodes = append(w.nodes, make([]nodeInfo, n-len(w.nodes))...)
	}
	w.nodes[x] = nodeInfo{cluster: c, pos: int32(len(w.allNodes)) + 1}
	w.allNodes = append(w.allNodes, x)
	if byz {
		w.markByz(x)
	}
}

// unregisterNode vacates a node's record and swap-removes it from the flat
// sampling indexes.
func (w *World) unregisterNode(x ids.NodeID) {
	if w.IsByzantine(x) {
		w.unmarkByz(x)
	}
	pos := w.nodes[x].pos
	last := len(w.allNodes) - 1
	moved := w.allNodes[last]
	w.allNodes[pos-1] = moved
	w.nodes[moved].pos = pos
	w.allNodes = w.allNodes[:last]
	w.nodes[x] = nodeInfo{}
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

// Displaced returns how many nodes MergeRejoinAll has removed that no
// OpRejoin has re-joined yet.
func (w *World) Displaced() int { return len(w.displaced) }
