package core

// The op scheduler: batched execution of protocol operations inside ONE
// world, planned concurrently and applied serially.
//
// The paper's analysis rests on independence — clusters interact only
// through the exchanges an operation itself triggers — so operations whose
// cluster footprints do not overlap commute. The scheduler exploits this
// in three deterministic phases:
//
//  1. PLAN. Every operation in the batch runs against a read-only snapshot
//     of the world (the pre-batch state) through a copy-on-write planView
//     that records the op's WRITE footprint: the clusters it mutates —
//     the join's insertion target, the leave's source, every exchange
//     partner and cascade receiver. Walk transits and cost reads are
//     read-only against the snapshot and are deliberately NOT part of the
//     footprint: all simultaneous operations of a batch observe the
//     round-start state, exactly as simultaneous operations in one round
//     of the paper's synchronous model do. Each op draws from its own RNG
//     substream, derived in op order from the world stream, and charges
//     its own private ledger — so plans are independent of scheduling and
//     can be computed on worker goroutines.
//  2. ADMIT + APPLY. In op order, a plan is admitted if its write
//     footprint is disjoint from every previously admitted plan's. Write
//     disjointness is sufficient for consistency: a plan only ever moves
//     nodes that are members of its own written clusters (exchange
//     partners pick their replacement from themselves), so disjoint write
//     sets move disjoint node sets and replaying both plans' moves yields
//     one well-defined state. Each admitted plan is applied as soon as it
//     is admitted — serially, in op order — together with its
//     sampling-index updates, ledger merge and stat deltas. Planning only
//     reads and apply starts after runIndexed's WaitGroup barrier, so
//     nothing takes a lock.
//  3. TAIL. Conflicting plans and structural operations (a join that must
//     split, a leave that must merge or empties its cluster — these mutate
//     the overlay and mint/retire cluster IDs) are discarded and re-run
//     serially, in op order, against the live post-apply state on a fresh
//     substream.
//
// Consequently ExecBatch is a pure function of (world state, batch): a
// world planning on one worker (Shards=1) and one planning on eight
// (Shards=8) with equal seeds produce IDENTICAL results — same Stats, same
// security counters, same membership, same ledger totals — regardless of
// GOMAXPROCS. Adversary hooks (hijacker, steer scorer) plan at full
// parallelism under the snapshot-scoped hook contract (hooks.go):
// plan-phase Redirect/Score calls are pure reads of state fixed before the
// batch, refreshed serially via BeginBatch, with hook bookkeeping folded
// in op order via CommitOp next to the scheduler's own order-sensitive
// folds; the contract holds unconditionally. Divergence from the classic
// one-op-per-call API is confined to (a) per-op RNG substreams instead of
// one shared stream, (b) security settling at batch (= paper time step)
// boundaries rather than per op, and (c) walks inside a batch observing
// the pre-batch snapshot. None of these weaken the paper's guarantees:
// the adversary already chooses its churn against the step-boundary state,
// and randCl's placement distribution is the same under any fixed seed
// derivation.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nowover/internal/exchange"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// OpKind discriminates schedulable operations.
type OpKind int

// Schedulable operation kinds.
const (
	// OpJoin inserts a new node (Algorithm 1).
	OpJoin OpKind = iota
	// OpLeave removes a node (Algorithm 2).
	OpLeave
	// OpExchange force-shuffles one cluster (section 3.1 primitive).
	OpExchange
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpExchange:
		return "exchange"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one schedulable operation.
type Op struct {
	Kind OpKind
	// Byz marks a corrupted joiner (OpJoin).
	Byz bool
	// Contact, when HasContact, is the join's contact cluster; otherwise a
	// uniform cluster is drawn from the op's substream.
	Contact    ids.ClusterID
	HasContact bool
	// Victim is the departing node (OpLeave).
	Victim ids.NodeID
	// Target is the shuffled cluster (OpExchange).
	Target ids.ClusterID
}

// OpResult reports one scheduled operation's outcome.
type OpResult struct {
	// Node is the joined node's ID (OpJoin only; assigned even when the
	// join subsequently failed, since IDs are never reused).
	Node ids.NodeID
	// Err is the operation error, if any.
	Err error
	// Deferred reports that the op ran on the serial tail (conflicting
	// footprint or structural side effects) instead of being applied from
	// its plan; DeferReason says why ("footprint conflict", "split
	// required", "merge required", "cluster emptied").
	Deferred    bool
	DeferReason string
}

// moveKind discriminates planned membership mutations.
type moveKind int

const (
	moveInsert moveKind = iota
	moveRemove
	moveTransfer
)

// planMove is one recorded membership mutation, replayed at apply time.
type planMove struct {
	kind     moveKind
	x        ids.NodeID
	byz      bool
	from, to ids.ClusterID
}

// batchPlan is one op's planned execution: footprint, mutations, costs and
// stat deltas, all computed against the pre-batch snapshot. Plans are
// pooled in the world's scheduler scratch and reset per batch, so their
// footprint set, move list and private ledger are reused allocations.
type batchPlan struct {
	op      Op
	idx     int
	newNode ids.NodeID
	hasNode bool

	writes ids.ClusterSet
	moves  []planMove
	stats  Stats
	led    metrics.Ledger

	err      error
	deferred bool
	reason   string
}

// reset prepares a pooled plan for a new op, retaining grown capacity.
func (p *batchPlan) reset(op Op, idx int) {
	p.op = op
	p.idx = idx
	p.newNode = 0
	p.hasNode = false
	if p.writes == nil {
		p.writes = make(ids.ClusterSet)
	} else {
		clear(p.writes)
	}
	p.moves = p.moves[:0]
	p.stats = Stats{}
	p.led.Reset()
	p.err = nil
	p.deferred = false
	p.reason = ""
}

func (p *batchPlan) deferTo(reason string) {
	p.deferred = true
	p.reason = reason
}

// planView is the copy-on-write world the planner executes an op against:
// reads fall through to the live (quiescent) world, writes land in
// op-local cluster copies and are recorded in the plan's write footprint.
// It implements exchange.World, so the real walk and exchange machinery
// runs unmodified over it. A view lives inside one planContext and is
// reset per op: its overlay maps are cleared (not reallocated) and its
// cluster copies recycle through a private free list.
type planView struct {
	w       *World
	p       *batchPlan
	local   map[ids.ClusterID]*clusterState
	byzOv   map[ids.NodeID]bool // allegiance of nodes this plan inserted
	free    []*clusterState     // retired op-local copies, capacity retained
	baseMax int
	viewMax int
}

var _ exchange.World = (*planView)(nil)

// reset points the view at a new plan and recycles the previous op's
// cluster copies. Free-list order is scheduling-dependent but invisible:
// a recycled record's contents are fully overwritten by the next snapshot.
func (v *planView) reset(p *batchPlan) {
	//nowlint:ordered free-list entries are interchangeable scratch records, fully overwritten by snapshotClusterInto before any read, so recycle order never reaches an output
	for _, cs := range v.local {
		cs.members = cs.members[:0]
		cs.byz = 0
		v.free = append(v.free, cs)
	}
	clear(v.local)
	clear(v.byzOv)
	v.p = p
	base := v.w.MaxClusterSize()
	v.baseMax = base
	v.viewMax = base
}

// planContext is one plan worker's reusable machinery: the view plus a
// walker and exchanger bound to it once, instead of per op. The walker
// config's hijack proxy and steer closure read the world's live hooks, so
// a cached context never goes stale when SetHijacker/SetSteer is called.
type planContext struct {
	view   planView
	walker *walk.Walker
	exch   *exchange.Exchanger
}

func newPlanContext(w *World) (*planContext, error) {
	ctx := &planContext{view: planView{
		w:     w,
		local: make(map[ids.ClusterID]*clusterState),
		byzOv: make(map[ids.NodeID]bool),
	}}
	walker, err := walk.NewWalker(w.walkCfg, &ctx.view)
	if err != nil {
		return nil, err
	}
	exch, err := exchange.New(&ctx.view, walker, w.cfg.Generator)
	if err != nil {
		return nil, err
	}
	ctx.walker, ctx.exch = walker, exch
	return ctx, nil
}

// schedScratch is the world's reusable ExecBatch state: plan records,
// per-op substreams, admission bookkeeping and per-worker plan contexts.
// Everything here is sized once and recycled, so steady-state batches
// allocate nothing beyond amortized growth of the world itself.
type schedScratch struct {
	plans    []batchPlan
	rngs     []xrand.Rand
	batchRng xrand.Rand
	tailRng  xrand.Rand
	accW     ids.ClusterSet
	tail     []*batchPlan
	ctxs     []*planContext

	// hijacked is the per-op hijacked-walk tally handed to hook CommitOp
	// calls, filled in op order from admitted plans' stats and the serial
	// tail's stat deltas. Only maintained when a BatchHook is registered.
	hijacked []int64

	// planFn is the worker body handed to runIndexed, built once: a fresh
	// closure per batch would escape to the heap and break the
	// zero-allocation steady state. It captures only the world, reading the
	// per-batch state through its sched scratch.
	planFn func(worker, i int)
}

// ensure sizes the per-op scratch for a batch of n ops.
func (s *schedScratch) ensure(n int) {
	if cap(s.plans) < n {
		s.plans = append(s.plans[:cap(s.plans)], make([]batchPlan, n-cap(s.plans))...)
	}
	s.plans = s.plans[:n]
	if cap(s.rngs) < n {
		s.rngs = append(s.rngs[:cap(s.rngs)], make([]xrand.Rand, n-cap(s.rngs))...)
	}
	s.rngs = s.rngs[:n]
	if cap(s.hijacked) < n {
		s.hijacked = append(s.hijacked[:cap(s.hijacked)], make([]int64, n-cap(s.hijacked))...)
	}
	s.hijacked = s.hijacked[:n]
	for i := range s.hijacked {
		s.hijacked[i] = 0
	}
}

// cs returns the cluster record visible to this plan: the op-local copy
// when the plan has written c, the quiescent world's otherwise.
func (v *planView) cs(c ids.ClusterID) (*clusterState, bool) {
	if cs, ok := v.local[c]; ok {
		return cs, true
	}
	cs := v.w.cluster(c)
	return cs, cs != nil
}

// cow returns an op-local mutable copy of c, recording the write. The
// copy comes from the view's free list when one is available, so a warm
// planner snapshots without allocating.
func (v *planView) cow(c ids.ClusterID) (*clusterState, error) {
	if cs, ok := v.local[c]; ok {
		return cs, nil
	}
	var cs *clusterState
	if n := len(v.free); n > 0 {
		cs, v.free = v.free[n-1], v.free[:n-1]
	} else {
		cs = &clusterState{}
	}
	if !v.w.snapshotClusterInto(c, cs) {
		v.free = append(v.free, cs)
		return nil, fmt.Errorf("core: plan touched unknown cluster %v", c)
	}
	v.p.writes.Add(c)
	v.local[c] = cs
	return cs, nil
}

func (v *planView) byzOf(x ids.NodeID) bool {
	if b, ok := v.byzOv[x]; ok {
		return b
	}
	return v.w.IsByzantine(x)
}

// --- walk.Topology / exchange.World on the view ---

// NumClusters: structural state is frozen for the batch (structural plans
// are deferred), so the live counter is the snapshot value.
func (v *planView) NumClusters() int { return v.w.NumClusters() }

// NumOverlayEdges: the overlay is never written by admitted plans.
func (v *planView) NumOverlayEdges() int { return v.w.NumOverlayEdges() }

// Adjacent implements walk.Topology (overlay passthrough).
func (v *planView) Adjacent(c ids.ClusterID) []ids.ClusterID { return v.w.Adjacent(c) }

// Size implements walk.Topology through the op-local overlay.
func (v *planView) Size(c ids.ClusterID) int {
	if cs, ok := v.cs(c); ok {
		return len(cs.members)
	}
	return 0
}

// Byz implements walk.Topology through the op-local overlay.
func (v *planView) Byz(c ids.ClusterID) int {
	if cs, ok := v.cs(c); ok {
		return cs.byz
	}
	return 0
}

// MaxClusterSize returns max(pre-batch maximum, op-local maximum). When
// the op shrinks the unique largest cluster this overestimates by one
// until the exchange's return swap restores it; the acceptance coin of the
// biased walk then rejects marginally more often, which is deterministic
// and statistically negligible (the paper's rejection analysis only needs
// the denominator to bound cluster sizes from above).
func (v *planView) MaxClusterSize() int { return v.viewMax }

// MemberAt implements exchange.World through the op-local overlay.
func (v *planView) MemberAt(c ids.ClusterID, i int) ids.NodeID {
	cs, _ := v.cs(c)
	return cs.members[i]
}

// Members implements exchange.World (snapshot copy).
func (v *planView) Members(c ids.ClusterID) []ids.NodeID {
	cs, ok := v.cs(c)
	if !ok {
		return nil
	}
	out := make([]ids.NodeID, len(cs.members))
	copy(out, cs.members)
	return out
}

// Transfer implements exchange.World: the move lands in op-local copies
// and is recorded for the apply phase.
func (v *planView) Transfer(x ids.NodeID, from, to ids.ClusterID) error {
	src, err := v.cow(from)
	if err != nil {
		return err
	}
	dst, err := v.cow(to)
	if err != nil {
		return err
	}
	byz := v.byzOf(x)
	if err := src.remove(x, byz); err != nil {
		return err
	}
	dst.add(x, byz)
	if len(dst.members) > v.viewMax {
		v.viewMax = len(dst.members)
	}
	v.p.moves = append(v.p.moves, planMove{kind: moveTransfer, x: x, byz: byz, from: from, to: to})
	v.p.stats.Swaps++
	return nil
}

// insert places a brand-new node into c.
func (v *planView) insert(x ids.NodeID, byz bool, c ids.ClusterID) error {
	cs, err := v.cow(c)
	if err != nil {
		return err
	}
	cs.add(x, byz)
	v.byzOv[x] = byz
	if len(cs.members) > v.viewMax {
		v.viewMax = len(cs.members)
	}
	v.p.moves = append(v.p.moves, planMove{kind: moveInsert, x: x, byz: byz, to: c})
	return nil
}

// remove takes x out of c.
func (v *planView) remove(x ids.NodeID, byz bool, c ids.ClusterID) error {
	cs, err := v.cow(c)
	if err != nil {
		return err
	}
	if err := cs.remove(x, byz); err != nil {
		return err
	}
	v.p.moves = append(v.p.moves, planMove{kind: moveRemove, x: x, byz: byz, from: c})
	return nil
}

// --- planning ---

// planOp computes one op's plan against the quiescent world, on the given
// worker's pooled machinery.
func (w *World) planOp(ctx *planContext, p *batchPlan, rng *xrand.Rand) {
	ctx.view.reset(p)
	v := &ctx.view
	switch p.op.Kind {
	case OpJoin:
		w.planJoin(p, v, ctx.walker, ctx.exch, rng)
	case OpLeave:
		w.planLeave(p, v, ctx.exch, rng)
	case OpExchange:
		w.planExchange(p, ctx.exch, rng)
	default:
		p.err = fmt.Errorf("core: unknown op kind %d", int(p.op.Kind))
	}
}

func (w *World) planJoin(p *batchPlan, v *planView, walker *walk.Walker, exch *exchange.Exchanger, rng *xrand.Rand) {
	contact := p.op.Contact
	if !p.op.HasContact {
		var ok bool
		contact, ok = w.RandomCluster(rng)
		if !ok {
			p.err = fmt.Errorf("core: no clusters to contact")
			return
		}
	} else if !w.hasCluster(contact) {
		p.err = fmt.Errorf("core: join contact %v is not a cluster: %w", contact, ErrUnknownCluster)
		return
	}
	out, err := walker.Biased(&p.led, rng, contact)
	if err != nil {
		p.err = fmt.Errorf("core: join walk: %w", err)
		return
	}
	if out.Hijacked {
		p.stats.HijackedWalks++
	}
	target := out.End
	if err := v.insert(p.newNode, p.op.Byz, target); err != nil {
		p.err = err
		return
	}
	chargeInsertion(v, &p.led, target)
	if w.cfg.ExchangeOnJoin {
		rep, err := exch.Run(&p.led, rng, target)
		if err != nil {
			p.err = fmt.Errorf("core: join exchange: %w", err)
			return
		}
		p.stats.HijackedWalks += int64(rep.Hijacked)
	}
	if v.Size(target) > w.cfg.SplitThreshold() {
		p.deferTo("split required")
		return
	}
	p.stats.Joins++
}

func (w *World) planLeave(p *batchPlan, v *planView, exch *exchange.Exchanger, rng *xrand.Rand) {
	info, ok := w.nodeInfoOf(p.op.Victim)
	if !ok {
		p.err = fmt.Errorf("core: leave of node %v: %w", p.op.Victim, ErrUnknownNode)
		return
	}
	c := info.cluster
	chargeDeparture(v, &p.led, c)

	if err := v.remove(p.op.Victim, info.byz, c); err != nil {
		p.err = err
		return
	}
	if v.Size(c) == 0 {
		p.deferTo("cluster emptied")
		return
	}
	if w.cfg.ExchangeOnLeave {
		rep, err := exch.Run(&p.led, rng, c)
		if err != nil {
			p.err = fmt.Errorf("core: leave exchange: %w", err)
			return
		}
		p.stats.HijackedWalks += int64(rep.Hijacked)
		if w.cfg.LeaveCascade {
			// The cascade plan (shared with the classic path via
			// runLeaveCascade): receivers are enumerated from the
			// pre-batch snapshot and every draw comes from this op's
			// substream. Cascade writes land in the plan's footprint like
			// any other transfer and are applied in op order — and under
			// GroupedCascade the round swaps WITHIN the clusters the
			// primary exchange already wrote, so the leave's write
			// footprint stays ~|C| clusters instead of the ~|C|^2 the
			// per-receiver cascade accumulates. That footprint
			// drop is what lets full-density leave batches pass admission
			// (see BenchmarkShardedWorldBatch's cascade regime).
			hijacked, err := runLeaveCascade(w.cfg.GroupedCascade, exch, v, &p.led, rng, c, rep.Receivers)
			if err != nil {
				p.err = err
				return
			}
			p.stats.HijackedWalks += hijacked
		}
	}
	if v.Size(c) < w.cfg.MergeThreshold() {
		p.deferTo("merge required")
		return
	}
	p.stats.Leaves++
}

func (w *World) planExchange(p *batchPlan, exch *exchange.Exchanger, rng *xrand.Rand) {
	if !w.hasCluster(p.op.Target) {
		p.err = fmt.Errorf("core: exchange on cluster %v: %w", p.op.Target, ErrUnknownCluster)
		return
	}
	rep, err := exch.Run(&p.led, rng, p.op.Target)
	if err != nil {
		p.err = err
		return
	}
	p.stats.HijackedWalks += int64(rep.Hijacked)
}

// --- admission + apply ---

// setsIntersect reports whether the two cluster sets share an element.
func setsIntersect(a, b ids.ClusterSet) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for c := range a {
		if b.Has(c) {
			return true
		}
	}
	return false
}

func unionInto(dst, src ids.ClusterSet) {
	for c := range src {
		dst.Add(c)
	}
}

// conflicts reports whether p's write footprint overlaps the accumulated
// admitted write footprint. Read-only visits (walk transits, cost reads)
// deliberately do not conflict: every plan reads the same pre-batch
// snapshot, per the round-concurrency semantics.
func conflicts(p *batchPlan, accW ids.ClusterSet) bool {
	return setsIntersect(p.writes, accW)
}

// applyPlan replays an admitted plan's membership moves together with the
// node-record and sampling-index updates they imply. Each node is moved by
// at most one admitted plan.
func (w *World) applyPlan(p *batchPlan) error {
	for _, m := range p.moves {
		switch m.kind {
		case moveInsert:
			if err := w.insertMember(m.to, m.x, m.byz); err != nil {
				return err
			}
			w.registerNode(m.x, m.byz, m.to)
		case moveRemove:
			if err := w.removeMember(m.from, m.x, m.byz); err != nil {
				return err
			}
			w.deleteNodeInfo(m.x)
			w.sampleRemove(m.x, m.byz)
		case moveTransfer:
			if err := w.applyTransfer(m.x, m.from, m.to, m.byz); err != nil {
				return err
			}
		}
	}
	return nil
}

// planWorkers picks the plan-phase concurrency: Config.Shards bounded by
// the batch size and the machine, at least 1. The result never affects
// outcomes, only wall-clock.
func (w *World) planWorkers(n int) int {
	return max(1, min(w.cfg.Shards, runtime.GOMAXPROCS(0), n))
}

// runIndexed fans fn(worker, 0..n-1) across the given number of workers
// via an atomic claim counter. Worker 0 runs on the calling goroutine, so
// only workers-1 goroutines are spawned and workers <= 1 runs inline. fn
// must be safe for concurrent invocation on distinct indexes; the worker
// id lets callers hand each goroutine its own pooled machinery.
func runIndexed(workers, n int, fn func(worker, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			claimIndexed(&next, n, worker, fn)
		}(g)
	}
	claimIndexed(&next, n, 0, fn)
	wg.Wait()
}

// claimIndexed runs fn on indexes claimed from next until n is reached.
func claimIndexed(next *atomic.Int64, n, worker int, fn func(worker, i int)) {
	for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
		fn(worker, i)
	}
}

// ExecBatch executes a batch of operations — one paper time step with
// multiple simultaneous arrivals/departures — through the op scheduler.
// Results are positionally aligned with ops. The outcome is deterministic
// in the world seed and the batch contents, independent of the
// plan-worker bound (Config.Shards) and of GOMAXPROCS; see the package
// comment at the top of this file for the phase structure and the exact
// divergence from the classic one-op-per-call API.
//
// ExecBatch must not run concurrently with any other World method; it
// manages its own plan workers.
func (w *World) ExecBatch(ops []Op) []OpResult {
	return w.ExecBatchInto(nil, ops)
}

// ExecBatchInto is ExecBatch writing its results into a caller-owned
// slice (grown only when too small), so steady-state batch loops reuse
// one result buffer and the whole plan/apply path runs without per-batch
// garbage. The returned slice is res (or its replacement), resized to
// len(ops).
func (w *World) ExecBatchInto(res []OpResult, ops []Op) []OpResult {
	if cap(res) < len(ops) {
		res = make([]OpResult, len(ops))
	}
	res = res[:len(ops)]
	if len(ops) == 0 {
		return res
	}
	if !w.bootstrapped {
		err := fmt.Errorf("core: batch before bootstrap")
		for i := range res {
			res[i] = OpResult{Err: err}
		}
		return res
	}

	// Serial hook refresh: installed batch-lifecycle hooks fix their
	// snapshot-scoped decision state against the quiescent pre-batch world
	// before any plan worker can consult them (hooks.go).
	hooks, nHooks := w.hookLifecycles()
	for i := 0; i < nHooks; i++ {
		hooks[i].BeginBatch()
	}

	// Per-op substreams and (for joins) node IDs, derived in op order from
	// pooled plan records and in-place-reseeded substreams.
	s := &w.sched
	s.ensure(len(ops))
	w.rng.SplitInto(&s.batchRng, 0xBA7C4)
	for i := range ops {
		p := &s.plans[i]
		p.reset(ops[i], i)
		if ops[i].Kind == OpJoin {
			p.newNode = w.nodeAlloc.NextNode()
			p.hasNode = true
		}
		s.batchRng.SplitInto(&s.rngs[i], uint64(i))
	}

	// Phase 1: plan, possibly on workers. Plans are independent: each
	// reads the quiescent world, draws its own substream, charges its own
	// ledger; each worker plans on its own pooled machinery (view, walker,
	// exchanger). Adversary hooks are consulted concurrently here — pure
	// reads under the hook contract, so hooked worlds plan at full
	// parallelism.
	workers := w.planWorkers(len(ops))
	for len(s.ctxs) < workers {
		ctx, err := newPlanContext(w)
		if err != nil {
			// Unreachable with a NewWorld-validated config; fail the batch
			// loudly rather than planning with missing machinery.
			for i := range res {
				res[i] = OpResult{Node: s.plans[i].newNode, Err: err}
			}
			return res
		}
		s.ctxs = append(s.ctxs, ctx)
	}
	if s.planFn == nil {
		s.planFn = func(worker, i int) {
			w.planOp(w.sched.ctxs[worker], &w.sched.plans[i], &w.sched.rngs[i])
		}
	}
	runIndexed(workers, len(ops), s.planFn)

	// Phase 2: admit in op order, applying each admitted plan as it is
	// admitted.
	if s.accW == nil {
		s.accW = make(ids.ClusterSet)
	} else {
		clear(s.accW)
	}
	s.tail = s.tail[:0]
	for i := range s.plans {
		p := &s.plans[i]
		switch {
		case p.err != nil:
			res[p.idx] = OpResult{Node: p.newNode, Err: p.err}
		case p.deferred || conflicts(p, s.accW):
			if !p.deferred {
				p.deferTo("footprint conflict")
			}
			s.tail = append(s.tail, p)
		default:
			unionInto(s.accW, p.writes)
			if err := w.applyPlan(p); err != nil {
				// Admission guarantees this cannot happen; surface loudly if a
				// footprint bug ever breaks the guarantee (the invariant suite
				// would then fail consistency too).
				res[p.idx] = OpResult{Node: p.newNode, Err: err}
				continue
			}
			w.led.Merge(&p.led)
			w.stats.accumulate(p.stats)
			if nHooks > 0 {
				s.hijacked[p.idx] = p.stats.HijackedWalks
			}
			res[p.idx] = OpResult{Node: p.newNode}
		}
	}

	// Phase 3: serial tail, in op order, against live state, on fresh
	// substreams (the planning draws were consumed identically in every
	// mode, so a derived stream keeps the tail deterministic too).
	for _, p := range s.tail {
		s.rngs[p.idx].SplitInto(&s.tailRng, 0x7A11)
		tailRng := &s.tailRng
		hijackedBefore := w.stats.HijackedWalks
		var err error
		switch p.op.Kind {
		case OpJoin:
			contact := p.op.Contact
			if !p.op.HasContact {
				var ok bool
				contact, ok = w.RandomCluster(tailRng)
				if !ok {
					err = fmt.Errorf("core: no clusters to contact")
				}
			}
			if err == nil {
				err = w.joinExisting(w.led, tailRng, p.newNode, p.op.Byz, contact, false)
			}
		case OpLeave:
			err = w.leaveWith(w.led, tailRng, p.op.Victim, false)
		case OpExchange:
			err = w.forceExchangeWith(w.led, tailRng, p.op.Target, false)
		}
		if nHooks > 0 {
			s.hijacked[p.idx] = w.stats.HijackedWalks - hijackedBefore
		}
		res[p.idx] = OpResult{Node: p.newNode, Err: err, Deferred: true, DeferReason: p.reason}
	}

	// Hook commit fold: once per op, in op order across admitted and tail
	// alike, after every effect of the batch is in place — the serial step
	// where hook bookkeeping (ratchet counters, budget spend) lands, next
	// to the scheduler's own order-sensitive folds above.
	if nHooks > 0 {
		for i := range res {
			for h := 0; h < nHooks; h++ {
				hooks[h].CommitOp(i, res[i].Err == nil, s.hijacked[i])
			}
		}
	}

	// One settle per batch: the batch is one paper time step.
	w.settleSecurity()
	return res
}
