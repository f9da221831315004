package core

import (
	"testing"

	"nowover/internal/xrand"
)

// fillExchangeBatch overwrites ops with n forced exchanges against
// distinct random clusters of w. Distinctness keeps every op on the
// admitted (concurrent-apply) path: identical targets would collide on
// footprints and fall to the serial tail, which is a different regime.
func fillExchangeBatch(w *World, r *xrand.Rand, ops []Op, n int) []Op {
	ops = ops[:0]
	for len(ops) < n {
		c, ok := w.RandomCluster(r)
		if !ok {
			break
		}
		dup := false
		for _, op := range ops {
			if op.Target == c {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ops = append(ops, Op{Kind: OpExchange, Target: c})
	}
	return ops
}

// TestHotPathAllocsSteadyState is the tentpole's allocation contract: once
// the pooled scratch is warm, the lean-regime batch path — plan views,
// copy-on-write snapshots, walker draws, exchanger shuffles, apply
// transfers, ledger merges — runs without any per-op heap garbage.
// Exchanges are the lean regime (no splits, merges or cascades); churn ops
// pay occasional amortized structural work and are benchmarked instead.
func TestHotPathAllocsSteadyState(t *testing.T) {
	w := newTestWorld(t, 1, 42)
	r := xrand.New(7)
	var ops []Op
	var res []OpResult
	runBatch := func() {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
		for _, rr := range res {
			if rr.Err != nil {
				t.Fatal(rr.Err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		runBatch() // warm the pools to steady-state capacity
	}
	if avg := testing.AllocsPerRun(256, runBatch); avg > 0 {
		t.Errorf("steady-state exchange batch allocates %.2f objects per batch; want 0", avg)
	}
	requireInvariants(t, w)
}

// TestSnapshotCowAllocFree pins satellite coverage on the copy-on-write
// path specifically: planning the same op repeatedly against a quiescent
// world recycles its cluster copies through the view's free list instead
// of growing fresh ones.
func TestSnapshotCowAllocFree(t *testing.T) {
	w := newTestWorld(t, 1, 11)
	ctx, err := newPlanContext(w)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := w.RandomCluster(xrand.New(3))
	if !ok {
		t.Fatal("no clusters")
	}
	p := &batchPlan{}
	rng := xrand.New(0)
	seeds := xrand.New(9)
	plan := func() {
		seeds.SplitInto(rng, 0)
		p.reset(Op{Kind: OpExchange, Target: c}, 0)
		w.planOp(ctx, p, rng)
		if p.err != nil {
			t.Fatal(p.err)
		}
	}
	for i := 0; i < 16; i++ {
		plan()
	}
	if avg := testing.AllocsPerRun(256, plan); avg > 0 {
		t.Errorf("warm plan allocates %.2f objects per op; want 0", avg)
	}
}

// BenchmarkExecBatchExchange is the lean-regime hot path: run it with
// -benchmem and allocs/op must stay at 0 (the CI benchmem job enforces
// this).
func BenchmarkExecBatchExchange(b *testing.B) {
	w := newTestWorld(b, 1, 42)
	r := xrand.New(7)
	var ops []Op
	var res []OpResult
	for i := 0; i < 32; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	_ = res
}

// BenchmarkSnapshotClusterInto isolates the clone path the plan phase
// leans on: copy-on-write snapshots of a cluster into free-list-recycled
// scratch records. Warm, it must stay at 0 allocs/op (CI-enforced), since
// every planned op takes one snapshot per cluster it reads.
func BenchmarkSnapshotClusterInto(b *testing.B) {
	w := newTestWorld(b, 1, 11)
	ctx, err := newPlanContext(w)
	if err != nil {
		b.Fatal(err)
	}
	c, ok := w.RandomCluster(xrand.New(3))
	if !ok {
		b.Fatal("no clusters")
	}
	p := &batchPlan{}
	rng := xrand.New(0)
	seeds := xrand.New(9)
	plan := func() {
		seeds.SplitInto(rng, 0)
		p.reset(Op{Kind: OpExchange, Target: c}, 0)
		w.planOp(ctx, p, rng)
		if p.err != nil {
			b.Fatal(p.err)
		}
	}
	for i := 0; i < 16; i++ {
		plan()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
}

// BenchmarkExecBatchChurn is the structural regime: balanced join/leave
// batches that occasionally split, merge and cascade. Allocations here are
// amortized structural state (arena growth, new clusters, overlay edges),
// not per-op garbage; the number to watch is its allocs/op staying small
// and flat, not zero.
func BenchmarkExecBatchChurn(b *testing.B) {
	w := newTestWorld(b, 1, 42)
	r := xrand.New(7)
	var ops []Op
	var res []OpResult
	step := func() {
		ops = ops[:0]
		for j := 0; j < 2; j++ {
			ops = append(ops, Op{Kind: OpJoin, Byz: r.Bool(0.2)})
		}
		seen := map[interface{}]bool{} // victims must be distinct within a batch
		for j := 0; j < 2; j++ {
			x, ok := w.RandomNode(r)
			if !ok || seen[x] {
				continue
			}
			seen[x] = true
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		}
		res = w.ExecBatchInto(res, ops)
	}
	for i := 0; i < 32; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	_ = res
}

// TestAuditAllocatesNothing pins Audit's contract: the size fold reads the
// arena and the connectivity BFS reuses the overlay's scratch, so a warm
// Audit allocates nothing.
func TestAuditAllocatesNothing(t *testing.T) {
	w := newTestWorld(t, 1, 42)
	if a := w.Audit(); !a.OverlayConnected {
		t.Fatal("test world overlay disconnected")
	}
	if avg := testing.AllocsPerRun(64, func() { w.Audit() }); avg > 0 {
		t.Errorf("Audit allocates %.2f objects per call; want 0", avg)
	}
}
