package core

import (
	"testing"

	"nowover/internal/xrand"
)

// fillExchangeBatch overwrites ops with n forced exchanges against
// distinct random clusters of w.
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

// TestHotPathAllocsSteadyState is the batch path's allocation contract:
// once the world's scratch is warm, the lean-regime batch path — walker
// draws, exchanger shuffles, transfers, ledger charges, the settle pass —
// runs without any per-op heap garbage.
// Exchanges are the lean regime (no splits, merges or cascades); churn ops
// pay occasional amortized structural work and are benchmarked instead.
func TestHotPathAllocsSteadyState(t *testing.T) {
	w := newTestWorld(t, 42)
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

// BenchmarkExecBatchExchange is the lean-regime hot path: run it with
// -benchmem and allocs/op must stay at 0 (the CI benchmem job enforces
// this).
func BenchmarkExecBatchExchange(b *testing.B) {
	w := newTestWorld(b, 42)
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

// BenchmarkExecBatchChurn is the structural regime: balanced join/leave
// batches that occasionally split, merge and cascade. Allocations here are
// amortized structural state (arena growth, new clusters, overlay edges),
// not per-op garbage; the number to watch is its allocs/op staying small
// and flat, not zero.
func BenchmarkExecBatchChurn(b *testing.B) {
	w := newTestWorld(b, 42)
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
// arena and the overlay half is the overlay's cached shape, so a warm
// Audit allocates nothing. (BenchmarkWorldAudit/after-mutation gates the
// recomputation.)
func TestAuditAllocatesNothing(t *testing.T) {
	w := newTestWorld(t, 42)
	if a := w.Audit(); !a.OverlayConnected {
		t.Fatal("test world overlay disconnected")
	}
	if avg := testing.AllocsPerRun(64, func() { w.Audit() }); avg > 0 {
		t.Errorf("Audit allocates %.2f objects per call; want 0", avg)
	}
}
