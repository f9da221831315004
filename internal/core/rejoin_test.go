package core

import (
	"fmt"
	"testing"

	"nowover/internal/ids"
)

// rejoinOps is one time step of n OpRejoin ops: it re-joins the n oldest
// displaced nodes.
func rejoinOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i].Kind = OpRejoin
	}
	return ops
}

// newRejoinWorld is a bootstrapped world under MergeRejoinAll: N=512,
// grouped cascade, 200 initial nodes, one in six Byzantine.
func newRejoinWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	cfg := DefaultConfig(512)
	cfg.Seed = seed
	cfg.MergeStrategy = MergeRejoinAll
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, func(slot int) bool { return slot%6 == 0 }); err != nil {
		t.Fatal(err)
	}
	return w
}

// settleProbe is a steer hook that scores every cluster 0, as the world
// does with no steer hook, and logs its lifecycle calls. At CommitOp(i) it
// also records whether nodes[i]'s cluster is still queued for settling,
// which it is only if no settle has run since op i.
type settleProbe struct {
	w       *World
	nodes   []ids.NodeID
	calls   []hookCall
	pending []bool
}

func (p *settleProbe) Score(ids.ClusterID) float64 { return 0 }

func (p *settleProbe) BeginBatch() { p.calls = append(p.calls, hookCall{op: -1}) }

func (p *settleProbe) CommitOp(i int, ok bool, _ int64) {
	p.calls = append(p.calls, hookCall{op: i, ok: ok})
	p.pending = append(p.pending, p.w.clusters[p.w.nodes[p.nodes[i]].cluster].dirty)
}

// TestExecBatchRejoinDrainsFIFO: one batch of k OpRejoin ops re-inserts
// the k oldest displaced nodes in FIFO order, each with its allegiance,
// drives the hook lifecycle over them in op order, settles once after the
// last, and counts each in Joins and Rejoins.
func TestExecBatchRejoinDrainsFIFO(t *testing.T) {
	w := newRejoinWorld(t, 17)
	for w.Displaced() == 0 {
		x, ok := w.RandomNode(w.Rng())
		if !ok {
			t.Fatal("world emptied before any merge")
		}
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	queued := append([]displacedNode(nil), w.displaced...)
	k := len(queued)
	byz := 0
	probe := &settleProbe{w: w}
	for _, d := range queued {
		probe.nodes = append(probe.nodes, d.node)
		if d.byz {
			byz++
		}
	}
	if k < 2 || byz == 0 || byz == k {
		t.Fatalf("merge displaced %d nodes, %d Byzantine: too few to check order and allegiance", k, byz)
	}
	w.SetSteerHook(probe)
	before := w.Stats()

	res := w.ExecBatch(rejoinOps(k))

	wantCalls := []hookCall{{op: -1}}
	for i, rr := range res {
		if rr.Err != nil {
			t.Fatalf("op %d: %v", i, rr.Err)
		}
		if rr.Node != queued[i].node {
			t.Errorf("op %d re-joined %v, want %v (FIFO head)", i, rr.Node, queued[i].node)
		}
		if !w.Contains(rr.Node) || w.IsByzantine(rr.Node) != queued[i].byz {
			t.Errorf("op %d: node %v present=%v byz=%v, want present, byz=%v",
				i, rr.Node, w.Contains(rr.Node), w.IsByzantine(rr.Node), queued[i].byz)
		}
		wantCalls = append(wantCalls, hookCall{op: i, ok: true})
	}
	if fmt.Sprint(probe.calls) != fmt.Sprint(wantCalls) {
		t.Errorf("lifecycle calls %v, want %v", probe.calls, wantCalls)
	}
	for i, p := range probe.pending {
		if !p {
			t.Errorf("op %d's cluster was settled before the batch ended", i)
		}
	}
	if len(w.settleQueue) != 0 {
		t.Errorf("%d clusters left unsettled after the batch", len(w.settleQueue))
	}
	st := w.Stats()
	if st.Joins-before.Joins != int64(k) || st.Rejoins-before.Rejoins != int64(k) {
		t.Errorf("joins +%d rejoins +%d, want +%d each",
			st.Joins-before.Joins, st.Rejoins-before.Rejoins, k)
	}
	if w.Displaced() != 0 {
		t.Errorf("%d nodes still displaced", w.Displaced())
	}
	requireInvariants(t, w)
}

// TestExecBatchRejoinEmptyQueue: with no node displaced, an OpRejoin fails
// and the world, its random stream included, stays as its twin that ran
// no batch.
func TestExecBatchRejoinEmptyQueue(t *testing.T) {
	w, twin := newRejoinWorld(t, 5), newRejoinWorld(t, 5)
	res := w.ExecBatch(rejoinOps(1))
	if res[0].Err == nil {
		t.Fatal("rejoin on an empty displaced queue succeeded")
	}
	if worldFingerprint(w) != worldFingerprint(twin) {
		t.Error("failed rejoin changed the world")
	}
	if a, b := w.Rng().Uint64(), twin.Rng().Uint64(); a != b {
		t.Errorf("failed rejoin drew from the stream: next word %#x, twin's %#x", a, b)
	}
}
