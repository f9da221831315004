package core

// The cascade-equivalence test layer: grouped leave cascades
// (ShuffleGrouped) rewrite the hottest correctness-critical path
// of the protocol, so they get the same proof obligations batches got in
// sched_test.go — the classic-replay oracle, determinism, invariant
// preservation — plus the two claims specific to grouping: the
// write-footprint drop (~|C|^2 -> ~|C| clusters per leave) and the
// ledger split (cascade traffic separable under metrics.ClassCascade).

import (
	"fmt"
	"slices"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// TestGroupedCascadeMatchesSerial runs the classic-replay oracle
// (requireReplayMatch) in both cascade modes side by side, so a
// grouped-path bug that only shows up against the per-receiver
// composition (e.g. a stream drawn out of order) diverges here at once,
// and checks the accounting split: grouped runs charge the cascade class,
// the per-receiver composition never does.
func TestGroupedCascadeMatchesSerial(t *testing.T) {
	batches := 25
	if testing.Short() {
		batches = 8
	}
	for _, grouped := range []bool{true, false} {
		batched := newModeWorld(t, 42, grouped)
		replay := newModeWorld(t, 42, grouped)
		r := xrand.New(7)
		for i := 0; i < batches; i++ {
			ops := randomBatch(batched, r, 8)
			rb := batched.ExecBatch(ops)
			rr := replayClassic(replay, nil, ops)
			requireReplayMatch(t, fmt.Sprintf("grouped=%v batch %d", grouped, i), batched, replay, rb, rr)
		}
		if got := batched.Ledger().MessagesBy(metrics.ClassCascade) > 0; got != grouped {
			t.Errorf("grouped=%v: cascade-class traffic present=%v (total %d)",
				grouped, got, batched.Ledger().MessagesBy(metrics.ClassCascade))
		}
	}
}

// TestGroupedCascadeClassicDeterminism: the classic one-op-per-call API
// with grouped cascades is a pure function of the seed (the grouped round
// draws from the same single stream the per-receiver cascade used).
func TestGroupedCascadeClassicDeterminism(t *testing.T) {
	run := func() string {
		w := newModeWorld(t, 99, true)
		r := xrand.New(3)
		for i := 0; i < 30; i++ {
			if i%3 == 2 {
				if x, ok := w.RandomNode(r); ok {
					if err := w.Leave(x); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if _, err := w.JoinAuto(r.Bool(0.2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatal(err)
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("classic grouped-cascade runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// leaveFootprint runs one unsettled leave of x on w and reports how many
// clusters it wrote — those whose member list, order included, differs
// after the leave, retired clusters counting as written — and whether the
// leave reached its cascade and stayed clear of a merge, whose absorbed
// partner would make the comparison unfair. The settle queue is no
// measure of this: a swap of two nodes of one allegiance changes no
// cluster's composition, so it queues nothing.
func leaveFootprint(t *testing.T, w *World, x ids.NodeID, seed uint64) (writes int, usable bool) {
	t.Helper()
	clusters := w.Clusters()
	before := make([][]ids.NodeID, len(clusters))
	for i, c := range clusters {
		before[i] = w.Members(c)
	}
	c, _ := w.ClusterOf(x)
	merges := w.Stats().Merges
	w.rng = xrand.New(seed)
	if err := w.leaveWith(x); err != nil {
		t.Fatal(err)
	}
	for i, c := range clusters {
		if cs := w.cluster(c); cs == nil || !slices.Equal(cs.members, before[i]) {
			writes++
		}
	}
	return writes, w.hasCluster(c) && w.Stats().Merges == merges
}

// TestGroupedCascadeShrinksLeaveFootprint is grouping's load-bearing
// claim: the same leave, run on identical worlds with the same stream,
// must write FAR fewer clusters under the grouped cascade. The per-receiver cascade exchanges every member of every
// receiver (~|C|^2 cluster writes); the grouped round performs one swap
// per receiver (~|C|). The gap only materializes when the overlay has
// many more clusters than one cascade can touch (#clusters >> |C|^2), so
// this test runs a cluster-rich configuration: |C| ~ 8 across ~128 clusters. Demand at
// least a 2x drop on every sampled victim and 3x on average; the
// asymptotic ratio is |C|/2, diluted here by birthday collisions among
// the per-receiver cascade's partner draws.
func TestGroupedCascadeShrinksLeaveFootprint(t *testing.T) {
	mk := func(grouped bool) *World {
		cfg := DefaultConfig(2048)
		cfg.Seed = 7
		cfg.K = 0.75 // small clusters -> cluster-rich overlay (n/|C| ~ 128)
		cfg.Shuffle = cascadeMode(grouped)
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(1024, func(slot int) bool { return slot%7 == 0 }); err != nil {
			t.Fatal(err)
		}
		return w
	}
	r := xrand.New(11)
	samples, ratioSum := 0, 0.0
	for i := 0; i < 40 && samples < 8; i++ {
		classic, grouped := mk(false), mk(true)
		if a, b := worldFingerprint(classic), worldFingerprint(grouped); a != b {
			t.Fatalf("bootstrap fingerprints differ between cascade modes:\n%s\nvs\n%s", a, b)
		}
		x, ok := classic.RandomNode(r)
		if !ok {
			t.Fatal("no nodes to sample")
		}
		cw, cok := leaveFootprint(t, classic, x, uint64(1000+i))
		gw, gok := leaveFootprint(t, grouped, x, uint64(1000+i))
		if !cok || !gok {
			continue // merge or emptied cluster: not a like-for-like cascade
		}
		if gw*2 > cw {
			t.Errorf("victim %v: grouped leave writes %d clusters vs %d per-receiver — less than a 2x drop", x, gw, cw)
		}
		ratioSum += float64(cw) / float64(gw)
		samples++
	}
	if samples < 4 {
		t.Fatalf("only %d comparable leaves in 40 draws", samples)
	}
	if avg := ratioSum / float64(samples); avg < 3 {
		t.Errorf("mean footprint ratio %.1fx across %d leaves, want >= 3x", avg, samples)
	}
}

// TestGroupedCascadeIntoMerge pins the structural corner the fuzz seed
// corpus also steers at (seed-cascade-into-merge): a leave whose grouped
// cascade round is followed by the source cluster falling below the merge
// threshold must still merge correctly inside a batch and leave every
// invariant intact.
func TestGroupedCascadeIntoMerge(t *testing.T) {
	w := newModeWorld(t, 5, true)
	r := xrand.New(9)
	minPop := 2 * w.Config().TargetClusterSize()
	for i := 0; i < 200 && w.Stats().Merges == 0 && w.NumNodes() > minPop; i++ {
		ops := make([]Op, 0, 4)
		used := make(ids.NodeSet)
		for len(ops) < 4 {
			x, ok := w.RandomNode(r)
			if !ok || !used.Add(x) {
				continue
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		}
		for _, rr := range w.ExecBatch(ops) {
			if rr.Err != nil && !IsUnknownNode(rr.Err) {
				t.Fatal(rr.Err)
			}
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatalf("invariants after shrink batch %d: %v", i, err)
		}
	}
	if w.Stats().Merges == 0 {
		t.Fatal("shrinking never triggered a merge after a grouped cascade")
	}
}

// TestGroupedCascadeLedgerSplit: on one world, leave costs must split
// cleanly — primary-exchange traffic under ClassExchange, cascade traffic
// under ClassCascade — so experiments can attribute the cascade's share
// of a leave. Join-only churn must never charge the cascade class.
func TestGroupedCascadeLedgerSplit(t *testing.T) {
	w := newModeWorld(t, 31, true)
	if got := w.Ledger().MessagesBy(metrics.ClassCascade); got != 0 {
		t.Fatalf("bootstrap charged %d cascade messages", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Ledger().MessagesBy(metrics.ClassCascade); got != 0 {
		t.Fatalf("joins charged %d cascade messages; only leave cascades may", got)
	}
	r := xrand.New(1)
	before := w.Ledger().Snapshot()
	for i := 0; i < 5; i++ {
		x, _ := w.RandomNode(r)
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	cost := w.Ledger().Since(before)
	if cost.ByClass[metrics.ClassCascade] == 0 {
		t.Error("five leaves charged no cascade-class traffic")
	}
	if cost.ByClass[metrics.ClassExchange] == 0 {
		t.Error("five leaves charged no primary exchange traffic")
	}
}
