package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// newTestWorld builds a bootstrapped world for batch tests: N=512 name
// space, 200 initial nodes, 20% Byzantine.
func newTestWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	return newModeWorld(t, seed, false)
}

// cascadeMode is the shuffle mode a test's grouped flag selects: the
// grouped cascade or Algorithm 2's per-receiver one.
func cascadeMode(grouped bool) Shuffle {
	if grouped {
		return ShuffleGrouped
	}
	return ShufflePerReceiver
}

// newModeWorld is newTestWorld with the leave-cascade mode chosen.
func newModeWorld(t testing.TB, seed uint64, grouped bool) *World {
	t.Helper()
	cfg := DefaultConfig(512)
	cfg.Seed = seed
	cfg.Shuffle = cascadeMode(grouped)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 }); err != nil {
		t.Fatal(err)
	}
	return w
}

// worldFingerprint renders the complete observable protocol state — sorted
// membership with allegiances, the sampling-index order (which seeds all
// future RandomNode draws), stats, security counters and ledger totals —
// so two worlds can be compared for exact equality.
func worldFingerprint(w *World) string {
	return fingerprintWith(w, w.Stats())
}

// replayFingerprint is worldFingerprint without the three Stats fields
// settleSecurity counts: ExecBatch settles once per batch, the classic
// replay after every op, so only these may differ between the two.
func replayFingerprint(w *World) string {
	st := w.Stats()
	st.DegradedEvents, st.CapturedEvents, st.MaxByzFractionEver = 0, 0, 0
	return fingerprintWith(w, st)
}

func fingerprintWith(w *World, st Stats) string {
	var b strings.Builder
	cs := append([]ids.ClusterID(nil), w.Clusters()...)
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	for _, c := range cs {
		ms := w.Members(c)
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		fmt.Fprintf(&b, "%v[%d byz=%d]:", c, len(ms), w.Byz(c))
		for _, x := range ms {
			fmt.Fprintf(&b, " %v", x)
			if w.IsByzantine(x) {
				b.WriteString("*")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "order:%v\n", w.allNodes)
	fmt.Fprintf(&b, "stats:%+v\n", st)
	deg, cap := w.CurrentInsecure()
	fmt.Fprintf(&b, "insecure:%d/%d max=%d n=%d\n", deg, cap, w.View().MaxSize, w.NumNodes())
	fmt.Fprintf(&b, "cost:%d/%d\n", w.Ledger().Messages(), w.Ledger().Rounds())
	return b.String()
}

// randomBatch builds a mixed batch of ops against w's current population:
// joins (some Byzantine, some with an explicit contact), leaves with
// distinct victims, and forced exchanges. Deterministic in r.
func randomBatch(w *World, r *xrand.Rand, size int) []Op {
	ops := make([]Op, 0, size)
	used := make(ids.NodeSet)
	for len(ops) < size {
		switch r.Intn(4) {
		case 0, 1:
			op := Op{Kind: OpJoin, Byz: r.Bool(0.2)}
			if r.Bool(0.25) {
				op.Contact, op.HasContact = w.RandomCluster(r)
			}
			ops = append(ops, op)
		case 2:
			x, ok := w.RandomNode(r)
			if !ok || !used.Add(x) {
				continue
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		case 3:
			c, ok := w.RandomCluster(r)
			if !ok {
				continue
			}
			ops = append(ops, Op{Kind: OpExchange, Target: c})
		}
	}
	return ops
}

// replayClassic runs ops through the public one-op calls (JoinAuto, Join,
// Leave, ForceExchange) in op order — the classic replay ExecBatch must
// match. When h is non-nil the replay drives h's batch lifecycle the way
// ExecBatch does: BeginBatch first, then CommitOp per op with that op's
// hijacked-walk tally.
func replayClassic(w *World, h BatchHook, ops []Op) []OpResult {
	if h != nil {
		h.BeginBatch()
	}
	res := make([]OpResult, len(ops))
	hijacked := make([]int64, len(ops))
	for i, op := range ops {
		before := w.Stats().HijackedWalks
		switch op.Kind {
		case OpJoin:
			if op.HasContact {
				res[i].Node, res[i].Err = w.Join(op.Byz, op.Contact)
			} else {
				res[i].Node, res[i].Err = w.JoinAuto(op.Byz)
			}
		case OpLeave:
			res[i].Err = w.Leave(op.Victim)
		case OpExchange:
			res[i].Err = w.ForceExchange(op.Target)
		}
		hijacked[i] = w.Stats().HijackedWalks - before
	}
	if h != nil {
		for i := range res {
			h.CommitOp(i, res[i].Err == nil, hijacked[i])
		}
	}
	return res
}

// requireReplayMatch is the classic-replay oracle: after the same ops ran
// through ExecBatch on batched and through replayClassic on replay, both
// worlds must satisfy every invariant, report the same per-op outcome, and
// be identical apart from the three settle-counted Stats fields. Those
// may only be lower on the batched side: a per-batch settle sees a subset
// of the states a per-op settle sees.
func requireReplayMatch(t testing.TB, label string, batched, replay *World, rb, rr []OpResult) {
	t.Helper()
	for j := range rb {
		if fmt.Sprint(rb[j].Err) != fmt.Sprint(rr[j].Err) || (rb[j].Err == nil && rb[j].Node != rr[j].Node) {
			t.Fatalf("%s: op %d diverged: batched=%+v replay=%+v", label, j, rb[j], rr[j])
		}
		if rb[j].Deferred || rb[j].DeferReason != "" {
			t.Fatalf("%s: op %d reported a deferral: %+v", label, j, rb[j])
		}
	}
	if err := CheckInvariants(batched); err != nil {
		t.Fatalf("%s: batched invariants: %v", label, err)
	}
	if err := CheckInvariants(replay); err != nil {
		t.Fatalf("%s: replay invariants: %v", label, err)
	}
	if a, b := replayFingerprint(batched), replayFingerprint(replay); a != b {
		t.Fatalf("%s: states diverged:\n--- batched ---\n%s\n--- replay ---\n%s", label, a, b)
	}
	sb, sr := batched.Stats(), replay.Stats()
	if sb.DegradedEvents > sr.DegradedEvents || sb.CapturedEvents > sr.CapturedEvents ||
		sb.MaxByzFractionEver > sr.MaxByzFractionEver {
		t.Fatalf("%s: batch-boundary settle counted more than the per-op replay:\n%+v\nvs\n%+v", label, sb, sr)
	}
}

// replayBatches is the number of batches each classic-replay world runs.
func replayBatches() int {
	if testing.Short() {
		return 15
	}
	return 60
}

func TestExecBatchBeforeBootstrap(t *testing.T) {
	cfg := DefaultConfig(512)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.ExecBatch([]Op{{Kind: OpJoin}})
	if res[0].Err == nil {
		t.Fatal("batch before bootstrap accepted")
	}
}

func TestExecBatchJoinsLeavesExchanges(t *testing.T) {
	w := newTestWorld(t, 11)
	n0 := w.NumNodes()
	r := xrand.New(99)
	x1, _ := w.RandomNode(r)
	x2, _ := w.RandomNode(r)
	for x2 == x1 {
		x2, _ = w.RandomNode(r)
	}
	c, _ := w.RandomCluster(r)
	res := w.ExecBatch([]Op{
		{Kind: OpJoin, Byz: false},
		{Kind: OpJoin, Byz: true},
		{Kind: OpLeave, Victim: x1},
		{Kind: OpLeave, Victim: x2},
		{Kind: OpExchange, Target: c},
	})
	for i, rr := range res {
		if rr.Err != nil {
			t.Fatalf("op %d failed: %v", i, rr.Err)
		}
	}
	if res[0].Node == res[1].Node {
		t.Fatal("two joins received the same node ID")
	}
	if !w.Contains(res[0].Node) || !w.Contains(res[1].Node) {
		t.Fatal("joined nodes missing from the world")
	}
	if !w.IsByzantine(res[1].Node) || w.IsByzantine(res[0].Node) {
		t.Fatal("joiner allegiance lost in batch execution")
	}
	if w.Contains(x1) || w.Contains(x2) {
		t.Fatal("leave victims still present")
	}
	if got := w.NumNodes(); got != n0 {
		t.Fatalf("population %d after +2/-2 batch, want %d", got, n0)
	}
	st := w.Stats()
	if st.Joins != 2 || st.Leaves != 2 {
		t.Fatalf("stats joins=%d leaves=%d, want 2/2", st.Joins, st.Leaves)
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesClassicReplay is the contract of ExecBatch: on twelve
// seeded worlds (seeds 1-6, per-receiver and grouped cascade), each mixed
// 8-op batch leaves the world exactly as calling the public one-op API on
// the same ops in the same order leaves a twin world — membership,
// sampling-index order, ledger and Stats — apart from the three
// settle-counted fields (requireReplayMatch).
func TestBatchMatchesClassicReplay(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			label := fmt.Sprintf("grouped=%v seed=%d", grouped, seed)
			batched := newModeWorld(t, seed, grouped)
			replay := newModeWorld(t, seed, grouped)
			r := xrand.New(seed ^ 0xBA7C4)
			for i := 0; i < replayBatches(); i++ {
				ops := randomBatch(batched, r, 8)
				rb := batched.ExecBatch(ops)
				rr := replayClassic(replay, nil, ops)
				requireReplayMatch(t, fmt.Sprintf("%s batch %d", label, i), batched, replay, rb, rr)
			}
		}
	}
}

// TestBatchRepeatableAcrossRuns: re-running the same scenario yields the
// same fingerprint (guards against map-iteration order leaking into batch
// results).
func TestBatchRepeatableAcrossRuns(t *testing.T) {
	run := func() string {
		w := newTestWorld(t, 1234)
		r := xrand.New(5)
		for i := 0; i < 10; i++ {
			w.ExecBatch(randomBatch(w, r, 6))
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("repeat runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestBatchSameClusterLeaves: two departures from the same cluster in one
// batch both succeed, both victims are gone, and the invariants hold.
func TestBatchSameClusterLeaves(t *testing.T) {
	w := newTestWorld(t, 77)
	var c ids.ClusterID
	for _, cand := range w.Clusters() {
		if w.Size(cand) >= w.cfg.MergeThreshold()+2 {
			c = cand
			break
		}
	}
	ms := w.Members(c)
	res := w.ExecBatch([]Op{
		{Kind: OpLeave, Victim: ms[0]},
		{Kind: OpLeave, Victim: ms[1]},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("same-cluster leaves failed: %v / %v", res[0].Err, res[1].Err)
	}
	if w.Contains(ms[0]) || w.Contains(ms[1]) {
		t.Fatal("victims still present after batch")
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDuplicateVictimErrors: the same victim twice in one batch; the
// second leave must fail with ErrUnknownNode (the node is already gone).
func TestBatchDuplicateVictimErrors(t *testing.T) {
	w := newTestWorld(t, 3)
	x, _ := w.RandomNode(xrand.New(1))
	res := w.ExecBatch([]Op{
		{Kind: OpLeave, Victim: x},
		{Kind: OpLeave, Victim: x},
	})
	if res[0].Err != nil {
		t.Fatalf("first leave failed: %v", res[0].Err)
	}
	if !IsUnknownNode(res[1].Err) {
		t.Fatalf("duplicate leave error = %v, want ErrUnknownNode", res[1].Err)
	}
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

// TestBatchJoinsSplit: join-only batches grow the world until a join
// splits its cluster, and every invariant holds after every batch.
func TestBatchJoinsSplit(t *testing.T) {
	w := newTestWorld(t, 9)
	r := xrand.New(2)
	for i := 0; i < 80 && w.Stats().Splits == 0; i++ {
		ops := make([]Op, 6)
		for j := range ops {
			ops[j] = Op{Kind: OpJoin, Byz: r.Bool(0.1)}
		}
		for j, rr := range w.ExecBatch(ops) {
			if rr.Err != nil {
				t.Fatalf("join %d/%d failed: %v", i, j, rr.Err)
			}
		}
		if err := CheckInvariants(w); err != nil {
			t.Fatalf("invariants after batch %d: %v", i, err)
		}
	}
	if w.Stats().Splits == 0 {
		t.Fatal("growth produced no splits")
	}
}

// TestClassicAndBatchedInterleave: mixing the classic API and ExecBatch on
// one world stays deterministic and invariant-preserving.
func TestClassicAndBatchedInterleave(t *testing.T) {
	run := func() string {
		w := newTestWorld(t, 21)
		r := xrand.New(4)
		for i := 0; i < 6; i++ {
			if _, err := w.JoinAuto(false); err != nil {
				t.Fatal(err)
			}
			w.ExecBatch(randomBatch(w, r, 5))
			x, ok := w.RandomNode(r)
			if ok {
				if err := w.Leave(x); err != nil && !IsUnknownNode(err) {
					t.Fatal(err)
				}
			}
			if err := CheckInvariants(w); err != nil {
				t.Fatal(err)
			}
		}
		return worldFingerprint(w)
	}
	if a, b := run(), run(); a != b {
		t.Fatal("interleaved classic+batched execution is not deterministic")
	}
}
