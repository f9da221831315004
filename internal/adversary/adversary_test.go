package adversary_test

import (
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/xrand"
)

func view(t *testing.T, n0 int, tau float64) *core.World {
	t.Helper()
	cfg := core.DefaultConfig(1024)
	cfg.Seed = 21
	w, err := core.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := int(tau * float64(n0))
	if err := w.Bootstrap(n0, func(slot int) bool { return slot < budget }); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBudgetEnforcement(t *testing.T) {
	w := view(t, 300, 0.30)
	b := adversary.Budget{Tau: 0.30}
	// Exactly at budget: corrupting one more must be rejected.
	if b.CanCorrupt(w) {
		t.Errorf("budget allowed corruption at %d/%d with tau=0.3",
			w.NumByzantine(), w.NumNodes())
	}
	loose := adversary.Budget{Tau: 0.5}
	if !loose.CanCorrupt(w) {
		t.Error("loose budget refused corruption")
	}
}

func TestRandomChurnDirections(t *testing.T) {
	w := view(t, 300, 0.1)
	s := &adversary.RandomChurn{Budget: adversary.Budget{Tau: 0.1}}
	r := xrand.New(1)
	if s.Name() == "" {
		t.Error("empty name")
	}
	joins, leaves := 0, 0
	for i := 0; i < 100; i++ {
		op := s.Decide(w, r, adversary.Grow)
		if op.Kind != adversary.OpJoin {
			t.Fatalf("grow produced %v", op.Kind)
		}
		if op.HasContact {
			t.Error("benign churn picked a contact")
		}
		joins++
		op = s.Decide(w, r, adversary.Shrink)
		if op.Kind != adversary.OpLeave {
			t.Fatalf("shrink produced %v", op.Kind)
		}
		if !w.Contains(op.Victim) {
			t.Error("victim not in network")
		}
		leaves++
	}
	if joins != 100 || leaves != 100 {
		t.Error("direction not respected")
	}
}

func TestRandomChurnRespectsBudget(t *testing.T) {
	w := view(t, 300, 0.30)
	s := &adversary.RandomChurn{Budget: adversary.Budget{Tau: 0.30}}
	r := xrand.New(2)
	for i := 0; i < 200; i++ {
		op := s.Decide(w, r, adversary.Grow)
		if op.Byz {
			t.Fatal("corrupted joiner beyond budget")
		}
	}
}

func TestJoinLeaveAttackTargetsSticky(t *testing.T) {
	w := view(t, 300, 0.2)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	t1 := s.Target(w)
	t2 := s.Target(w)
	if t1 != t2 {
		t.Errorf("target drifted %v -> %v without cause", t1, t2)
	}
	// The chosen target must be the most-polluted cluster.
	bestFrac := -1.0
	for _, c := range w.Clusters() {
		if sz := w.Size(c); sz > 0 {
			f := float64(w.Byz(c)) / float64(sz)
			if f > bestFrac {
				bestFrac = f
			}
		}
	}
	if got := float64(w.Byz(t1)) / float64(w.Size(t1)); got < bestFrac-1e-9 {
		t.Errorf("target fraction %.3f below best %.3f", got, bestFrac)
	}
}

func TestJoinLeaveAttackOps(t *testing.T) {
	w := view(t, 300, 0.2)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	r := xrand.New(3)
	op := s.Decide(w, r, adversary.Grow)
	if op.Kind != adversary.OpJoin || !op.Byz || !op.HasContact {
		t.Errorf("grow op = %+v, want corrupted join with contact", op)
	}
	if op.Contact != s.Target(w) {
		t.Error("join contact is not the target")
	}
	op = s.Decide(w, r, adversary.Shrink)
	if op.Kind != adversary.OpLeave {
		t.Fatalf("shrink op = %+v", op)
	}
	if c, _ := w.ClusterOf(op.Victim); c == s.Target(w) && w.IsByzantine(op.Victim) {
		t.Error("attack pulled its own node out of the target cluster")
	}
}

func TestJoinLeaveAttackBudgetFallback(t *testing.T) {
	w := view(t, 300, 0.30)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.30}}
	op := s.Decide(w, xrand.New(4), adversary.Grow)
	if op.Byz {
		t.Error("attack corrupted beyond budget")
	}
}

func TestDOSAttackEvictsTargetHonest(t *testing.T) {
	w := view(t, 300, 0.2)
	s := &adversary.DOSAttack{Budget: adversary.Budget{Tau: 0.25}}
	r := xrand.New(5)
	op := s.Decide(w, r, adversary.Shrink)
	if op.Kind != adversary.OpLeave {
		t.Fatalf("shrink op = %+v", op)
	}
	if w.IsByzantine(op.Victim) {
		t.Error("DoS evicted a Byzantine node")
	}
	op = s.Decide(w, r, adversary.Grow)
	if op.Kind != adversary.OpJoin || !op.Byz || !op.HasContact {
		t.Errorf("grow op = %+v", op)
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

// fixedProvider is a TargetProvider with a directly settable fixation.
type fixedProvider struct {
	target ids.ClusterID
	has    bool
	// commits counts commit-scoped Target calls (BeginBatch refreshes).
	commits int
}

func (p *fixedProvider) Target(adversary.View) ids.ClusterID {
	p.commits++
	p.has = true
	return p.target
}

func (p *fixedProvider) PlanTarget() (ids.ClusterID, bool) { return p.target, p.has }

func TestCapturedHijackerRedirectMissPaths(t *testing.T) {
	r := xrand.New(1)
	// No strategy wired: always a miss.
	h := &adversary.CapturedHijacker{}
	if _, ok := h.Redirect(r, 0); ok {
		t.Error("strategy-less hijacker redirected")
	}
	// Strategy wired but nothing fixated yet: miss (no mid-walk
	// re-fixation under the pure plan-phase contract).
	p := &fixedProvider{target: 7}
	h = &adversary.CapturedHijacker{Strategy: p}
	if _, ok := h.Redirect(r, 3); ok {
		t.Error("redirected before any fixation")
	}
	// Fixated, no view: hit without a liveness check.
	p.has = true
	if tgt, ok := h.Redirect(r, 3); !ok || tgt != 7 {
		t.Errorf("redirect = %v,%v, want 7,true", tgt, ok)
	}
	// Fixated on a cluster the view reports dissolved: miss.
	w := view(t, 300, 0.2)
	dead := ids.ClusterID(1 << 20) // never minted
	h = &adversary.CapturedHijacker{View: w, Strategy: &fixedProvider{target: dead, has: true}}
	if _, ok := h.Redirect(r, 3); ok {
		t.Error("redirected to a dissolved target")
	}
	// Fixated on a live cluster with a view: hit.
	live := w.Clusters()[0]
	h = &adversary.CapturedHijacker{View: w, Strategy: &fixedProvider{target: live, has: true}}
	if tgt, ok := h.Redirect(r, 3); !ok || tgt != live {
		t.Errorf("redirect = %v,%v, want %v,true", tgt, ok, live)
	}
}

func TestCapturedHijackerScore(t *testing.T) {
	p := &fixedProvider{target: 7, has: true}
	h := &adversary.CapturedHijacker{Strategy: p}
	if got := h.Score(7); got != 1 {
		t.Errorf("Score(target) = %v, want 1", got)
	}
	if got := h.Score(8); got != 0 {
		t.Errorf("Score(other) = %v, want 0", got)
	}
	if got := (&adversary.CapturedHijacker{}).Score(7); got != 0 {
		t.Errorf("strategy-less Score = %v, want 0", got)
	}
	p.has = false
	if got := h.Score(7); got != 0 {
		t.Errorf("unfixated Score = %v, want 0", got)
	}
}

func TestCapturedHijackerLifecycle(t *testing.T) {
	w := view(t, 300, 0.2)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	h := &adversary.CapturedHijacker{View: w, Strategy: s}
	// BeginBatch fixates when nothing is cached...
	h.BeginBatch()
	tgt, ok := s.PlanTarget()
	if !ok {
		t.Fatal("BeginBatch did not fixate a target")
	}
	// ...and holds the ratchet while the fixation is live.
	h.BeginBatch()
	if tgt2, _ := s.PlanTarget(); tgt2 != tgt {
		t.Errorf("live target drifted %v -> %v across BeginBatch", tgt, tgt2)
	}
	// CommitOp folds the scheduler's per-op hijack tallies in op order.
	h.CommitOp(0, true, 2)
	h.CommitOp(1, false, 0)
	h.CommitOp(2, true, 1)
	if h.Hijacked != 3 || h.CommittedOps != 3 {
		t.Errorf("commit fold = hijacked %d ops %d, want 3 and 3", h.Hijacked, h.CommittedOps)
	}
}

func TestBudgetCanCorruptEdges(t *testing.T) {
	// CanCorrupt is (byz+1) <= tau*(n+1): exercise the exact boundary,
	// both sides of it, and the degenerate budgets.
	cases := []struct {
		name    string
		tau     float64
		n, byz  int
		corrupt bool
	}{
		{"exact boundary holds", 0.5, 99, 49, true},       // 50 <= 0.5*100
		{"one over boundary", 0.5, 99, 50, false},         // 51 > 0.5*100
		{"zero tau refuses always", 0, 10, 0, false},      // 1 > 0
		{"empty network, positive tau", 0.5, 0, 0, false}, // 1 > 0.5
		{"empty network, tau 1", 1, 0, 0, true},           // 1 <= 1
		{"saturated", 0.3, 9, 9, false},
		{"well under budget", 0.3, 999, 100, true},
	}
	for _, tc := range cases {
		b := adversary.Budget{Tau: tc.tau}
		v := &countView{n: tc.n, byz: tc.byz}
		if got := b.CanCorrupt(v); got != tc.corrupt {
			t.Errorf("%s: CanCorrupt(tau=%v, n=%d, byz=%d) = %v, want %v",
				tc.name, tc.tau, tc.n, tc.byz, got, tc.corrupt)
		}
	}
}

// countView is a minimal View for budget arithmetic tests.
type countView struct{ n, byz int }

func (v *countView) NumNodes() int                                      { return v.n }
func (v *countView) NumByzantine() int                                  { return v.byz }
func (v *countView) Clusters() []ids.ClusterID                          { return nil }
func (v *countView) Size(ids.ClusterID) int                             { return 0 }
func (v *countView) Byz(ids.ClusterID) int                              { return 0 }
func (v *countView) Members(ids.ClusterID) []ids.NodeID                 { return nil }
func (v *countView) ClusterOf(ids.NodeID) (ids.ClusterID, bool)         { return 0, false }
func (v *countView) IsByzantine(ids.NodeID) bool                        { return false }
func (v *countView) RandomNode(*xrand.Rand) (ids.NodeID, bool)          { return 0, false }
func (v *countView) RandomHonestNode(*xrand.Rand) (ids.NodeID, bool)    { return 0, false }
func (v *countView) RandomByzantineNode(*xrand.Rand) (ids.NodeID, bool) { return 0, false }
func (v *countView) RandomCluster(*xrand.Rand) (ids.ClusterID, bool)    { return 0, false }

func TestJoinLeaveAttackTargetDeterministicAcrossSplitSubstreams(t *testing.T) {
	// Two identical worlds, two strategies, decision randomness drawn
	// from substreams split off one base stream with equal labels: the
	// fixation ratchet and the full op sequence must match exactly:
	// Target/PlanTarget never consume randomness, so the fixation cannot
	// depend on which stream (or how much of it) each decision consumed.
	w1 := view(t, 300, 0.2)
	w2 := view(t, 300, 0.2)
	s1 := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	s2 := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	base1 := xrand.New(42)
	base2 := xrand.New(42)
	for i := 0; i < 64; i++ {
		r1 := base1.Split(uint64(i))
		r2 := base2.Split(uint64(i))
		dir := adversary.Grow
		if i%2 == 1 {
			dir = adversary.Shrink
		}
		op1 := s1.Decide(w1, r1, dir)
		op2 := s2.Decide(w2, r2, dir)
		if op1 != op2 {
			t.Fatalf("step %d: ops diverged %+v vs %+v", i, op1, op2)
		}
		t1, ok1 := s1.PlanTarget()
		t2, ok2 := s2.PlanTarget()
		if t1 != t2 || ok1 != ok2 {
			t.Fatalf("step %d: fixation diverged %v,%v vs %v,%v", i, t1, ok1, t2, ok2)
		}
		// Burn an extra draw on stream 1 only: the fixation must not move
		// (PlanTarget is rng-free), even though the substream positions
		// now differ.
		_ = r1.Intn(7)
		if t1b, _ := s1.PlanTarget(); t1b != t1 {
			t.Fatalf("step %d: fixation moved after an unrelated draw", i)
		}
	}
}

func TestJoinLeaveAttackTargetRevalidated(t *testing.T) {
	w := view(t, 300, 0.2)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}}
	first := s.Target(w)
	// Shrink until the original target may have merged away; the
	// strategy must always return a live cluster.
	r := xrand.New(7)
	for i := 0; i < 150; i++ {
		x, ok := w.RandomNode(r)
		if !ok {
			break
		}
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	tgt := s.Target(w)
	alive := false
	for _, c := range w.Clusters() {
		if c == tgt {
			alive = true
		}
	}
	if !alive {
		t.Errorf("target %v (was %v) is not a live cluster", tgt, first)
	}
}

func TestJoinLeaveAttackShrinkBelowBudgetSparesByz(t *testing.T) {
	// With byz mass well below budget, the attack must not burn its own
	// nodes on shrink steps.
	w := view(t, 300, 0.05)
	s := &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.30}}
	r := xrand.New(9)
	for i := 0; i < 50; i++ {
		op := s.Decide(w, r, adversary.Shrink)
		if op.Kind == adversary.OpLeave && w.IsByzantine(op.Victim) {
			t.Fatal("attack evicted its own node while under budget")
		}
	}
}

func TestDOSAttackShrinkFallbackWithoutTargetHonest(t *testing.T) {
	// Make the target cluster fully Byzantine so the preferred victims
	// are absent; the fallback must still produce an honest victim.
	w := view(t, 300, 0.2)
	s := &adversary.DOSAttack{Budget: adversary.Budget{Tau: 0.9}}
	r := xrand.New(11)
	op := s.Decide(w, r, adversary.Grow) // fixes the target
	if op.Kind != adversary.OpJoin {
		t.Fatal("expected a join")
	}
	// Corrupt every member of the target (experiment hook).
	tgt := s.Decide(w, r, adversary.Shrink).Victim
	c, _ := w.ClusterOf(tgt)
	for _, x := range w.Members(c) {
		if err := w.SetCorrupted(x, true); err != nil {
			t.Fatal(err)
		}
	}
	op = s.Decide(w, r, adversary.Shrink)
	if op.Kind != adversary.OpLeave {
		t.Fatalf("shrink produced %v", op.Kind)
	}
	if w.IsByzantine(op.Victim) {
		t.Error("DoS fallback evicted a Byzantine node")
	}
}
