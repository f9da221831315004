// Package adversary implements the paper's adversary model (section 2): a
// static Byzantine adversary with full knowledge of the network that
// controls a fraction tau <= 1/3 - epsilon of the nodes, corrupts joining
// nodes at its discretion, and induces churn — either by cycling its own
// nodes through join-leave operations or by forcing honest nodes out (DoS).
//
// A Strategy decides, for each time step's churn direction, exactly which
// node joins or leaves and whether a joiner is corrupted, subject to the
// global tau budget enforced by the Budget helper. The baseline
// RandomChurn strategy models benign dynamics; JoinLeaveAttack and
// DOSAttack implement the targeted attacks that motivate NOW's shuffling
// (section 3.3).
package adversary

import (
	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// View is the full-information snapshot a strategy sees (the paper grants
// the adversary knowledge of every node's position). core.World implements
// it.
type View interface {
	NumNodes() int
	NumByzantine() int
	Clusters() []ids.ClusterID
	Size(c ids.ClusterID) int
	Byz(c ids.ClusterID) int
	Members(c ids.ClusterID) []ids.NodeID
	ClusterOf(x ids.NodeID) (ids.ClusterID, bool)
	IsByzantine(x ids.NodeID) bool
	RandomNode(r *xrand.Rand) (ids.NodeID, bool)
	RandomHonestNode(r *xrand.Rand) (ids.NodeID, bool)
	RandomByzantineNode(r *xrand.Rand) (ids.NodeID, bool)
	RandomCluster(r *xrand.Rand) (ids.ClusterID, bool)
}

// Direction is the net churn the workload schedule wants this step.
type Direction int

// Churn directions.
const (
	Grow Direction = iota
	Shrink
)

// OpKind discriminates operations.
type OpKind int

// Operation kinds.
const (
	OpJoin OpKind = iota
	OpLeave
	OpNoop
)

// Op is one churn operation decided by a strategy.
type Op struct {
	Kind OpKind
	// Byz marks a corrupted joiner (OpJoin).
	Byz bool
	// Contact, when HasContact, is the adversary-chosen contact cluster
	// for a join; otherwise the joiner contacts a uniform cluster.
	Contact    ids.ClusterID
	HasContact bool
	// Victim is the departing node (OpLeave).
	Victim ids.NodeID
}

// Strategy decides the step's operation.
type Strategy interface {
	Decide(v View, r *xrand.Rand, dir Direction) Op
	// Name labels the strategy in experiment tables.
	Name() string
}

// Budget enforces the tau bound: may one more Byzantine node enter?
type Budget struct{ Tau float64 }

// CanCorrupt reports whether corrupting the next joiner keeps the
// Byzantine fraction at or below Tau.
func (b Budget) CanCorrupt(v View) bool {
	return float64(v.NumByzantine()+1) <= b.Tau*float64(v.NumNodes()+1)
}

// RandomChurn is benign dynamics: joiners are corrupted only to track the
// tau budget (the adversary corrupts what it is entitled to), leavers are
// uniform over all nodes.
type RandomChurn struct {
	Budget Budget
}

var _ Strategy = (*RandomChurn)(nil)

// Name implements Strategy.
func (s *RandomChurn) Name() string { return "random-churn" }

// Decide implements Strategy.
func (s *RandomChurn) Decide(v View, r *xrand.Rand, dir Direction) Op {
	if dir == Shrink {
		x, ok := v.RandomNode(r)
		if !ok {
			return Op{Kind: OpNoop}
		}
		return Op{Kind: OpLeave, Victim: x}
	}
	// Corrupt with probability tau, subject to budget, so the Byzantine
	// fraction tracks tau through growth.
	byz := r.Bool(s.Budget.Tau) && s.Budget.CanCorrupt(v)
	return Op{Kind: OpJoin, Byz: byz}
}

// JoinLeaveAttack is the section 3.3 attack: the adversary fixates on one
// cluster and cycles its Byzantine nodes through leave/re-join, hoping
// placement randomness eventually concentrates them in the target. Against
// randCl-based placement plus exchange this is futile (Theorem 3); against
// the no-shuffle ablation it captures the target quickly.
type JoinLeaveAttack struct {
	Budget Budget
	target ids.ClusterID
	hasTgt bool
}

var _ Strategy = (*JoinLeaveAttack)(nil)

// Name implements Strategy.
func (s *JoinLeaveAttack) Name() string { return "join-leave-attack" }

// TargetProvider is the two-sided target contract the world's hook
// lifecycle consumes. Target is the COMMIT-scoped side: called at step
// boundaries (by Decide, by CapturedHijacker.BeginBatch before a batch's
// first op), it may mutate the strategy — re-validate the fixation,
// ratchet onto a new beachhead. PlanTarget is the PLAN-scoped side: a
// pure read of the cached fixation, called from walks while an op batch
// is in flight. Keeping the mutation at the step boundary is what makes
// every op of a batch see the same fixation.
type TargetProvider interface {
	Target(v View) ids.ClusterID
	PlanTarget() (ids.ClusterID, bool)
}

// Target returns the currently attacked cluster, re-fixating if the
// cached target dissolved. Commit-scoped: must not be called while a
// batch is in flight (see TargetProvider).
func (s *JoinLeaveAttack) Target(v View) ids.ClusterID {
	if s.hasTgt {
		// Re-validate: the target may have merged away.
		for _, c := range v.Clusters() {
			if c == s.target {
				return s.target
			}
		}
		s.hasTgt = false
	}
	// Fixate on the cluster where the adversary already holds the largest
	// fraction — the most promising beachhead.
	best := v.Clusters()[0]
	bestFrac := -1.0
	for _, c := range v.Clusters() {
		if sz := v.Size(c); sz > 0 {
			if f := float64(v.Byz(c)) / float64(sz); f > bestFrac {
				best, bestFrac = c, f
			}
		}
	}
	s.target, s.hasTgt = best, true
	return best
}

// PlanTarget returns the cached fixation without validating or mutating
// it: the pure plan-scoped read of TargetProvider. The target may have
// dissolved since the last commit-scoped Target call; readers that care
// (CapturedHijacker.Redirect) check liveness against their view and treat
// a dead target as a miss.
func (s *JoinLeaveAttack) PlanTarget() (ids.ClusterID, bool) { return s.target, s.hasTgt }

// Decide implements Strategy.
func (s *JoinLeaveAttack) Decide(v View, r *xrand.Rand, dir Direction) Op {
	target := s.Target(v)
	if dir == Shrink {
		// Re-rolling placement means leaving and later re-joining; during
		// a net-shrink phase re-joins are scarce, so the adversary only
		// cycles its own nodes while it holds (nearly) its full budget —
		// otherwise it would grind its corruption mass away. Below budget
		// it spends the departure on an honest node instead.
		atBudget := float64(v.NumByzantine()) >= 0.95*s.Budget.Tau*float64(v.NumNodes())
		if atBudget {
			for attempt := 0; attempt < 8; attempt++ {
				x, ok := v.RandomByzantineNode(r)
				if !ok {
					break
				}
				if c, ok2 := v.ClusterOf(x); ok2 && c != target {
					return Op{Kind: OpLeave, Victim: x}
				}
			}
		}
		x, ok := v.RandomHonestNode(r)
		if !ok {
			return Op{Kind: OpNoop}
		}
		return Op{Kind: OpLeave, Victim: x}
	}
	if s.Budget.CanCorrupt(v) {
		// Corrupted joiner contacts the target directly (the walk still
		// re-randomizes placement — that is the defense being tested).
		return Op{Kind: OpJoin, Byz: true, Contact: target, HasContact: true}
	}
	return Op{Kind: OpJoin, Byz: false}
}

// DOSAttack forces honest members of the target cluster out of the
// network (the paper allows the adversary to evict honest nodes, e.g. via
// denial of service), trying to raise its relative share there, while
// spending its corruption budget on joiners aimed at the same cluster.
type DOSAttack struct {
	Budget Budget
	attack JoinLeaveAttack
}

var _ Strategy = (*DOSAttack)(nil)

// Name implements Strategy.
func (s *DOSAttack) Name() string { return "dos-attack" }

// PlanTarget exposes the embedded join-leave ratchet's cached fixation
// (pure, plan-scoped). DOSAttack deliberately does NOT implement the
// commit-scoped Target side of TargetProvider: its per-target state is
// ratcheted exclusively through Decide, which the drivers call serially
// at step boundaries, so there is nothing for a batch commit to fold.
func (s *DOSAttack) PlanTarget() (ids.ClusterID, bool) { return s.attack.PlanTarget() }

// Decide implements Strategy.
func (s *DOSAttack) Decide(v View, r *xrand.Rand, dir Direction) Op {
	s.attack.Budget = s.Budget
	target := s.attack.Target(v)
	if dir == Shrink {
		// Evict an honest member of the target cluster.
		var honest []ids.NodeID
		for _, x := range v.Members(target) {
			if !v.IsByzantine(x) {
				honest = append(honest, x)
			}
		}
		if len(honest) > 0 {
			return Op{Kind: OpLeave, Victim: honest[r.Intn(len(honest))]}
		}
		x, ok := v.RandomHonestNode(r)
		if !ok {
			return Op{Kind: OpNoop}
		}
		return Op{Kind: OpLeave, Victim: x}
	}
	if s.Budget.CanCorrupt(v) {
		return Op{Kind: OpJoin, Byz: true, Contact: target, HasContact: true}
	}
	return Op{Kind: OpJoin, Byz: false}
}

// CapturedHijacker is the walk-redirection hook the adversary installs:
// any walk transiting a captured cluster is steered to the attack target.
//
// The hook is snapshot-scoped, so every op of a batch sees the decision
// fixed at the batch boundary: Redirect and Score are pure reads of the
// strategy's cached fixation (PlanTarget) validated against the view; all
// mutation happens on the batch lifecycle — BeginBatch re-fixates the
// target against the pre-batch world through the strategy's
// commit-scoped Target, and CommitOp folds the hook's ratchet counters in
// op order after the batch's last op. The sim runs every time step, one
// op or several, through this lifecycle.
type CapturedHijacker struct {
	// View is the adversary's full-information world view (core.World).
	View View
	// Strategy supplies the target fixation (e.g. *JoinLeaveAttack).
	Strategy TargetProvider

	// Hijacked counts walks this hook redirected, folded by CommitOp from
	// ExecBatch's per-op hijack tallies (Redirect itself must not count).
	Hijacked int64
	// CommittedOps counts operations folded through CommitOp.
	CommittedOps int64
}

// Redirect implements walk.Hijacker: a pure read of the cached fixation.
// Misses (ok=false) when no strategy is wired, when nothing has fixated
// yet, or when the cached target has dissolved since the last
// commit-scoped refresh — a mid-walk re-fixation here would change the
// decision the rest of the batch reads.
func (h *CapturedHijacker) Redirect(_ *xrand.Rand, _ ids.ClusterID) (ids.ClusterID, bool) {
	if h.Strategy == nil {
		return 0, false
	}
	tgt, ok := h.Strategy.PlanTarget()
	if !ok {
		return 0, false
	}
	if h.View != nil && h.View.Size(tgt) == 0 {
		return 0, false
	}
	return tgt, true
}

// Score implements the steer hook (core.Steerer): the cached target
// scores 1, everything else 0. Pure, like Redirect.
func (h *CapturedHijacker) Score(c ids.ClusterID) float64 {
	if h.Strategy == nil {
		return 0
	}
	if tgt, ok := h.Strategy.PlanTarget(); ok && c == tgt {
		return 1
	}
	return 0
}

// BeginBatch implements the first half of core.BatchHook: re-fixate the
// strategy's target against the pre-batch world so every Redirect/Score
// of the coming batch reads one coherent snapshot decision. The refresh
// is skipped while the cached target is still live — the ratchet holds,
// and the steady-state hooked batch path stays allocation-free.
func (h *CapturedHijacker) BeginBatch() {
	if h.Strategy == nil || h.View == nil {
		return
	}
	if tgt, ok := h.Strategy.PlanTarget(); ok && h.View.Size(tgt) > 0 {
		return
	}
	h.Strategy.Target(h.View)
}

// CommitOp implements the op-ordered commit half of core.BatchHook,
// folding ExecBatch's per-op hijack tally into the hook's ratchet
// counters. Called in op order after the batch's last op has run.
func (h *CapturedHijacker) CommitOp(_ int, _ bool, hijacked int64) {
	h.CommittedOps++
	h.Hijacked += hijacked
}
