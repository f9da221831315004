// Package sim is the synchronous simulation engine: it drives a NOW world
// through a churn trace produced by a workload schedule (net size over
// time) and an adversary strategy (who joins/leaves, who is corrupted),
// recording invariant audits and per-operation communication costs. One
// simulator step is one paper time step: a single join or leave with all
// of its induced maintenance (exchange cascades, splits, merges), matching
// the paper's one-operation-per-step presentation.
package sim

import (
	"fmt"
	"math"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/workload"
	"nowover/internal/xrand"
)

// Config assembles one simulation run.
type Config struct {
	// Core is the NOW protocol configuration.
	Core core.Config
	// InitialSize is n at bootstrap.
	InitialSize int
	// Tau is the adversary's corruption budget (fraction of nodes).
	Tau float64
	// Schedule drives the target network size; nil means Steady at
	// InitialSize.
	Schedule workload.Schedule
	// Strategy decides churn specifics; nil means benign RandomChurn.
	Strategy adversary.Strategy
	// Steps is the number of time steps to simulate.
	Steps int
	// AuditEvery records a full audit every k steps (0 disables periodic
	// audits; the final audit is always taken).
	AuditEvery int
	// ConsistencyEvery cross-checks all redundant bookkeeping every k
	// steps (0 disables; expensive, for tests).
	ConsistencyEvery int
	// SampleOpCosts records per-operation message/round samples.
	SampleOpCosts bool
	// ExactSamples selects the per-operation cost accumulator: false (the
	// default) summarizes each cost series with a fixed-memory quantile
	// sketch plus per-class log-scale histograms (metrics.Digest /
	// metrics.Hist), so memory stays O(1) per series no matter how many
	// operations run — the mode that keeps -full sweeps at N >= 2^16 in
	// memory. True retains the full observation history (metrics.Sample),
	// reproducing pre-sketch tables byte for byte; use it at small N or
	// when regression-diffing outputs. Means, counts and maxima are exact
	// in BOTH modes; only quantile columns differ, within the sketch's
	// rank-error bounds.
	ExactSamples bool
	// TrackSizes records the size trajectory.
	TrackSizes bool
	// Seed drives the strategy's randomness (kept separate from protocol
	// randomness so the adversary cannot be accidentally correlated with
	// it).
	Seed uint64
	// InstallHijacker wires the adversary's captured-cluster walk
	// redirection when the strategy exposes a target.
	InstallHijacker bool
	// OpsPerStep > 1 switches to the batched churn driver: each time step
	// the strategy decides up to OpsPerStep operations against the
	// step-boundary state, and core.World.ExecBatch runs them in op order
	// on the classic path and settles security once — k ops decided
	// together, one paper time step. With InstallHijacker the hook
	// contract (core hooks.go) fixes the hijack/steer decision at the
	// batch boundary. Batched traces are a distinct (equally
	// deterministic) trajectory from the classic driver's, which decides
	// and settles after every op. 0 or 1 keeps the classic
	// one-op-per-step driver. Batched mode does not collect per-operation
	// cost samples (SampleOpCosts is ignored).
	OpsPerStep int
}

func (c Config) validate() error {
	if c.InitialSize <= 0 {
		return fmt.Errorf("sim: non-positive initial size")
	}
	if c.Steps < 0 {
		return fmt.Errorf("sim: negative step count")
	}
	if c.Tau < 0 || c.Tau >= 1 {
		return fmt.Errorf("sim: tau %v outside [0,1)", c.Tau)
	}
	if c.OpsPerStep < 0 {
		return fmt.Errorf("sim: negative OpsPerStep %d", c.OpsPerStep)
	}
	return nil
}

// OpCosts holds per-operation cost distributions by operation kind, plus a
// per-traffic-class histogram of each sampled operation's message count.
// The series accumulators follow Config.ExactSamples (exact history vs
// fixed-memory sketch); the class histograms are log-scale and exactly
// mergeable in both modes.
type OpCosts struct {
	JoinMsgs, JoinRounds   metrics.Dist
	LeaveMsgs, LeaveRounds metrics.Dist
	// ClassMsgs[c] histograms the per-operation message count charged to
	// traffic class c across all sampled operations.
	ClassMsgs [metrics.NumClasses]metrics.Hist
}

// NewOpCosts returns an empty OpCosts whose series accumulators are in the
// requested mode — the seed for cross-run aggregation via Merge.
func NewOpCosts(exact bool) OpCosts {
	return OpCosts{
		JoinMsgs:    metrics.NewDist(exact),
		JoinRounds:  metrics.NewDist(exact),
		LeaveMsgs:   metrics.NewDist(exact),
		LeaveRounds: metrics.NewDist(exact),
	}
}

// Merge folds another OpCosts into this one in submission order. Modes
// must match (see metrics.Dist.Merge). Replica sweeps use it to aggregate
// per-operation cost distributions across runs.
func (o *OpCosts) Merge(other *OpCosts) {
	o.JoinMsgs.Merge(&other.JoinMsgs)
	o.JoinRounds.Merge(&other.JoinRounds)
	o.LeaveMsgs.Merge(&other.LeaveMsgs)
	o.LeaveRounds.Merge(&other.LeaveRounds)
	for c := range o.ClassMsgs {
		o.ClassMsgs[c].Merge(&other.ClassMsgs[c])
	}
}

// Result is the outcome of one run.
type Result struct {
	Steps     int
	Initial   core.Audit
	Final     core.Audit
	Stats     core.Stats
	Audits    []core.Audit
	Sizes     []int
	TotalCost metrics.Cost
	OpCosts   OpCosts
	// DegradedSteps / CapturedSteps count time steps at whose end at
	// least one cluster was >= 1/3 / >= 1/2 Byzantine: the paper's
	// failure-state dwell time.
	DegradedSteps, CapturedSteps int
	// PeakSize / TroughSize bracket the realized size trajectory.
	PeakSize, TroughSize int
	// BatchedOps counts, in batched-driver mode (OpsPerStep > 1), the
	// operations fed to ExecBatch. SkippedOps counts those whose victim
	// node or contact/target cluster was already gone by the time they
	// ran (e.g. merged away by an earlier op of the same batch).
	BatchedOps, SkippedOps int
}

// Runner executes a configured simulation.
type Runner struct {
	cfg      Config
	world    *core.World
	strategy adversary.Strategy
	schedule workload.Schedule
	hijacker *adversary.CapturedHijacker
	rng      *xrand.Rand
	rejoins  []ids.NodeID

	// Concurrent-driver scratch, reused across steps so long runs do not
	// allocate per step (the million-node sweeps run ~N steps per cell).
	victims map[ids.NodeID]bool
	ops     []core.Op
	results []core.OpResult
}

// New builds a runner: world bootstrap (with the adversary corrupting its
// tau budget up front, as the model allows) plus strategy wiring.
func New(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := core.NewWorld(cfg.Core)
	if err != nil {
		return nil, err
	}
	byzBudget := int(cfg.Tau * float64(cfg.InitialSize))
	if err := w.Bootstrap(cfg.InitialSize, func(slot int) bool { return slot < byzBudget }); err != nil {
		return nil, err
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = &adversary.RandomChurn{Budget: adversary.Budget{Tau: cfg.Tau}}
	}
	schedule := cfg.Schedule
	if schedule == nil {
		schedule = workload.Steady{Size: cfg.InitialSize}
	}
	r := &Runner{
		cfg:      cfg,
		world:    w,
		strategy: strategy,
		schedule: schedule,
		rng:      xrand.New(cfg.Seed ^ 0xAD5A11),
	}
	if cfg.InstallHijacker {
		// The hijacker reads the strategy's cached fixation (pure
		// PlanTarget) and ratchets it through the batch lifecycle;
		// under the classic driver the per-step Decide call keeps the
		// fixation equally fresh. Strategies without the commit-scoped
		// Target side (e.g. DOSAttack) expose no coherent fixation to
		// redirect to, so no hook is installed — same as before.
		if tgt, ok := strategy.(adversary.TargetProvider); ok {
			r.hijacker = &adversary.CapturedHijacker{View: w, Strategy: tgt}
			w.SetHijacker(r.hijacker)
		}
	}
	return r, nil
}

// Hijacker returns the captured-cluster redirection hook New installed
// (Config.InstallHijacker), or nil. Experiments use it to wire the same
// snapshot-scoped target fixation into the steer hook
// (World.SetSteerHook) so both hooks ride one batch lifecycle.
func (r *Runner) Hijacker() *adversary.CapturedHijacker { return r.hijacker }

// World exposes the underlying world (for experiments that need mid-run
// inspection).
func (r *Runner) World() *core.World { return r.world }

// QueuedRejoins reports how many merge-displaced nodes still await their
// rejoin step (MergeRejoinAll only).
func (r *Runner) QueuedRejoins() int { return len(r.rejoins) }

// Continue runs additional steps on the same world, optionally under a
// new schedule (nil keeps the current one). Multi-phase experiments use
// it to chain growth and shrink epochs on one protocol instance.
func (r *Runner) Continue(sched workload.Schedule, steps int) (*Result, error) {
	if sched != nil {
		r.schedule = sched
	}
	r.cfg.Steps = steps
	return r.Run()
}

// Run executes the configured number of steps.
func (r *Runner) Run() (*Result, error) {
	res := &Result{
		Initial:    r.world.Audit(),
		PeakSize:   r.world.NumNodes(),
		TroughSize: r.world.NumNodes(),
		OpCosts:    NewOpCosts(r.cfg.ExactSamples),
	}
	ledger := r.world.Ledger()
	startSnap := ledger.Snapshot()
	minSize := r.minimumSize()

	for step := 0; step < r.cfg.Steps; step++ {
		var err error
		if r.cfg.OpsPerStep > 1 {
			err = r.stepBatch(step, minSize, res)
		} else {
			err = r.step(step, minSize, res)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", step, err)
		}
		n := r.world.NumNodes()
		if n > res.PeakSize {
			res.PeakSize = n
		}
		if n < res.TroughSize {
			res.TroughSize = n
		}
		if r.cfg.TrackSizes {
			res.Sizes = append(res.Sizes, n)
		}
		deg, cap := r.world.CurrentInsecure()
		if deg > 0 {
			res.DegradedSteps++
		}
		if cap > 0 {
			res.CapturedSteps++
		}
		if r.cfg.AuditEvery > 0 && step%r.cfg.AuditEvery == 0 {
			res.Audits = append(res.Audits, r.world.Audit())
		}
		if r.cfg.ConsistencyEvery > 0 && step%r.cfg.ConsistencyEvery == 0 {
			if err := r.world.CheckConsistency(); err != nil {
				return nil, fmt.Errorf("sim: step %d: %w", step, err)
			}
		}
		res.Steps++
	}
	res.Final = r.world.Audit()
	res.Stats = r.world.Stats()
	res.TotalCost = ledger.Since(startSnap)
	return res, nil
}

// minimumSize is the floor the trajectory may not cross: the model's
// sqrt(N), but never below two clusters' worth of nodes.
func (r *Runner) minimumSize() int {
	sqrtN := int(math.Ceil(math.Sqrt(float64(r.cfg.Core.N))))
	floor := 2 * r.cfg.Core.TargetClusterSize()
	if sqrtN > floor {
		return sqrtN
	}
	return floor
}

func (r *Runner) step(step, minSize int, res *Result) error {
	// Displaced nodes from MergeRejoinAll re-join on subsequent steps,
	// taking priority over scheduled churn.
	r.rejoins = append(r.rejoins, r.world.PendingRejoins()...)
	if len(r.rejoins) > 0 {
		x := r.rejoins[0]
		r.rejoins = r.rejoins[1:]
		snap := r.world.Ledger().Snapshot()
		if err := r.world.Rejoin(x); err != nil {
			return err
		}
		r.recordOpCost(res, adversary.OpJoin, snap)
		return nil
	}

	n := r.world.NumNodes()
	target := r.schedule.TargetSize(step)
	if target > r.cfg.Core.N {
		target = r.cfg.Core.N
	}
	if target < minSize {
		target = minSize
	}
	var dir adversary.Direction
	switch {
	case target > n:
		dir = adversary.Grow
	case target < n:
		dir = adversary.Shrink
	default:
		// Steady state: keep churning without net growth.
		if r.rng.Bool(0.5) && n < r.cfg.Core.N {
			dir = adversary.Grow
		} else {
			dir = adversary.Shrink
		}
	}
	// Hard clamps at the model boundary.
	if n >= r.cfg.Core.N {
		dir = adversary.Shrink
	}
	if n <= minSize {
		dir = adversary.Grow
	}

	op := r.strategy.Decide(r.world, r.rng, dir)
	snap := r.world.Ledger().Snapshot()
	switch op.Kind {
	case adversary.OpJoin:
		var err error
		if op.HasContact {
			_, err = r.world.Join(op.Byz, op.Contact)
		} else {
			_, err = r.world.JoinAuto(op.Byz)
		}
		if err != nil {
			return err
		}
		r.recordOpCost(res, adversary.OpJoin, snap)
	case adversary.OpLeave:
		if err := r.world.Leave(op.Victim); err != nil {
			return err
		}
		r.recordOpCost(res, adversary.OpLeave, snap)
	case adversary.OpNoop:
		// Nothing to do this step.
	default:
		return fmt.Errorf("sim: unknown op kind %d", op.Kind)
	}
	return nil
}

// stepBatch is one batched-driver time step (OpsPerStep > 1): drain
// pending rejoins first (classic and serial — they reuse reserved
// identities), otherwise let the strategy decide up to OpsPerStep
// operations against the step-boundary state — the adversary's view in
// the paper's model — and execute them as one batch through
// World.ExecBatch. Victims are deduplicated within the step; a victim that
// still vanishes before its op runs (displaced by an earlier op's merge)
// is counted as skipped, not fatal.
func (r *Runner) stepBatch(step, minSize int, res *Result) error {
	r.rejoins = append(r.rejoins, r.world.PendingRejoins()...)
	if len(r.rejoins) > 0 {
		k := r.cfg.OpsPerStep
		if k > len(r.rejoins) {
			k = len(r.rejoins)
		}
		for i := 0; i < k; i++ {
			if err := r.world.Rejoin(r.rejoins[i]); err != nil {
				return err
			}
		}
		r.rejoins = r.rejoins[k:]
		return nil
	}

	target := r.schedule.TargetSize(step)
	if target > r.cfg.Core.N {
		target = r.cfg.Core.N
	}
	if target < minSize {
		target = minSize
	}

	startN := r.world.NumNodes()
	projN := startN
	joins := 0
	if r.victims == nil {
		r.victims = make(map[ids.NodeID]bool)
	} else {
		clear(r.victims)
	}
	victims := r.victims
	ops := r.ops[:0]
	for tries := 0; len(ops) < r.cfg.OpsPerStep && tries < 4*r.cfg.OpsPerStep; tries++ {
		var dir adversary.Direction
		switch {
		case target > projN:
			dir = adversary.Grow
		case target < projN:
			dir = adversary.Shrink
		default:
			// Steady state: keep churning without net growth.
			if r.rng.Bool(0.5) && projN < r.cfg.Core.N {
				dir = adversary.Grow
			} else {
				dir = adversary.Shrink
			}
		}
		// Hard clamps at the model boundary, projected through the batch.
		if projN >= r.cfg.Core.N {
			dir = adversary.Shrink
		}
		if projN <= minSize {
			dir = adversary.Grow
		}

		op := r.strategy.Decide(r.world, r.rng, dir)
		switch op.Kind {
		case adversary.OpJoin:
			// Hard N bound without leave credit: a decided leave can still
			// be skipped (victim displaced by an earlier merge), so joins are
			// admitted only against the step-start population. The classic
			// driver enforces n <= N against the live count; this is the
			// batched equivalent.
			if startN+joins >= r.cfg.Core.N {
				continue
			}
			cop := core.Op{Kind: core.OpJoin, Byz: op.Byz}
			if op.HasContact {
				cop.Contact, cop.HasContact = op.Contact, true
			}
			ops = append(ops, cop)
			joins++
			projN++
		case adversary.OpLeave:
			if victims[op.Victim] {
				continue // already departing this step; re-draw
			}
			victims[op.Victim] = true
			ops = append(ops, core.Op{Kind: core.OpLeave, Victim: op.Victim})
			projN--
		case adversary.OpNoop:
			// Nothing decided for this slot.
		default:
			return fmt.Errorf("sim: unknown op kind %d", op.Kind)
		}
	}

	r.ops = ops
	results := r.world.ExecBatchInto(r.results, ops)
	r.results = results
	res.BatchedOps += len(ops)
	for _, rr := range results {
		if rr.Err != nil {
			// A victim or contact/target cluster can legitimately vanish
			// mid-batch (displaced by an earlier op's merge): skip, don't
			// abort.
			if core.IsUnknownNode(rr.Err) || core.IsUnknownCluster(rr.Err) {
				res.SkippedOps++
				continue
			}
			return rr.Err
		}
	}
	return nil
}

func (r *Runner) recordOpCost(res *Result, kind adversary.OpKind, snap metrics.Snapshot) {
	if !r.cfg.SampleOpCosts {
		return
	}
	// SinceVec is the dense, allocation-free form of Since: its ByClass
	// array holds every class, including the zero charges Cost.ByClass
	// omits, so each histogram's N is the sampled-op count and its
	// quantiles are true per-op distributions, not distributions
	// conditioned on the class having been used.
	cost := r.world.Ledger().SinceVec(snap)
	switch kind {
	case adversary.OpJoin:
		res.OpCosts.JoinMsgs.Add(float64(cost.Messages))
		res.OpCosts.JoinRounds.Add(float64(cost.Rounds))
	case adversary.OpLeave:
		res.OpCosts.LeaveMsgs.Add(float64(cost.Messages))
		res.OpCosts.LeaveRounds.Add(float64(cost.Rounds))
	}
	for c := 0; c < metrics.NumClasses; c++ {
		res.OpCosts.ClassMsgs[c].Add(float64(cost.ByClass[c]))
	}
}
