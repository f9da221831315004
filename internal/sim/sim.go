// Package sim is the synchronous simulation engine: it drives a NOW world
// through a churn trace produced by a workload schedule (net size over
// time) and an adversary strategy (who joins/leaves, who is corrupted),
// recording invariant audits and per-operation communication costs. One
// simulator step is one paper time step: the strategy decides
// Config.OpsPerStep joins or leaves (one by default, the paper's
// presentation) against the step-boundary state, and core.World.ExecBatch
// runs them with all of their induced maintenance (exchange cascades,
// splits, merges) and settles security once. Under MergeRejoinAll, a step
// that finds merge-displaced nodes re-joins them instead (core.OpRejoin).
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
	// SampleOpCosts records per-operation message/round costs in
	// fixed-memory sketches (OpCosts), so memory stays O(1) per series no
	// matter how many operations run.
	SampleOpCosts bool
	// Seed drives the strategy's randomness (kept separate from protocol
	// randomness so the adversary cannot be accidentally correlated with
	// it).
	Seed uint64
	// InstallHijacker wires the adversary's captured-cluster walk
	// redirection when the strategy exposes a target.
	InstallHijacker bool
	// OpsPerStep is k, the operations per time step: each step the
	// strategy decides up to k operations against the step-boundary state,
	// and core.World.ExecBatch runs them in op order and settles security
	// once — k ops decided together, one paper time step. With
	// InstallHijacker the hook contract (core hooks.go) fixes the
	// hijack/steer decision at the step boundary. 0 and 1 both mean one op
	// per step, the paper's model; each k > 1 is its own (equally
	// deterministic) trajectory. Per-operation cost samples are taken
	// only at one op per step (SampleOpCosts is ignored above that).
	OpsPerStep int
}

func (c Config) validate() error {
	if c.InitialSize <= 0 {
		return fmt.Errorf("sim: non-positive initial size")
	}
	if c.Steps < 0 {
		return fmt.Errorf("sim: negative step count")
	}
	if !(c.Tau >= 0 && c.Tau < 1) { // NaN fails it too
		return fmt.Errorf("sim: tau %v outside [0,1)", c.Tau)
	}
	if c.OpsPerStep < 0 {
		return fmt.Errorf("sim: negative OpsPerStep %d", c.OpsPerStep)
	}
	return nil
}

// OpCosts holds per-operation cost distributions by operation kind, plus a
// per-traffic-class histogram of each sampled operation's message count.
// Each series is a quantile sketch (exact count, mean and max); the class
// histograms are log-scale and exactly mergeable. The zero value is empty
// and ready to use.
type OpCosts struct {
	JoinMsgs, JoinRounds   metrics.Digest
	LeaveMsgs, LeaveRounds metrics.Digest
	// ClassMsgs[c] histograms the per-operation message count charged to
	// traffic class c across all sampled operations.
	ClassMsgs [metrics.NumClasses]metrics.Hist
}

// Merge folds another OpCosts into this one in submission order (see
// metrics.Digest.Merge). Replica sweeps use it to aggregate per-operation
// cost distributions across runs.
func (o *OpCosts) Merge(other *OpCosts) {
	o.JoinMsgs.Merge(&other.JoinMsgs)
	o.JoinRounds.Merge(&other.JoinRounds)
	o.LeaveMsgs.Merge(&other.LeaveMsgs)
	o.LeaveRounds.Merge(&other.LeaveRounds)
	for c := range o.ClassMsgs {
		o.ClassMsgs[c].Merge(&other.ClassMsgs[c])
	}
}

// reset empties o in place; its digests keep their arrays.
func (o *OpCosts) reset() {
	o.JoinMsgs.Reset()
	o.JoinRounds.Reset()
	o.LeaveMsgs.Reset()
	o.LeaveRounds.Reset()
	o.ClassMsgs = [metrics.NumClasses]metrics.Hist{}
}

// Result is the outcome of one run. Run and Continue return a fresh one;
// RunInto and ContinueInto refill the caller's in place, and a struct copy
// of it shares Audits and the OpCosts digests' arrays with it.
type Result struct {
	Steps     int
	Initial   core.Audit
	Final     core.Audit
	Stats     core.Stats
	Audits    []core.Audit
	TotalCost metrics.Cost
	OpCosts   OpCosts
	// DegradedSteps / CapturedSteps count time steps at whose end at
	// least one cluster was >= 1/3 / >= 1/2 Byzantine: the paper's
	// failure-state dwell time.
	DegradedSteps, CapturedSteps int
	// PeakSize / TroughSize bracket the realized size trajectory.
	PeakSize, TroughSize int
	// BatchedOps counts the strategy-decided operations fed to ExecBatch
	// (the OpRejoin steps' ops not included). SkippedOps counts those
	// whose victim node or contact/target cluster was already gone by the
	// time they ran (merged away by an earlier op of the same step).
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

	// Per-step scratch (deduplicated victims, the step's ops and their
	// results), reused so long runs do not allocate per step (the
	// million-node sweeps run ~N steps per cell).
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
		victims:  make(map[ids.NodeID]bool),
	}
	if cfg.InstallHijacker {
		// The hijacker reads the strategy's cached fixation (pure
		// PlanTarget) and ratchets it through the batch lifecycle that
		// ExecBatch runs on every step. Strategies without the
		// commit-scoped Target side (e.g. DOSAttack) expose no coherent
		// fixation to redirect to, so no hook is installed.
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

// Continue runs additional steps on the same world, optionally under a
// new schedule (nil keeps the current one). Multi-phase experiments use
// it to chain growth and shrink epochs on one protocol instance. Like
// Run, it returns a fresh Result.
func (r *Runner) Continue(sched workload.Schedule, steps int) (*Result, error) {
	res := new(Result)
	if err := r.ContinueInto(res, sched, steps); err != nil {
		return nil, err
	}
	return res, nil
}

// ContinueInto is Continue writing into res, which it resets in place (see
// RunInto).
func (r *Runner) ContinueInto(res *Result, sched workload.Schedule, steps int) error {
	if sched != nil {
		r.schedule = sched
	}
	r.cfg.Steps = steps
	return r.RunInto(res)
}

// Run executes the configured number of steps into a fresh Result.
func (r *Runner) Run() (*Result, error) {
	res := new(Result)
	if err := r.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing into res. It resets res in place first: its
// digests keep their arrays, its histograms are zeroed and Audits is
// truncated, so a steady loop of short calls on one res allocates no
// Result, digest buffer or slice per call. The reuse reaches through a
// struct copy: a copy of res shares Audits and the OpCosts digests'
// arrays with it, and the next RunInto or ContinueInto on res overwrites
// them. A caller that keeps a Result across calls uses
// Run or Continue, or a Result of its own per call. On an error res holds
// the steps run so far.
func (r *Runner) RunInto(res *Result) error {
	res.OpCosts.reset()
	*res = Result{
		Initial:    r.world.Audit(),
		PeakSize:   r.world.NumNodes(),
		TroughSize: r.world.NumNodes(),
		Audits:     res.Audits[:0],
		OpCosts:    res.OpCosts,
	}
	ledger := r.world.Ledger()
	startSnap := ledger.Snapshot()
	minSize := r.minimumSize()

	for step := 0; step < r.cfg.Steps; step++ {
		if err := r.step(step, minSize, res); err != nil {
			return fmt.Errorf("sim: step %d: %w", step, err)
		}
		n := r.world.NumNodes()
		if n > res.PeakSize {
			res.PeakSize = n
		}
		if n < res.TroughSize {
			res.TroughSize = n
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
				return fmt.Errorf("sim: step %d: %w", step, err)
			}
		}
		res.Steps++
	}
	res.Final = r.world.Audit()
	res.Stats = r.world.Stats()
	res.TotalCost = ledger.Since(startSnap)
	return nil
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

// step is one time step, run as one batch through World.ExecBatchInto
// (hook lifecycle included, one settle). While merges have displaced
// nodes (MergeRejoinAll), the batch is k = max(1, OpsPerStep) core.OpRejoin
// ops, or one per displaced node if fewer; otherwise the strategy decides
// it (decide). A victim that vanishes before its op runs (displaced by an
// earlier op's merge) is counted as skipped, not fatal. At k = 1 this is
// the paper's one-operation-per-step model, and each step's ledger delta
// is one per-op cost sample.
func (r *Runner) step(step, minSize int, res *Result) error {
	k := max(1, r.cfg.OpsPerStep)
	sample := r.cfg.SampleOpCosts && k == 1
	var snap metrics.Snapshot
	if sample {
		snap = r.world.Ledger().Snapshot()
	}

	ops := r.ops[:0]
	for range min(k, r.world.Displaced()) {
		ops = append(ops, core.Op{Kind: core.OpRejoin})
	}
	if len(ops) == 0 {
		var err error
		if ops, err = r.decide(ops, step, minSize, k); err != nil {
			return err
		}
		res.BatchedOps += len(ops)
	}
	r.ops = ops
	results := r.world.ExecBatchInto(r.results, ops)
	r.results = results
	for i, rr := range results {
		if rr.Err != nil {
			// A victim or contact/target cluster can legitimately vanish
			// mid-batch (displaced by an earlier op's merge): skip, don't
			// abort. Op 0 runs on the step-boundary state the strategy
			// decided against, so there it is a fault.
			if i > 0 && (core.IsUnknownNode(rr.Err) || core.IsUnknownCluster(rr.Err)) {
				res.SkippedOps++
				continue
			}
			return rr.Err
		}
	}
	if sample && len(ops) == 1 {
		r.recordOpCost(res, ops[0].Kind == core.OpLeave, snap)
	}
	return nil
}

// decide appends to ops the up to k operations the strategy decides
// against the step-boundary state, the adversary's view in the paper's
// model. Victims are deduplicated within the step.
func (r *Runner) decide(ops []core.Op, step, minSize, k int) ([]core.Op, error) {
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
	victims := r.victims
	clear(victims)
	for tries := 0; len(ops) < k && tries < 4*k; tries++ {
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
			// admitted only against the step-start population.
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
			return ops, fmt.Errorf("sim: unknown op kind %d", op.Kind)
		}
	}
	return ops, nil
}

func (r *Runner) recordOpCost(res *Result, leave bool, snap metrics.Snapshot) {
	// Cost.ByClass holds every class, zero charges included, so each
	// histogram's N is the sampled-op count and its quantiles are true
	// per-op distributions, not distributions conditioned on the class
	// having been used.
	cost := r.world.Ledger().Since(snap)
	if leave {
		res.OpCosts.LeaveMsgs.Add(float64(cost.Messages))
		res.OpCosts.LeaveRounds.Add(float64(cost.Rounds))
	} else {
		res.OpCosts.JoinMsgs.Add(float64(cost.Messages))
		res.OpCosts.JoinRounds.Add(float64(cost.Rounds))
	}
	for c := 0; c < metrics.NumClasses; c++ {
		res.OpCosts.ClassMsgs[c].Add(float64(cost.ByClass[c]))
	}
}
