// Package nowover is a Go implementation of NOW (Neighbors On Watch) and
// OVER (Over-Valued Erdos-Renyi graph) from Guerraoui, Huc and Kermarrec,
// "Highly Dynamic Distributed Computing with Byzantine Failures",
// PODC 2013: Byzantine-resilient clustering for networks whose size varies
// polynomially (sqrt(N) <= n <= N) under an adversary controlling up to a
// 1/3 - eps fraction of the nodes.
//
// The package maintains a partition of nodes into clusters of size
// Theta(log N), each more than two thirds honest w.h.p., connected by a
// self-repairing expander overlay. On top of the clustering it provides
// the application services the paper derives: O~(n) broadcast, polylog
// uniform sampling, aggregation and network-wide agreement.
//
// Quick start:
//
//	cfg := nowover.DefaultConfig(1 << 12) // N = 4096 name space
//	sys, err := nowover.New(cfg)
//	if err != nil { ... }
//	// 20% of the initial 1024 nodes are adversary-controlled.
//	err = sys.Bootstrap(1024, nowover.FractionCorrupt(1024, 0.20))
//	id, err := sys.JoinAuto(false) // an honest node arrives
//	err = sys.Leave(id)            // and departs
//	audit := sys.Audit()           // invariant check (Theorem 3's quantities)
//
// The heavier machinery — churn simulation (Simulate), adversary
// strategies, the experiment harness regenerating every claim-table of
// the paper — is exposed through type aliases onto the internal packages;
// see the subdirectories of internal/ for the full documentation, and
// DESIGN.md / EXPERIMENTS.md for the reproduction map.
package nowover

import (
	"fmt"

	"nowover/internal/adversary"
	"nowover/internal/apps"
	"nowover/internal/core"
	"nowover/internal/experiments"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/over"
	"nowover/internal/randnum"
	"nowover/internal/sim"
	"nowover/internal/workload"
	"nowover/internal/xrand"
)

// Re-exported identifier types.
type (
	// NodeID identifies a node (unforgeable per the model).
	NodeID = ids.NodeID
	// ClusterID identifies an overlay vertex.
	ClusterID = ids.ClusterID
)

// Protocol configuration and state types.
type (
	// Config parameterizes the protocol; see DefaultConfig.
	Config = core.Config
	// MergeStrategy selects among the paper's merge readings.
	MergeStrategy = core.MergeStrategy
	// Audit is the invariant snapshot (Theorem 3's quantities).
	Audit = core.Audit
	// Stats holds lifetime counters and security high-water marks.
	Stats = core.Stats
	// OverlayHealth is the OVER structural audit (Properties 1-2).
	OverlayHealth = over.Health
	// Security classifies cluster trust (Secure / Degraded / Captured).
	Security = randnum.Security
	// Cost is a message/round consumption record.
	Cost = metrics.Cost
)

// Streaming statistics types: the fixed-memory accumulators behind
// SimConfig.SampleOpCosts, which keep wide-range -full sweeps (N up to
// 2^16 and beyond) in memory. All of them Merge deterministically in
// submission order.
type (
	// Digest is a fixed-memory, deterministically mergeable quantile
	// sketch (t-digest-style centroids; exact count/mean/min/max).
	Digest = metrics.Digest
	// Hist is a bounded log-scale histogram (exactly mergeable; used for
	// per-traffic-class message counts).
	Hist = metrics.Hist
	// SimOpCosts is a simulation's per-operation cost distributions (join/
	// leave messages and rounds, plus per-class message histograms). The
	// zero value is empty; aggregate runs into one via Merge, in a fixed
	// run order to keep aggregates deterministic at any parallelism.
	SimOpCosts = sim.OpCosts
	// TrafficClass labels a category of protocol traffic (walk, exchange,
	// cascade, ...).
	TrafficClass = metrics.Class
)

// NumTrafficClasses is the number of traffic classes (SimOpCosts.ClassMsgs
// has one histogram per class).
const NumTrafficClasses = metrics.NumClasses

// Merge strategies (see DESIGN.md on the paper's ambiguity).
const (
	MergeAbsorbRandom = core.MergeAbsorbRandom
	MergeRejoinAll    = core.MergeRejoinAll
)

// Batch types: the operations of one time step, run in op order on the
// classic path and settled once. See core.World.ExecBatch.
type (
	// WorldOp is one batched operation (join / leave / exchange).
	WorldOp = core.Op
	// WorldOpResult reports a batched operation's outcome.
	WorldOpResult = core.OpResult
	// WorldOpKind discriminates batched operations.
	WorldOpKind = core.OpKind
)

// Batched operation kinds.
const (
	WorldOpJoin     = core.OpJoin
	WorldOpLeave    = core.OpLeave
	WorldOpExchange = core.OpExchange
)

// Security levels.
const (
	Secure   = randnum.Secure
	Degraded = randnum.Degraded
	Captured = randnum.Captured
)

// Simulation layer aliases.
type (
	// SimConfig assembles a full churn simulation.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// Schedule prescribes network size over time.
	Schedule = workload.Schedule
	// Strategy is an adversary churn strategy.
	Strategy = adversary.Strategy
)

// Workload schedules.
type (
	// Steady holds the size constant (pure churn).
	Steady = workload.Steady
	// Linear ramps the size (polynomial growth/shrink).
	Linear = workload.Linear
	// Oscillate swings between two sizes.
	Oscillate = workload.Oscillate
	// FlashCrowd models a join storm.
	FlashCrowd = workload.FlashCrowd
)

// Adversary strategies.
type (
	// RandomChurn is benign dynamics at a tau corruption budget.
	RandomChurn = adversary.RandomChurn
	// JoinLeaveAttack cycles Byzantine nodes at a target cluster.
	JoinLeaveAttack = adversary.JoinLeaveAttack
	// DOSAttack evicts honest members of the target cluster.
	DOSAttack = adversary.DOSAttack
	// Budget enforces the tau corruption bound.
	Budget = adversary.Budget
)

// Adversary hook contract (see core hooks.go): within a batch, hook
// decisions read state fixed at the batch boundary, and hook bookkeeping
// folds through the per-batch lifecycle in op order (SimConfig with
// InstallHijacker, World.SetHijacker/SetSteerHook).
type (
	// BatchHook is the per-batch lifecycle of an adversary hook.
	BatchHook = core.BatchHook
	// Steerer scores clusters for last-revealer bias (SetSteerHook).
	Steerer = core.Steerer
	// CapturedHijacker redirects walks transiting captured clusters to
	// the strategy's snapshot-scoped target fixation.
	CapturedHijacker = adversary.CapturedHijacker
	// TargetProvider is the two-sided target contract attack strategies
	// expose (JoinLeaveAttack implements it).
	TargetProvider = adversary.TargetProvider
)

// Experiment harness aliases (regenerates every claim-table; see
// EXPERIMENTS.md).
type (
	// ExperimentTable is a paper-style result table.
	ExperimentTable = experiments.Table
	// ExperimentScale sizes an experiment run.
	ExperimentScale = experiments.Scale
)

// DefaultConfig returns paper-faithful parameters for name-space bound N.
func DefaultConfig(maxN int) Config { return core.DefaultConfig(maxN) }

// Experiments returns the experiment registry (E1-E12 + ablations).
func Experiments() map[string]func(ExperimentScale) (*ExperimentTable, error) {
	reg := experiments.Registry()
	out := make(map[string]func(ExperimentScale) (*ExperimentTable, error), len(reg))
	for id, run := range reg {
		out[id] = run
	}
	return out
}

// ExperimentIDs returns the registry keys in canonical order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiments executes the named experiments concurrently on
// Workers(s.Parallel) workers — fanning across experiments on top of each
// experiment's own cell fan-out — and returns their tables positionally
// aligned with ids. Tables are byte-identical to a serial sweep at any
// worker count, and a non-nil s.Journal checkpoints every cell.
func RunExperiments(ids []string, s ExperimentScale) ([]*ExperimentTable, error) {
	return experiments.RunMany(ids, s)
}

// Workers resolves an experiment worker-count setting
// (ExperimentScale.Parallel, the parallel argument of ForEachRun): p > 0
// is exactly p workers, 0 means GOMAXPROCS.
func Workers(p int) int { return experiments.Workers(p) }

// ForEachRun fans count independent runs across Workers(parallel) workers
// (body receives the run index). Callers must make each run
// self-contained — own world, own seed — and collect results into
// index-addressed storage.
func ForEachRun(parallel, count int, body func(i int) error) error {
	return experiments.ForEach(parallel, count, body)
}

// CheckpointJournal is an open per-cell result journal. A sweep
// checkpoints through it when it is set as ExperimentScale.Journal;
// Close it when the sweep is done.
type CheckpointJournal = experiments.Journal

// OpenCheckpointJournal opens (creating or resuming) a per-cell result
// journal: completed sweep cells are appended as JSON lines and served
// from the journal on the next run, so an interrupted long sweep resumes
// from its last completed cell with byte-identical tables. fingerprint
// must capture the run configuration (see cmd/nowbench); a journal
// recorded under a different fingerprint is refused. nowMillis (optional,
// may be nil) supplies wall-clock timing for benchmark trajectories
// (CheckpointJournal.BenchTrajectory).
func OpenCheckpointJournal(path, fingerprint string, nowMillis func() int64) (*CheckpointJournal, error) {
	return experiments.OpenJournal(path, fingerprint, nowMillis)
}

// BenchPoint is one sweep cell's wall-clock timing.
type BenchPoint = experiments.BenchPoint

// QuickScale is the CI-sized experiment scale.
func QuickScale() ExperimentScale { return experiments.QuickScale() }

// FullScale is the long-running experiment scale.
func FullScale() ExperimentScale { return experiments.FullScale() }

// Simulate builds and runs a churn simulation in one call.
func Simulate(cfg SimConfig) (*SimResult, error) {
	runner, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return runner.Run()
}

// NewSimulation builds a runner for multi-phase simulations (use
// Continue for chained schedules).
func NewSimulation(cfg SimConfig) (*sim.Runner, error) { return sim.New(cfg) }

// FractionCorrupt returns a Bootstrap corruption function for an initial
// population of n0 nodes that hands the adversary floor(tau*n0) of them —
// its full budget, exercised up front as the model allows. (The random
// partition scatters the corrupted slots uniformly, so corrupting a
// prefix is equivalent to corrupting any fixed subset.)
func FractionCorrupt(n0 int, tau float64) func(slot int) bool {
	budget := int(tau * float64(n0))
	return func(slot int) bool { return slot < budget }
}

// System is the façade over a live NOW instance: protocol operations,
// audits and the application services, all on one world.
type System struct {
	world *core.World
	n0    int
}

// New builds an un-bootstrapped system.
func New(cfg Config) (*System, error) {
	w, err := core.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return &System{world: w}, nil
}

// Bootstrap runs the initialization phase at n0 nodes; corrupt decides
// which initial slots the adversary controls (nil for none).
func (s *System) Bootstrap(n0 int, corrupt func(slot int) bool) error {
	s.n0 = n0
	return s.world.Bootstrap(n0, corrupt)
}

// Join executes the Join operation with an explicit contact cluster.
func (s *System) Join(byzantine bool, contact ClusterID) (NodeID, error) {
	return s.world.Join(byzantine, contact)
}

// JoinAuto executes a Join whose contact cluster is uniform (honest
// arrival).
func (s *System) JoinAuto(byzantine bool) (NodeID, error) {
	return s.world.JoinAuto(byzantine)
}

// Leave executes the Leave operation for node x.
func (s *System) Leave(x NodeID) error { return s.world.Leave(x) }

// ExecBatch executes a batch of operations — one time step with multiple
// simultaneous arrivals and departures — in op order on the classic path,
// settling security once at the end of the batch.
func (s *System) ExecBatch(ops []WorldOp) []WorldOpResult { return s.world.ExecBatch(ops) }

// CheckInvariants verifies the global consistency invariants the protocol
// maintains (membership partition, Byzantine counters, size bounds,
// overlay/partition correspondence); nil means all hold.
func (s *System) CheckInvariants() error { return core.CheckInvariants(s.world) }

// Audit returns the invariant snapshot.
func (s *System) Audit() Audit { return s.world.Audit() }

// Stats returns lifetime counters.
func (s *System) Stats() Stats { return s.world.Stats() }

// CheckOverlay runs the OVER structural audit.
func (s *System) CheckOverlay() OverlayHealth { return s.world.OverlayHealth(60, 40) }

// NumNodes returns the live population.
func (s *System) NumNodes() int { return s.world.NumNodes() }

// NumClusters returns the number of clusters.
func (s *System) NumClusters() int { return s.world.NumClusters() }

// Clusters lists the cluster IDs.
func (s *System) Clusters() []ClusterID { return s.world.Clusters() }

// ClusterOf locates a node.
func (s *System) ClusterOf(x NodeID) (ClusterID, bool) { return s.world.ClusterOf(x) }

// Members returns a cluster's member snapshot.
func (s *System) Members(c ClusterID) []NodeID { return s.world.Members(c) }

// IsByzantine reports a node's allegiance (omniscient view, for
// evaluation only — protocol logic never reads it).
func (s *System) IsByzantine(x NodeID) bool { return s.world.IsByzantine(x) }

// TotalCost returns all messages/rounds consumed so far.
func (s *System) TotalCost() Cost {
	return s.world.Ledger().Since(metrics.Snapshot{})
}

// World exposes the underlying protocol state for advanced use (the
// entire internal API: ForceExchange, SetCorrupted, Walker, ...).
func (s *System) World() *core.World { return s.world }

// Broadcast delivers a message from a source cluster to every node and
// reports the cost against the O(n^2) flooding reference.
func (s *System) Broadcast(source ClusterID) (apps.BroadcastReport, error) {
	return apps.Broadcast(s.world.Ledger(), s.world, source)
}

// Sample draws one ~uniform node via randCl, from a random contact.
func (s *System) Sample() (apps.SampleReport, error) {
	sampler, err := apps.NewSampler(s.world, s.world.Walker(), s.world.Generator(), s.world.MemberAt)
	if err != nil {
		return apps.SampleReport{}, err
	}
	contact, ok := s.world.RandomCluster(s.world.Rng())
	if !ok {
		return apps.SampleReport{}, fmt.Errorf("nowover: no clusters")
	}
	return sampler.Sample(s.world.Ledger(), s.world.Rng(), contact)
}

// Aggregate sums value(cluster, memberIndex) over every node via
// convergecast on the overlay tree.
func (s *System) Aggregate(root ClusterID, value func(ClusterID, int) int64) (apps.AggregateReport, error) {
	return apps.Aggregate(s.world.Ledger(), s.world, root, value)
}

// Agree drives a network-wide binary agreement on per-cluster proposals.
func (s *System) Agree(root ClusterID, proposal func(ClusterID) int64) (apps.AgreementReport, error) {
	return apps.Agree(s.world.Ledger(), s.world, root, proposal)
}

// Rand returns a deterministic random stream seeded from the system's
// configuration, for callers who need reproducible auxiliary randomness.
func (s *System) Rand() *xrand.Rand { return s.world.Rng() }

// Report types re-exported for the application services.
type (
	// BroadcastReport summarizes a clustered broadcast.
	BroadcastReport = apps.BroadcastReport
	// SampleReport summarizes one uniform node sample.
	SampleReport = apps.SampleReport
	// AggregateReport summarizes a network aggregation.
	AggregateReport = apps.AggregateReport
	// AgreementReport summarizes a network-wide agreement.
	AgreementReport = apps.AgreementReport
)
