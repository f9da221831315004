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
// the paper — is exposed through type aliases onto the internal packages,
// as far as the commands and examples of this module use it; see the
// subdirectories of internal/ for the full documentation, README.md's
// module layout and EXPERIMENTS.md for the reproduction map.
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

// Merge strategies (see core.MergeStrategy on the paper's ambiguity) and
// shuffle modes (see core.Shuffle).
const (
	MergeAbsorbRandom  = core.MergeAbsorbRandom
	MergeRejoinAll     = core.MergeRejoinAll
	ShuffleGrouped     = core.ShuffleGrouped
	ShufflePerReceiver = core.ShufflePerReceiver
	ShuffleNoCascade   = core.ShuffleNoCascade
	ShuffleOff         = core.ShuffleOff
)

// Secure is the trust level of a cluster below the 1/3 Byzantine bound.
const Secure = randnum.Secure

// Simulation layer aliases.
type (
	// SimConfig assembles a full churn simulation.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
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
	// JoinLeaveAttack cycles Byzantine nodes at a target cluster.
	JoinLeaveAttack = adversary.JoinLeaveAttack
	// DOSAttack evicts honest members of the target cluster.
	DOSAttack = adversary.DOSAttack
	// Budget enforces the tau corruption bound.
	Budget = adversary.Budget
)

// ExperimentScale sizes an experiment run of the harness that
// regenerates every claim-table (see EXPERIMENTS.md).
type ExperimentScale = experiments.Scale

// DefaultConfig returns the paper's parameters for name-space bound N,
// with the grouped leave cascade; set Shuffle to ShufflePerReceiver for
// Algorithm 2's per-receiver cascade.
func DefaultConfig(maxN int) Config { return core.DefaultConfig(maxN) }

// Experiments returns the experiment registry (E1-E12 + ablations).
func Experiments() map[string]func(ExperimentScale) (*experiments.Table, error) {
	reg := experiments.Registry()
	out := make(map[string]func(ExperimentScale) (*experiments.Table, error), len(reg))
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
func RunExperiments(ids []string, s ExperimentScale) ([]*experiments.Table, error) {
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
// recorded under a different fingerprint, or by a build that constructs
// worlds differently, is refused. nowMillis (optional,
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
// Continue for chained schedules). Continue returns a fresh Result per
// phase; ContinueInto refills one the caller keeps, so a struct copy of it
// does not survive the next call (see sim.Runner.RunInto).
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

// JoinAuto executes a Join whose contact cluster is uniform (honest
// arrival).
func (s *System) JoinAuto(byzantine bool) (NodeID, error) {
	return s.world.JoinAuto(byzantine)
}

// Leave executes the Leave operation for node x.
func (s *System) Leave(x NodeID) error { return s.world.Leave(x) }

// Audit returns the invariant snapshot.
func (s *System) Audit() core.Audit { return s.world.Audit() }

// CheckOverlay runs the OVER structural audit.
func (s *System) CheckOverlay() over.Health { return s.world.OverlayHealth(60, 40) }

// NumNodes returns the live population.
func (s *System) NumNodes() int { return s.world.NumNodes() }

// NumClusters returns the number of clusters.
func (s *System) NumClusters() int { return s.world.NumClusters() }

// Clusters lists the cluster IDs.
func (s *System) Clusters() []ClusterID { return s.world.Clusters() }

// Members returns a cluster's member snapshot.
func (s *System) Members(c ClusterID) []NodeID { return s.world.Members(c) }

// TotalCost returns all messages/rounds consumed so far.
func (s *System) TotalCost() metrics.Cost {
	return s.world.Ledger().Since(metrics.Snapshot{})
}

// World exposes the underlying protocol state for advanced use (the
// entire internal API: ExecBatch, ClusterOf, Stats, ForceExchange,
// SetCorrupted, Walker, ...).
func (s *System) World() *core.World { return s.world }

// Broadcast delivers a message from a source cluster to every node and
// reports the cost against the O(n^2) flooding reference.
func (s *System) Broadcast(source ClusterID) (apps.BroadcastReport, error) {
	return apps.Broadcast(s.world.Ledger(), s.world, source)
}

// Sample draws one ~uniform node via randCl, from a random contact.
func (s *System) Sample() (apps.SampleReport, error) {
	sampler, err := apps.NewSampler(s.world, s.world.Walker(), s.world.Generator())
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
