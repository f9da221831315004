// Package core implements NOW (Neighbors On Watch), the paper's primary
// contribution: a protocol maintaining a partition of the nodes into
// clusters of size Theta(log N), each more than two thirds honest w.h.p.,
// on top of the OVER expander overlay, while the network size varies
// polynomially (sqrt(N) <= n <= N) under a Byzantine adversary controlling
// a fraction tau <= 1/3 - epsilon of the nodes.
//
// The World type holds the full protocol state (partition + overlay +
// honesty bookkeeping) and exposes the paper's operations: Bootstrap
// (initialization phase, section 3.2) and Join / Leave with their induced
// Split / Merge (maintenance phase, section 3.3). Every operation executes
// the real protocol machinery — biased CTRWs, cluster-agreed randomness,
// full-cluster exchanges, overlay surgery — with communication costs
// charged to a ledger per the paper's accounting rules.
package core

import (
	"fmt"
	"math"

	"nowover/internal/randnum"
)

// MergeStrategy selects between the paper's mutually inconsistent
// descriptions of the merge operation (section 3.3 prose vs Figure 2 vs
// Algorithm 2); ablation A1 (experiments.AblationMergeStrategy) runs both.
type MergeStrategy int

const (
	// MergeAbsorbRandom (default, section 3.3 prose): randCl picks a
	// random cluster C', C' leaves the overlay — satisfying OVER's
	// random-removal assumption — and its members are absorbed into the
	// undersized cluster, which then exchanges all its nodes.
	MergeAbsorbRandom MergeStrategy = iota
	// MergeRejoinAll (Algorithm 2): the undersized cluster itself leaves
	// the overlay and its members re-join the network individually via
	// Join operations on subsequent time steps.
	MergeRejoinAll
)

// String implements fmt.Stringer.
func (m MergeStrategy) String() string {
	switch m {
	case MergeAbsorbRandom:
		return "absorb-random"
	case MergeRejoinAll:
		return "rejoin-all"
	default:
		return fmt.Sprintf("merge(%d)", int(m))
	}
}

// Shuffle selects section 3.3's shuffling: a full-cluster exchange after
// every join and leave, and Algorithm 2's cascade onto the leave's
// receivers, which the Theorem 3 proof needs ("we enforce C' to exchange
// all its nodes"). Its four values are the configurations callers run.
type Shuffle int

const (
	// ShuffleGrouped (default) runs each leave's cascade as one grouped
	// shuffle round over the receivers (see World.runLeaveCascade),
	// charged to metrics.ClassCascade. It still re-samples every receiver
	// uniformly, which is all Lemma 1 and Theorem 3 ask of a cascade.
	ShuffleGrouped Shuffle = iota
	// ShufflePerReceiver runs Algorithm 2's cascade, a full exchange per
	// receiver: the paper-faithful reference.
	ShufflePerReceiver
	// ShuffleNoCascade exchanges but cascades nothing (ablation A2).
	ShuffleNoCascade
	// ShuffleOff exchanges nowhere: the shuffle-less strawman of section
	// 3.3, which the join-leave attack pollutes unimpeded (E11).
	ShuffleOff
)

// String implements fmt.Stringer.
func (s Shuffle) String() string {
	switch s {
	case ShuffleGrouped:
		return "grouped"
	case ShufflePerReceiver:
		return "per-receiver"
	case ShuffleNoCascade:
		return "no-cascade"
	case ShuffleOff:
		return "off"
	default:
		return fmt.Sprintf("shuffle(%d)", int(s))
	}
}

// The overlay's shape (OVER Property 2) and randCl's restart bound are
// constants; no experiment varies them.
const (
	// overlayAlpha is the overlay degree exponent: the target degree is
	// log2(N)^(1+overlayAlpha).
	overlayAlpha = 0.25
	// degreeCapFactor sets the hard maximum degree as a multiple of the
	// target degree (Property 2's constant c).
	degreeCapFactor = 3
	// maxWalkRestarts bounds randCl rejection restarts.
	maxWalkRestarts = 32
)

// Config parameterizes a NOW world. DefaultConfig supplies the paper's
// settings with the grouped leave cascade; zero values are rejected by
// validation so misconfiguration is loud.
type Config struct {
	// N is the maximum network size (the paper's name-space bound); the
	// live size n is expected to stay within [sqrt(N), N].
	N int
	// Seed drives all protocol randomness; equal seeds reproduce runs.
	Seed uint64

	// K is the cluster-size security parameter: clusters target K*log2(N)
	// members. Higher K lowers the adversary's per-cluster success
	// probability at higher per-operation cost (paper section 3.2).
	K float64
	// L is the split/merge slack (paper's l > sqrt(2)): a cluster splits
	// above K*L*log2(N) members and merges below K*log2(N)/L.
	L float64

	// WalkDurationFactor scales CTRW segment durations (expected hops
	// ~ factor * log2(#C)^2, the paper's O(log^2 n) walk length).
	WalkDurationFactor float64

	// Generator is the randNum construction (Ideal or CommitReveal).
	Generator randnum.Generator

	// MergeStrategy resolves the paper's merge ambiguity.
	MergeStrategy MergeStrategy
	// Shuffle selects the exchanges after joins and leaves.
	Shuffle Shuffle
	// OverlayRepair enables OVER's post-removal degree repair.
	OverlayRepair bool
	// EdgeAttemptFactor bounds edge-placement walk attempts per requested
	// edge in OVER Add/Remove.
	EdgeAttemptFactor int

	// Shards has no effect: World.ExecBatch runs every op serially on the
	// classic path. The field remains only because the benchmark module
	// (cmd/nowperf) still sets it; the next change to that module deletes
	// it together with OpResult.Deferred/DeferReason.
	Shards int
}

// DefaultConfig returns the paper's parameters for maximum size n, with
// the grouped leave cascade (ShuffleGrouped; ShufflePerReceiver is the
// paper-faithful one). It is the single source of the cascade default:
// the experiment scales and the CLIs' -grouped-cascade flags read it.
func DefaultConfig(maxN int) Config {
	return Config{
		N:                  maxN,
		Seed:               1,
		K:                  2,
		L:                  2,
		WalkDurationFactor: 0.5,
		Generator:          randnum.Ideal{},
		MergeStrategy:      MergeAbsorbRandom,
		Shuffle:            ShuffleGrouped,
		OverlayRepair:      true,
		EdgeAttemptFactor:  4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.N < 16:
		return fmt.Errorf("core: N=%d too small (min 16)", c.N)
	case !(c.K > 0 && c.K < math.Inf(1)): // NaN fails each float bound
		return fmt.Errorf("core: K=%v must be positive and finite", c.K)
	case !(c.L > math.Sqrt2 && c.L < math.Inf(1)):
		return fmt.Errorf("core: L=%v must be finite and exceed sqrt(2)", c.L)
	case !(c.WalkDurationFactor > 0 && c.WalkDurationFactor < math.Inf(1)):
		return fmt.Errorf("core: WalkDurationFactor=%v must be positive and finite", c.WalkDurationFactor)
	case c.Generator == nil:
		return fmt.Errorf("core: nil Generator")
	case c.MergeStrategy < MergeAbsorbRandom || c.MergeStrategy > MergeRejoinAll:
		return fmt.Errorf("core: unknown merge strategy %v", c.MergeStrategy)
	case c.Shuffle < ShuffleGrouped || c.Shuffle > ShuffleOff:
		return fmt.Errorf("core: unknown shuffle mode %v", c.Shuffle)
	case c.EdgeAttemptFactor < 1:
		return fmt.Errorf("core: EdgeAttemptFactor=%d must be >= 1", c.EdgeAttemptFactor)
	case c.Shards < 0 || c.Shards > 1<<12:
		return fmt.Errorf("core: Shards=%d outside [0, %d]", c.Shards, 1<<12)
	}
	return nil
}

// LogN returns log2(N), the paper's ubiquitous scale factor.
func (c Config) LogN() float64 { return math.Log2(float64(c.N)) }

// TargetClusterSize returns K*log2(N) rounded to the nearest integer,
// minimum 3 (a cluster must be able to out-vote one traitor).
func (c Config) TargetClusterSize() int {
	s := int(math.Round(c.K * c.LogN()))
	if s < 3 {
		s = 3
	}
	return s
}

// SplitThreshold returns the size above which a cluster splits.
func (c Config) SplitThreshold() int {
	return int(math.Round(c.K * c.L * c.LogN()))
}

// MergeThreshold returns the size below which a cluster merges.
func (c Config) MergeThreshold() int {
	t := int(math.Round(c.K * c.LogN() / c.L))
	if t < 2 {
		t = 2
	}
	return t
}

// TargetDegree returns OVER's target overlay degree
// log2(N)^(1+overlayAlpha), minimum 3.
func (c Config) TargetDegree() int {
	d := int(math.Round(math.Pow(c.LogN(), 1+overlayAlpha)))
	if d < 3 {
		d = 3
	}
	return d
}

// DegreeCap returns OVER's hard maximum degree.
func (c Config) DegreeCap() int {
	return int(math.Round(degreeCapFactor * float64(c.TargetDegree())))
}

// DegreeFloor returns OVER's repair floor (half the target).
func (c Config) DegreeFloor() int {
	f := c.TargetDegree() / 2
	if f < 2 {
		f = 2
	}
	return f
}
