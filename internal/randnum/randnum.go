// Package randnum implements the paper's randNum primitive: the nodes of a
// cluster agree on a common integer chosen uniformly at random from [0, r).
// The paper defers the construction to its long version and states only its
// contract: cost O(|C|^2) messages, security while the cluster holds more
// than two thirds honest nodes.
//
// Two constructions are provided:
//
//   - Ideal models an unbiasable coin (a VSS-backed construction, matching
//     the paper's security claim): while the cluster is below the agreement
//     threshold the output is exactly uniform.
//   - CommitReveal models the classical hash-commit-then-reveal coin, whose
//     known weakness is last-revealer bias: each Byzantine member may
//     withhold its reveal after seeing all honest shares, steering the
//     output among up to 2^b candidates. The adversary drives the choice
//     through an Objective. This variant exists to *measure* how much the
//     idealization matters (ablation experiment).
//
// Both charge the paper's cost model to the ledger: two all-to-all rounds
// plus one black-box intra-cluster agreement on the reveal set.
package randnum

import (
	"fmt"

	"nowover/internal/ba"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// Params describes the cluster executing one draw.
type Params struct {
	Size int   // cluster size |C|
	Byz  int   // Byzantine members in the cluster
	R    int64 // output range [0, R)
}

// validate is nil for a drawable cluster. It inlines into Draw: the
// message of a rejection is built only when read, by invalidParams.Error.
func (p Params) validate() error {
	if p.Size > 0 && p.Byz >= 0 && p.Byz <= p.Size && p.R > 0 {
		return nil
	}
	return invalidParams(p)
}

// invalidParams is the error of a rejected Params.
type invalidParams Params

func (p invalidParams) Error() string {
	switch {
	case p.Size <= 0:
		return fmt.Sprintf("randnum: non-positive cluster size %d", p.Size)
	case p.Byz < 0 || p.Byz > p.Size:
		return fmt.Sprintf("randnum: byzantine count %d out of [0,%d]", p.Byz, p.Size)
	default:
		return fmt.Sprintf("randnum: non-positive range %d", p.R)
	}
}

// Objective scores an outcome for the adversary; higher is better. A nil
// Objective means the adversary is indifferent.
type Objective func(int64) float64

// Security classifies the trust state of a draw.
type Security int

// Security levels, ordered from safe to broken.
const (
	// Secure: cluster > 2/3 honest; agreement holds and (for Ideal) the
	// output is uniform.
	Secure Security = iota
	// Degraded: cluster has >= 1/3 Byzantine members but still a strict
	// honest majority; agreement may fail but neighbors still hear one
	// voice. Output validity is no longer guaranteed by the paper.
	Degraded
	// Captured: Byzantine members are at least half the cluster; the
	// adversary fully controls the cluster's voice and hence the outcome.
	Captured
)

// String implements fmt.Stringer.
func (s Security) String() string {
	switch s {
	case Secure:
		return "secure"
	case Degraded:
		return "degraded"
	case Captured:
		return "captured"
	default:
		return fmt.Sprintf("security(%d)", int(s))
	}
}

// Classify maps a cluster composition to its security level.
func Classify(size, byz int) Security {
	switch {
	case 2*byz >= size:
		return Captured
	case 3*byz >= size:
		return Degraded
	default:
		return Secure
	}
}

// Generator is a cluster-level distributed randomness source.
type Generator interface {
	// Draw returns the agreed value and the security level under which it
	// was produced. A Captured draw returns an adversary-chosen value.
	Draw(led *metrics.Ledger, r *xrand.Rand, p Params, obj Objective) (int64, Security, error)
}

// chargeDraw applies the paper's cost model for one randNum invocation.
func chargeDraw(led *metrics.Ledger, size int) {
	var t Tally
	t.Add(1, pairsOf(size))
	t.Charge(led)
}

// pairsOf is the number of ordered member pairs of a cluster of size
// members, |C|(|C|-1): the message count of one all-to-all round.
func pairsOf(size int) int64 { return int64(size) * int64(size-1) }

// Tally is the Ideal draw fused for a caller that draws many times at
// clusters below capture, such as a walk's hops: Draw returns the draw's
// value and adds its cost to running sums, and Charge puts the sums on a
// ledger once. A caller that makes the draws itself (see Draw) may instead
// count them and hand the counts over with Add. The zero value is an
// empty tally.
type Tally struct {
	randNum, agreement, rounds int64
}

// Add is the paper's cost model for draws randNum invocations at clusters
// whose ordered member pairs |C|(|C|-1) sum to pairs: per draw, a commit
// round and a reveal round (all-to-all within the cluster) and one
// black-box agreement on the reveal set (ba.DecideCosts). The cost is
// linear in both counts, so one Add of summed counts equals one Add per
// draw.
func (t *Tally) Add(draws, pairs int64) {
	msgs, rounds := ba.DecideCosts(draws, pairs)
	t.randNum += 2 * pairs
	t.agreement += msgs
	t.rounds += 2*draws + rounds
}

// Draw is Ideal.Draw at a cluster below capture, without the ledger: it
// returns the agreed value, uniform in [0, n), and adds the draw's cost to
// the tally. The caller guarantees what Ideal.Draw would have checked:
// Params{Size: size, Byz: byz, R: n} is valid for the cluster's byz, and
// Classify(size, byz) is below Captured. The value is r.Intn(n), which a
// caller holding r.PCG() may draw inline as r.IntnFrom(pcg.Uint64(), n)
// and charge with Add(1, size*(size-1)).
func (t *Tally) Draw(r *xrand.Rand, size, n int) int {
	t.Add(1, pairsOf(size))
	return r.Intn(n)
}

// Charge charges led with the tally's sums and empties the tally.
func (t *Tally) Charge(led *metrics.Ledger) {
	led.ChargeRounds(metrics.ClassRandNum, t.randNum, t.rounds)
	led.Charge(metrics.ClassAgreement, t.agreement)
	*t = Tally{}
}

// Ideal is the unbiasable construction. The zero value is ready to use.
type Ideal struct{}

var _ Generator = Ideal{}

// Draw implements Generator. Below capture it is one Tally draw, charged at
// once.
func (Ideal) Draw(led *metrics.Ledger, r *xrand.Rand, p Params, obj Objective) (int64, Security, error) {
	if err := p.validate(); err != nil {
		return 0, Secure, err
	}
	sec := Classify(p.Size, p.Byz)
	if sec == Captured {
		chargeDraw(led, p.Size)
		return adversaryChoice(r, p.R, obj), sec, nil
	}
	var t Tally
	v := t.Draw(r, p.Size, int(p.R))
	t.Charge(led)
	return int64(v), sec, nil
}

// CommitReveal is the biasable construction: Byzantine members may abort
// their reveal after observing honest shares. Aborts are resolved by the
// agreed reveal set; the output is the sum modulo R of revealed shares.
// The adversary picks abort decisions greedily per member in index order,
// which lower-bounds optimal 2^b steering but captures the dominant
// last-revealer advantage.
type CommitReveal struct{}

var _ Generator = CommitReveal{}

// Draw implements Generator.
func (CommitReveal) Draw(led *metrics.Ledger, r *xrand.Rand, p Params, obj Objective) (int64, Security, error) {
	if err := p.validate(); err != nil {
		return 0, Secure, err
	}
	chargeDraw(led, p.Size)
	sec := Classify(p.Size, p.Byz)
	if sec == Captured {
		return adversaryChoice(r, p.R, obj), sec, nil
	}

	honest := p.Size - p.Byz
	var sum int64
	for i := 0; i < honest; i++ {
		sum = (sum + int64(r.Intn(int(p.R)))) % p.R
	}
	if obj == nil || p.Byz == 0 {
		// Indifferent adversary: committed Byzantine shares are already
		// fixed and uniform, so including them keeps the output uniform.
		for i := 0; i < p.Byz; i++ {
			sum = (sum + int64(r.Intn(int(p.R)))) % p.R
		}
		return sum, sec, nil
	}
	// Greedy last-revealer steering: each Byzantine share was committed
	// (uniform), but its reveal can be withheld.
	for i := 0; i < p.Byz; i++ {
		share := int64(r.Intn(int(p.R)))
		with := (sum + share) % p.R
		if obj(with) > obj(sum) {
			sum = with
		}
	}
	return sum, sec, nil
}

// adversaryChoice returns the adversary's preferred value in [0, R): the
// argmax of obj when one exists (scanning is fine at protocol ranges, which
// are O(polylog N)), otherwise uniform.
func adversaryChoice(r *xrand.Rand, rng int64, obj Objective) int64 {
	if obj == nil {
		return int64(r.Intn(int(rng)))
	}
	best := int64(0)
	bestScore := obj(0)
	for v := int64(1); v < rng; v++ {
		if s := obj(v); s > bestScore {
			best, bestScore = v, s
		}
	}
	return best
}
