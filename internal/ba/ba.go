// Package ba implements synchronous Byzantine agreement, the substrate the
// paper invokes as a black box: once for the initialization phase
// (clusterization via an off-the-shelf protocol, paper section 3.2) and
// implicitly inside every intra-cluster decision (randNum, next-hop
// selection), which are secure while the cluster is more than two thirds
// honest.
//
// Two executable algorithms are provided, both running over a simulated
// lockstep-synchronous full-information network with pluggable Byzantine
// behaviors:
//
//   - Phase-King (Berman-Garay-Perry): n > 4t, t+1 phases of two rounds,
//     O(n^2) messages per phase. The workhorse for live demonstrations.
//   - EIG (exponential information gathering): optimal resilience n > 3t in
//     t+1 rounds, but message size exponential in t; usable for the small
//     committees where optimal resilience at the 1/3 boundary matters.
//
// The paper's own analysis never executes agreement message-by-message; it
// charges costs analytically. Decide mirrors that abstraction for the
// counted simulator: it resolves an intra-cluster decision as secure iff
// the cluster is > 2/3 honest and charges the paper's O(|C|^2) cost.
package ba

import (
	"fmt"
	"sort"

	"nowover/internal/metrics"
)

// Value is an agreement input/output. Agreement is multivalued; binary
// agreement uses {0, 1}.
type Value int64

// Behavior scripts one Byzantine node. Honest nodes are represented by a
// nil Behavior. Send returns the value the node transmits to a specific
// recipient in a given round, given what an honest node would have sent —
// full equivocation power, matching the paper's full-information adversary.
type Behavior interface {
	Send(round, from, to int, honest Value) Value
}

// Silent never sends (modelled as a distinguished absent value).
type Silent struct{}

// Send implements Behavior.
func (Silent) Send(_, _, _ int, _ Value) Value { return Absent }

// Liar always sends the negation-style corruption of the honest value.
type Liar struct{}

// Send implements Behavior.
func (Liar) Send(_, _, _ int, honest Value) Value { return honest ^ 1 }

// Equivocator sends the honest value to even-indexed recipients and its
// complement to odd-indexed ones — the canonical split-the-vote attack.
type Equivocator struct{}

// Send implements Behavior.
func (Equivocator) Send(_, _, to int, honest Value) Value {
	if to%2 == 0 {
		return honest
	}
	return honest ^ 1
}

// Absent marks a missing message (silence). Chosen outside the value space
// used by tests.
const Absent Value = -1 << 62

// Config describes one agreement instance.
type Config struct {
	N         int              // committee size
	Inputs    []Value          // length N; Inputs[i] is node i's proposal
	Byzantine map[int]Behavior // node index -> scripted behavior
}

func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("ba: non-positive committee size %d", c.N)
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("ba: %d inputs for committee of %d", len(c.Inputs), c.N)
	}
	// Sorted walk so which out-of-range index gets reported is a function
	// of the config, not of map iteration order.
	idxs := make([]int, 0, len(c.Byzantine))
	for i := range c.Byzantine {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if i < 0 || i >= c.N {
			return fmt.Errorf("ba: byzantine index %d out of range", i)
		}
	}
	return nil
}

// Result reports the outcome of an agreement execution.
type Result struct {
	Decisions []Value // per-node decision (Byzantine entries are meaningless)
	Rounds    int
	Messages  int64
}

// HonestDecisions returns the decisions of honest nodes only.
func (r Result) HonestDecisions(byz map[int]Behavior) []Value {
	out := make([]Value, 0, len(r.Decisions))
	for i, d := range r.Decisions {
		if _, bad := byz[i]; !bad {
			out = append(out, d)
		}
	}
	return out
}

// Agree reports whether all honest nodes decided the same value, and that
// value.
func (r Result) Agree(byz map[int]Behavior) (Value, bool) {
	hs := r.HonestDecisions(byz)
	if len(hs) == 0 {
		return 0, false
	}
	for _, d := range hs[1:] {
		if d != hs[0] {
			return 0, false
		}
	}
	return hs[0], true
}

// broadcastRound has every node send one value to every node (including
// itself, which costs nothing) and returns the received matrix:
// recv[to][from]. Byzantine senders filter through their Behavior.
func broadcastRound(cfg Config, round int, outgoing []Value, res *Result) [][]Value {
	recv := make([][]Value, cfg.N)
	for to := 0; to < cfg.N; to++ {
		recv[to] = make([]Value, cfg.N)
	}
	for from := 0; from < cfg.N; from++ {
		b := cfg.Byzantine[from]
		for to := 0; to < cfg.N; to++ {
			v := outgoing[from]
			if b != nil {
				v = b.Send(round, from, to, outgoing[from])
			}
			recv[to][from] = v
			if from != to {
				res.Messages++
			}
		}
	}
	res.Rounds++
	return recv
}

// majority returns the most frequent non-Absent value in vs and its count.
// Ties break toward the smaller value for determinism.
func majority(vs []Value) (Value, int) {
	counts := make(map[Value]int, len(vs))
	for _, v := range vs {
		if v != Absent {
			counts[v]++
		}
	}
	var best Value
	bestN := -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	if bestN < 0 {
		return 0, 0
	}
	return best, bestN
}

// PhaseKing runs the Berman-Garay-Perry phase-king protocol for up to
// maxFaults faults. Correctness (agreement + validity) requires
// N > 4*maxFaults; the function executes regardless so experiments can
// probe the failure region. Round complexity 2*(maxFaults+1), message
// complexity O(N^2 * maxFaults).
func PhaseKing(cfg Config, maxFaults int) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if maxFaults < 0 {
		return Result{}, fmt.Errorf("ba: negative fault bound %d", maxFaults)
	}
	res := Result{Decisions: make([]Value, cfg.N)}
	v := make([]Value, cfg.N)
	copy(v, cfg.Inputs)

	for phase := 0; phase <= maxFaults; phase++ {
		// Round 1: everyone broadcasts its current value.
		recv := broadcastRound(cfg, 2*phase, v, &res)
		maj := make([]Value, cfg.N)
		mult := make([]int, cfg.N)
		for i := 0; i < cfg.N; i++ {
			maj[i], mult[i] = majority(recv[i])
		}
		// Round 2: the phase king broadcasts its majority value.
		king := phase % cfg.N
		kingRecv := broadcastOne(cfg, 2*phase+1, king, maj[king], &res)
		for i := 0; i < cfg.N; i++ {
			if mult[i] > cfg.N/2+maxFaults {
				v[i] = maj[i]
			} else {
				kv := kingRecv[i]
				if kv == Absent {
					kv = 0 // default on silent king
				}
				v[i] = kv
			}
		}
	}
	copy(res.Decisions, v)
	return res, nil
}

// broadcastOne has a single sender transmit v to all nodes; the sender's
// Behavior may equivocate. Returns the per-recipient received value.
func broadcastOne(cfg Config, round, from int, v Value, res *Result) []Value {
	recv := make([]Value, cfg.N)
	b := cfg.Byzantine[from]
	for to := 0; to < cfg.N; to++ {
		out := v
		if b != nil {
			out = b.Send(round, from, to, v)
		}
		recv[to] = out
		if from != to {
			res.Messages++
		}
	}
	res.Rounds++
	return recv
}

// Decide is the analytic stand-in used by the counted simulator, mirroring
// the paper's own abstraction: an intra-cluster agreement among size
// members of which byz are Byzantine succeeds iff the cluster is more than
// two thirds honest. It charges the paper's O(size^2) message cost and a
// constant number of rounds to the ledger and reports success.
func Decide(led *metrics.Ledger, size, byz int) bool {
	if size <= 0 {
		return false
	}
	msgs, rounds := DecideCost(size)
	led.ChargeRounds(metrics.ClassAgreement, msgs, rounds)
	return 3*byz < size
}

// DecideCost is what Decide charges for one agreement among size > 0
// members: size*(size-1) messages (all-to-all) and a constant number of
// rounds. It is the agreement term of every randNum draw's cost.
func DecideCost(size int) (msgs, rounds int64) {
	return int64(size) * int64(size-1), _decideRounds
}

// _decideRounds is the constant round charge for one black-box agreement;
// the paper treats intra-cluster agreement as O(1) rounds within a time
// step.
const _decideRounds = 3
