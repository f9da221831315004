// Package exchange implements the paper's node-shuffling primitive
// (section 3.1): a cluster C exchanges each of its nodes with a node chosen
// uniformly at random from the whole network. For every member x of C, a
// partner cluster C' is selected with probability |C'|/n via the biased
// CTRW (randCl); C' picks one of its members uniformly via randNum and the
// two nodes swap clusters. Shuffling is what prevents the adversary from
// gradually polluting a single cluster through join-leave churn (section
// 3.3), and Lemmas 1-3 analyze exactly this process.
//
// Costs follow the paper's accounting: each swap pays its walk, the
// membership installation messages for both moved nodes, and composition
// updates to every cluster adjacent to C and C' (a node accepts a message
// from a neighboring cluster only when more than half of that cluster's
// members send it, so composition must be propagated eagerly). Messages
// add over the swaps; rounds do not. An exchange's walks run in parallel,
// so Run charges the rounds of its longest walk and partner draw, plus two
// rounds for its simultaneous swaps (metrics.Section); a grouped cascade
// round likewise charges one receiver's draws plus two rounds.
package exchange

import (
	"fmt"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// World is the mutable view of the cluster partition the shuffle needs; the
// NOW world implements it. It extends the walk topology with membership
// access, the neighbour mass the charges read and the swap itself.
type World interface {
	walk.Topology
	// MemberAt returns the i-th member of c, 0 <= i < Size(c).
	MemberAt(c ids.ClusterID, i int) ids.NodeID
	// NeighborMass returns the number of nodes in c's overlay neighbours,
	// the sum of Size(d) over every d in Adjacent(c).
	NeighborMass(c ids.ClusterID) int64
	// Swap trades x, a member of a, with the member at index j of b, with
	// all membership bookkeeping. x's slot in a takes a's last member, the
	// partner takes a's last slot, and x takes the partner's slot in b.
	Swap(a ids.ClusterID, x ids.NodeID, b ids.ClusterID, j int) error
}

// Report summarizes one exchange operation.
type Report struct {
	Swaps int // completed swaps with a distinct partner cluster
	// SelfSwaps counts swap slots that produced no movement: in Run,
	// walks that ended at C itself; in CascadeRound, receivers with an
	// empty partner pool (no walk was spent).
	SelfSwaps int
	Hops      int // total walk hops across all swaps
	Hijacked  int // walks redirected by the adversary
	// Receivers lists the distinct partner clusters that received a node
	// from C; the leave operation cascades an exchange onto each. The
	// slice aliases a scratch buffer owned by the Exchanger: it is valid
	// until the next Run (resp. CascadeRound) call on the same Exchanger;
	// callers that retain it across calls must copy it first.
	Receivers []ids.ClusterID
	// WorstSecurity is the weakest randnum security observed.
	WorstSecurity randnum.Security
}

// Exchanger runs exchange operations. It is not safe for concurrent use:
// the scratch buffers below make steady-state exchanges allocation-free.
type Exchanger struct {
	world  World
	walker *walk.Walker
	gen    randnum.Generator

	// Reused scratch: the member snapshot of Run's target, Run's receiver
	// accumulator, CascadeRound's receiver accumulator (distinct from
	// Run's, because a cascade round consumes the primary Run's receiver
	// list while building its own) and the cascade round's live list.
	members     []ids.NodeID
	runRecv     []ids.ClusterID
	cascadeRecv []ids.ClusterID
	pool        []ids.ClusterID
}

// New returns an Exchanger bound to the world.
func New(world World, walker *walk.Walker, gen randnum.Generator) (*Exchanger, error) {
	if world == nil || walker == nil || gen == nil {
		return nil, fmt.Errorf("exchange: nil dependency")
	}
	return &Exchanger{world: world, walker: walker, gen: gen}, nil
}

// containsCluster reports membership by linear scan; receiver lists are
// O(cluster size) = O(polylog n), where the scan beats a map and
// allocates nothing.
func containsCluster(xs []ids.ClusterID, c ids.ClusterID) bool {
	for _, x := range xs {
		if x == c {
			return true
		}
	}
	return false
}

// Run shuffles every node of c per the protocol and returns the report.
// The report's Receivers slice is valid until the next Run call.
//
// Rounds are a critical path. Section 3.1 bounds one randCl walk by
// O(log^5 N) messages and O(log^4 N) rounds, and a full exchange of C by
// O(log^6 N) messages and the same O(log^4 N) rounds (the round analysis
// of the long version, On Dynamic Distributed Computing, arXiv 1202.3084,
// counts them the same way): the |C| walks and their partner draws run in
// parallel, so their messages add and their rounds do not. Run charges
// each member's walk plus its partner draw as one branch of a concurrent
// section of the ledger, so the section adds the longest branch's rounds,
// then charges the swaps' two rounds once, if any swap happened: the swaps
// are simultaneous, as in CascadeRound. Every exit, error returns
// included, closes the section.
func (e *Exchanger) Run(led *metrics.Ledger, r *xrand.Rand, c ids.ClusterID) (Report, error) {
	rep := Report{Receivers: e.runRecv[:0]}
	// Snapshot: the protocol exchanges the nodes that are members when the
	// operation starts; replacement nodes arriving mid-operation are not
	// re-exchanged.
	e.members = e.members[:0]
	for i, n := 0, e.world.Size(c); i < n; i++ {
		e.members = append(e.members, e.world.MemberAt(c, i))
	}
	// A swap moves one node each way between c and its partner, so no
	// cluster's size and no overlay edge changes during Run: c's size and
	// neighbour mass hold for every swap's charge.
	cs, cm := int64(len(e.members)), e.world.NeighborMass(c)
	sec := led.BeginConcurrent()
	for _, x := range e.members {
		err := e.shuffle(led, r, c, x, cs, cm, &rep)
		led.EndBranch(&sec)
		if err != nil {
			led.EndConcurrent(sec)
			return rep, err
		}
	}
	led.EndConcurrent(sec)
	if rep.Swaps > 0 {
		led.AddRounds(2) // the swaps are simultaneous
	}
	e.runRecv = rep.Receivers[:0]
	return rep, nil
}

// shuffle is one branch of Run: x's walk from c, the partner's draw of the
// replacement and the swap, with its messages. c has cs members and
// neighbour mass cm.
func (e *Exchanger) shuffle(led *metrics.Ledger, r *xrand.Rand, c ids.ClusterID, x ids.NodeID, cs, cm int64, rep *Report) error {
	out, err := e.walker.Biased(led, r, c)
	if err != nil {
		return fmt.Errorf("exchange: walk from %v: %w", c, err)
	}
	rep.Hops += out.Hops
	if out.Hijacked {
		rep.Hijacked++
	}
	if out.WorstSecurity > rep.WorstSecurity {
		rep.WorstSecurity = out.WorstSecurity
	}
	partner := out.End
	if partner == c {
		rep.SelfSwaps++
		return nil
	}
	// C' picks the replacement node uniformly via randNum.
	psize := e.world.Size(partner)
	idx, sec, err := e.gen.Draw(led, r, randnum.Params{
		Size: psize,
		Byz:  e.world.Byz(partner),
		R:    int64(psize),
	}, nil)
	if err != nil {
		return fmt.Errorf("exchange: partner draw at %v: %w", partner, err)
	}
	if sec > rep.WorstSecurity {
		rep.WorstSecurity = sec
	}
	if err := e.world.Swap(c, x, partner, int(idx)); err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	chargeSwap(led, metrics.ClassExchange, cs, cm, int64(psize), e.world.NeighborMass(partner))
	rep.Swaps++
	if !containsCluster(rep.Receivers, partner) {
		rep.Receivers = append(rep.Receivers, partner)
	}
	return nil
}

// CascadeRound runs the leave cascade as ONE grouped shuffle round over
// the receiver set, instead of one full exchange per receiver: every
// receiver agrees (randNum) on one of its own members to re-export and on
// a partner drawn uniformly from the round's own pool — the other
// receivers plus the leave's source cluster — whose agreed member swaps
// back. All draws come from the one provided rng substream in receiver
// order, so the round is a deterministic function of (state, source,
// receivers, stream). The receivers must be distinct and must not include
// the source, as the receivers of the source's Run are.
//
// This is the diffusion-style amortization of Algorithm 2's cascade. The
// pool is itself a fresh uniform sample: each receiver was selected by an
// independent biased CTRW of the source's exchange moments earlier, so a
// uniform draw over the pool composes two uniform draws and the re-export
// still lands ~uniformly over the network — while the adversary's
// knowledge of which receiver holds which exported node is destroyed,
// which is what the Theorem 3 proof step needs the cascade for. What the
// grouping buys: the per-leave write footprint shrinks from ~|C|^2
// clusters (every receiver exchanging ALL its nodes network-wide) to ~|C|
// (the round's writes stay INSIDE the set the primary exchange already
// wrote), and no fresh walks are spent. Swap traffic is charged to
// metrics.ClassCascade so cascade cost stays separable from
// primary-exchange cost.
//
// Rounds are a critical path, as in Run: the receivers act
// simultaneously, like the simultaneous operations of one paper time step
// (section 3.1's round count; the round analysis of the long version, On
// Dynamic Distributed Computing, arXiv 1202.3084). Each live receiver's
// three randNum draws (partner pick, member pick, the partner's
// replacement) and its swap are one branch of a concurrent section of the
// ledger, so the round adds one receiver's draw rounds, not k receivers';
// its swaps are simultaneous too, so their two rounds are charged once
// after the section, if any swap happened. Messages add over the
// receivers. Every exit, error returns included, closes the section.
//
// The returned Report's Receivers lists the partner clusters of the round
// (callers must NOT cascade onto them again — the round IS the cascade);
// the slice is valid until the next CascadeRound call.
func (e *Exchanger) CascadeRound(led *metrics.Ledger, r *xrand.Rand, source ids.ClusterID, receivers []ids.ClusterID) (Report, error) {
	rep := Report{Receivers: e.cascadeRecv[:0]}
	// The round's live list: the source if it is live, then the live
	// receivers in round order (deterministic at any shard count; a
	// receiver may have dissolved between exchange and cascade). A round's
	// swaps are one-for-one, so no size changes inside it, and receivers
	// are distinct and never the source, so receiver live[self]'s swap
	// pool, the source plus every OTHER live receiver, is the list
	// without that entry.
	live := e.pool[:0]
	if e.world.Size(source) > 0 {
		live = append(live, source)
	}
	first := len(live)
	for _, rc := range receivers {
		if e.world.Size(rc) > 0 {
			live = append(live, rc)
		}
	}
	e.pool = live[:0]
	sec := led.BeginConcurrent()
	for self := first; self < len(live); self++ {
		err := e.cascadeSwap(led, r, live, self, &rep)
		led.EndBranch(&sec)
		if err != nil {
			led.EndConcurrent(sec)
			return rep, err
		}
	}
	led.EndConcurrent(sec)
	if rep.Swaps > 0 {
		led.AddRounds(2) // one grouped round: swaps are simultaneous
	}
	e.cascadeRecv = rep.Receivers[:0]
	return rep, nil
}

// cascadeSwap is one branch of CascadeRound: receiver live[self]'s three
// draws (partner pick, member pick, the partner's replacement) and its
// swap, with its messages.
func (e *Exchanger) cascadeSwap(led *metrics.Ledger, r *xrand.Rand, live []ids.ClusterID, self int, rep *Report) error {
	rc := live[self]
	if len(live) == 1 {
		rep.SelfSwaps++ // lone receiver of its own source: nothing to mix with
		return nil
	}
	// Nothing moves before this receiver's swap, so its size and
	// Byzantine count hold for both of its draws.
	size := e.world.Size(rc)
	// The receiver agrees on the partner and on which member to
	// re-export; the partner agrees on the replacement, as in Run.
	byz := e.world.Byz(rc)
	pick, sec, err := e.gen.Draw(led, r, randnum.Params{
		Size: size,
		Byz:  byz,
		R:    int64(len(live) - 1),
	}, nil)
	if err != nil {
		return fmt.Errorf("exchange: cascade partner pick at %v: %w", rc, err)
	}
	if sec > rep.WorstSecurity {
		rep.WorstSecurity = sec
	}
	p := int(pick)
	if p >= self {
		p++ // skip rc's own entry
	}
	partner := live[p]
	idx, sec, err := e.gen.Draw(led, r, randnum.Params{
		Size: size,
		Byz:  byz,
		R:    int64(size),
	}, nil)
	if err != nil {
		return fmt.Errorf("exchange: cascade draw at %v: %w", rc, err)
	}
	if sec > rep.WorstSecurity {
		rep.WorstSecurity = sec
	}
	x := e.world.MemberAt(rc, int(idx))
	psize := e.world.Size(partner)
	pidx, psec, err := e.gen.Draw(led, r, randnum.Params{
		Size: psize,
		Byz:  e.world.Byz(partner),
		R:    int64(psize),
	}, nil)
	if err != nil {
		return fmt.Errorf("exchange: cascade partner draw at %v: %w", partner, err)
	}
	if psec > rep.WorstSecurity {
		rep.WorstSecurity = psec
	}
	if err := e.world.Swap(rc, x, partner, int(pidx)); err != nil {
		return fmt.Errorf("exchange: cascade: %w", err)
	}
	chargeSwap(led, metrics.ClassCascade, int64(size), e.world.NeighborMass(rc),
		int64(psize), e.world.NeighborMass(partner))
	rep.Swaps++
	if !containsCluster(rep.Receivers, partner) {
		rep.Receivers = append(rep.Receivers, partner)
	}
	return nil
}

// chargeSwap applies the per-swap cost model to a swap between a cluster
// of cs nodes whose neighbours hold cm nodes (its neighbour mass) and a
// partner of ps nodes with neighbour mass pm: installation state for the
// two moved nodes (each learns its new cluster's membership and the
// membership of every adjacent cluster), charged to class, plus
// composition updates to all neighbours of both clusters. A swap's rounds
// are the caller's: two per Run and two per grouped cascade round, each
// charged once because its swaps are simultaneous.
func chargeSwap(led *metrics.Ledger, class metrics.Class, cs, cm, ps, pm int64) {
	// Each moved node learns its new cluster and every node adjacent to it.
	led.Charge(class, cs+ps+cm+pm)
	// Composition updates: every node of every neighbour D of C learns C's
	// new composition, the sum over D of |C|*|D| = |C| * NeighborMass(C).
	led.Charge(metrics.ClassInterCluster, cs*cm+ps*pm)
}
