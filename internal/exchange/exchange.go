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
// members send it, so composition must be propagated eagerly).
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
// access and the transfer operation.
type World interface {
	walk.Topology
	// MemberAt returns the i-th member of c, 0 <= i < Size(c).
	MemberAt(c ids.ClusterID, i int) ids.NodeID
	// Members returns a snapshot copy of c's member list.
	Members(c ids.ClusterID) []ids.NodeID
	// Transfer moves node x from cluster `from` to cluster `to`, updating
	// all membership bookkeeping.
	Transfer(x ids.NodeID, from, to ids.ClusterID) error
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
	// list while building its own) and the cascade's per-receiver partner
	// pool.
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
func (e *Exchanger) Run(led *metrics.Ledger, r *xrand.Rand, c ids.ClusterID) (Report, error) {
	rep := Report{Receivers: e.runRecv[:0]}
	// Snapshot: the protocol exchanges the nodes that are members when the
	// operation starts; replacement nodes arriving mid-operation are not
	// re-exchanged.
	e.members = e.members[:0]
	for i, n := 0, e.world.Size(c); i < n; i++ {
		e.members = append(e.members, e.world.MemberAt(c, i))
	}
	members := e.members
	// A swap moves one node each way between c and its partner, so no
	// cluster's size and no overlay edge changes during Run: c's size and
	// neighbour mass hold for every swap's charge.
	cs, cm := int64(len(members)), walk.NeighborMass(e.world, c)
	for _, x := range members {
		out, err := e.walker.Biased(led, r, c)
		if err != nil {
			return rep, fmt.Errorf("exchange: walk from %v: %w", c, err)
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
			continue
		}
		// C' picks the replacement node uniformly via randNum.
		psize := e.world.Size(partner)
		idx, sec, err := e.gen.Draw(led, r, randnum.Params{
			Size: psize,
			Byz:  e.world.Byz(partner),
			R:    int64(psize),
		}, nil)
		if err != nil {
			return rep, fmt.Errorf("exchange: partner draw at %v: %w", partner, err)
		}
		if sec > rep.WorstSecurity {
			rep.WorstSecurity = sec
		}
		y := e.world.MemberAt(partner, int(idx))
		if err := e.world.Transfer(x, c, partner); err != nil {
			return rep, fmt.Errorf("exchange: %w", err)
		}
		if err := e.world.Transfer(y, partner, c); err != nil {
			return rep, fmt.Errorf("exchange: %w", err)
		}
		chargeSwap(led, metrics.ClassExchange, cs, cm, int64(psize), walk.NeighborMass(e.world, partner))
		led.AddRounds(2)
		rep.Swaps++
		if !containsCluster(rep.Receivers, partner) {
			rep.Receivers = append(rep.Receivers, partner)
		}
	}
	e.runRecv = rep.Receivers[:0]
	return rep, nil
}

// CascadeRound runs the leave cascade as ONE grouped shuffle round over
// the receiver set, instead of one full exchange per receiver: every
// receiver agrees (randNum) on one of its own members to re-export and on
// a partner drawn uniformly from the round's own pool — the other
// receivers plus the leave's source cluster — whose agreed member swaps
// back. All draws come from the one provided rng substream in receiver
// order, so the round is a deterministic function of (state, source,
// receivers, stream).
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
// wrote), no fresh walks are spent, and the round costs two communication
// rounds total rather than two per swap — the swaps are simultaneous,
// exactly like the simultaneous operations of one paper time step. Swap
// traffic is charged to metrics.ClassCascade so cascade cost stays
// separable from primary-exchange cost.
//
// The returned Report's Receivers lists the partner clusters of the round
// (callers must NOT cascade onto them again — the round IS the cascade);
// the slice is valid until the next CascadeRound call.
func (e *Exchanger) CascadeRound(led *metrics.Ledger, r *xrand.Rand, source ids.ClusterID, receivers []ids.ClusterID) (Report, error) {
	rep := Report{Receivers: e.cascadeRecv[:0]}
	for i, rc := range receivers {
		// Nothing moves before this receiver's swap, so its size and
		// Byzantine count hold for both of its draws.
		size := e.world.Size(rc)
		if size == 0 {
			continue // receiver dissolved between exchange and cascade
		}
		// The swap pool: the source plus every OTHER live receiver, in
		// round order (deterministic at any shard count).
		pool := e.pool[:0]
		if e.world.Size(source) > 0 && source != rc {
			pool = append(pool, source)
		}
		for j, other := range receivers {
			if j != i && other != rc && e.world.Size(other) > 0 {
				pool = append(pool, other)
			}
		}
		e.pool = pool[:0]
		if len(pool) == 0 {
			rep.SelfSwaps++ // lone receiver of its own source: nothing to mix with
			continue
		}
		// The receiver agrees on the partner and on which member to
		// re-export; the partner agrees on the replacement, as in Run.
		byz := e.world.Byz(rc)
		pick, sec, err := e.gen.Draw(led, r, randnum.Params{
			Size: size,
			Byz:  byz,
			R:    int64(len(pool)),
		}, nil)
		if err != nil {
			return rep, fmt.Errorf("exchange: cascade partner pick at %v: %w", rc, err)
		}
		if sec > rep.WorstSecurity {
			rep.WorstSecurity = sec
		}
		partner := pool[int(pick)]
		idx, sec, err := e.gen.Draw(led, r, randnum.Params{
			Size: size,
			Byz:  byz,
			R:    int64(size),
		}, nil)
		if err != nil {
			return rep, fmt.Errorf("exchange: cascade draw at %v: %w", rc, err)
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
			return rep, fmt.Errorf("exchange: cascade partner draw at %v: %w", partner, err)
		}
		if psec > rep.WorstSecurity {
			rep.WorstSecurity = psec
		}
		y := e.world.MemberAt(partner, int(pidx))
		if err := e.world.Transfer(x, rc, partner); err != nil {
			return rep, fmt.Errorf("exchange: cascade: %w", err)
		}
		if err := e.world.Transfer(y, partner, rc); err != nil {
			return rep, fmt.Errorf("exchange: cascade: %w", err)
		}
		chargeSwap(led, metrics.ClassCascade, int64(size), walk.NeighborMass(e.world, rc),
			int64(psize), walk.NeighborMass(e.world, partner))
		rep.Swaps++
		if !containsCluster(rep.Receivers, partner) {
			rep.Receivers = append(rep.Receivers, partner)
		}
	}
	if rep.Swaps > 0 {
		led.AddRounds(2) // one grouped round: swaps are simultaneous
	}
	e.cascadeRecv = rep.Receivers[:0]
	return rep, nil
}

// chargeSwap applies the per-swap cost model to a swap between a cluster
// of cs nodes whose neighbours hold cm nodes (its neighbour mass) and a
// partner of ps nodes with neighbour mass pm: installation state for the
// two moved nodes (each learns its new cluster's membership and the
// membership of every adjacent cluster), charged to class, plus
// composition updates to all neighbours of both clusters. A swap's rounds
// are the caller's: two per swap in Run, two per grouped cascade round.
func chargeSwap(led *metrics.Ledger, class metrics.Class, cs, cm, ps, pm int64) {
	// Each moved node learns its new cluster and every node adjacent to it.
	led.Charge(class, cs+ps+cm+pm)
	// Composition updates: every node of every neighbour D of C learns C's
	// new composition, the sum over D of |C|*|D| = |C| * NeighborMass(C).
	led.Charge(metrics.ClassInterCluster, cs*cm+ps*pm)
}
