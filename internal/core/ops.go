package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
)

// ConstructionRevision numbers the ways Bootstrap has built a world from a
// seed. A change that gives some seed a different initial world bumps it,
// so that results recorded from the old worlds are not mixed with new ones
// (checkpoint journals are bound to it). Revision 1 draws the overlay by
// geometric skips; revision 0, which journals that record no revision
// were written with, flipped one coin per cluster pair.
const ConstructionRevision = 1

// Bootstrap runs the initialization phase (paper section 3.2) at size n0:
// network discovery, Byzantine-agreement clusterization by a representative
// cluster, the random partition into clusters of K*log2(N) nodes, and the
// Erdos-Renyi overlay. corrupt decides which of the n0 initial node slots
// the adversary controls (the paper's adversary corrupts its tau fraction
// before the protocol starts).
//
// Discovery and agreement costs are charged analytically here (the paper's
// O(n*e) and O~(n^{3/2}) bounds); experiment E9 runs the message-accurate
// discovery implementation separately.
func (w *World) Bootstrap(n0 int, corrupt func(slot int) bool) error {
	if w.bootstrapped {
		return fmt.Errorf("core: world already bootstrapped")
	}
	target := w.cfg.TargetClusterSize()
	if n0 < 2*target {
		return fmt.Errorf("core: n0=%d below two clusters of %d", n0, target)
	}
	if n0 > w.cfg.N {
		return fmt.Errorf("core: n0=%d exceeds N=%d", n0, w.cfg.N)
	}

	// Initialization cost model: flooding discovery on a polylog-degree
	// initial graph (e = n*log2(n)/2 edges), then clusterization via an
	// off-the-shelf Byzantine agreement at O~(n^{3/2}).
	fn := float64(n0)
	l2 := math.Log2(fn)
	w.led.Charge(metrics.ClassDiscovery, int64(fn*fn*l2/2))
	w.led.AddRounds(int64(math.Ceil(l2)))
	w.led.Charge(metrics.ClassAgreement, int64(fn*math.Sqrt(fn)*l2))
	w.led.AddRounds(int64(math.Ceil(l2 * l2)))

	// Random partition by the representative cluster: a random ordering,
	// cut into consecutive chunks of the target size, an undersized tail
	// folded into the last chunk. The ordering is the permutation
	// math/rand/v2's Perm draws (make, then this Shuffle), held at half
	// Perm's width. The node and cluster tables are sized to the n0
	// seeded nodes and their clusters once (churn grows them from there),
	// not grown node by node; the Byzantine index, byzPos (over IDs in
	// [0, n0)) and its bitset get a quarter more, so the first Byzantine
	// joins do not reallocate them. The chunks' member arrays are carved
	// from one arena, each at least at the capacity appending its members
	// one by one would reach (memberCap), so no join reallocates one
	// sooner than that.
	slots := make([]int32, n0)
	for i := range slots {
		slots[i] = int32(i)
	}
	w.rng.Shuffle(n0, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	byz := make([]bool, n0)
	nByz := 0
	for i := range byz {
		byz[i] = corrupt != nil && corrupt(i)
		nByz += byzCount(byz[i])
	}
	bounds := make([]int, 1, n0/target+2)
	for end := target; end < n0; end += target {
		if min(target, n0-end) < w.cfg.MergeThreshold() {
			break
		}
		bounds = append(bounds, end)
	}
	bounds = append(bounds, n0)
	chunks := len(bounds) - 1
	w.nodes = slices.Grow(w.nodes, n0)
	w.allNodes = slices.Grow(w.allNodes, n0)
	w.byzNodes = slices.Grow(w.byzNodes, nByz+nByz/4)
	w.byzPos = slices.Grow(w.byzPos, n0+n0/4)
	w.byzBits = slices.Grow(w.byzBits, (n0+n0/4)>>6+1)
	w.clusters = slices.Grow(w.clusters, chunks)
	w.rows = slices.Grow(w.rows, chunks)
	w.settleQueue = slices.Grow(w.settleQueue, chunks)
	total := 0
	for i := 1; i < len(bounds); i++ {
		total += memberCap(bounds[i] - bounds[i-1])
	}
	arena := make([]ids.NodeID, total)
	clusterIDs := make([]ids.ClusterID, 0, chunks)
	for i := 1; i < len(bounds); i++ {
		c := w.clAlloc.NextCluster()
		w.putCluster(c)
		clusterIDs = append(clusterIDs, c)
		cs := &w.clusters[c]
		m := memberCap(bounds[i] - bounds[i-1])
		cs.members, arena = arena[:0:m], arena[m:]
		for _, slot := range slots[bounds[i-1]:bounds[i]] {
			x := w.nodeAlloc.NextNode()
			cs.add(x)
			w.registerNode(x, byz[slot], c)
		}
	}

	// Overlay: Erdos-Renyi at the density giving the OVER target degree.
	p := 1.0
	if len(clusterIDs) > 1 {
		p = float64(w.cfg.TargetDegree()) / float64(len(clusterIDs)-1)
		if p > 1 {
			p = 1
		}
	}
	if _, err := w.overlay.Bootstrap(w.rng.Split(0xB007), clusterIDs, p); err != nil {
		return err
	}

	// Each cluster's composition is published once, whole, from its
	// member list: its row, class, size in the multiset and overlay weight
	// (the edges are drawn, so the weight moves its neighbours' masses)
	// and its place in the settle queue.
	for _, c := range clusterIDs {
		members := w.clusters[c].members
		nb := 0
		for _, x := range members {
			nb += byzCount(w.IsByzantine(x))
		}
		if err := w.recompose(c, len(members), nb); err != nil {
			return err
		}
	}

	// The representative cluster tells each node its cluster, the cluster
	// members, and the composition of adjacent clusters.
	for _, c := range clusterIDs {
		size := int64(w.Size(c))
		w.led.Charge(metrics.ClassInterCluster, size*(size-1))
	}
	for _, c := range clusterIDs {
		w.led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*w.NeighborMass(c))
	}
	w.led.AddRounds(2)
	w.bootstrapped = true
	w.settleSecurity()
	return nil
}

// memberCap is the next power of two at or above size: the capacity
// appending size members one by one to an empty slice reaches up to 512
// members, and more than it beyond.
func memberCap(size int) int { return 1 << bits.Len(uint(size-1)) }

// JoinAuto performs a Join whose contact cluster is chosen uniformly — the
// honest arrival case.
func (w *World) JoinAuto(byz bool) (ids.NodeID, error) {
	contact, ok := w.RandomCluster(w.rng)
	if !ok {
		return 0, fmt.Errorf("core: no clusters to contact")
	}
	return w.Join(byz, contact)
}

// Join executes the paper's Join operation (Algorithm 1 + section 3.3): the
// new node contacts `contact`, randCl picks the insertion cluster, the
// cluster inserts the node and exchanges all of its nodes, splitting if it
// exceeded the threshold. Returns the new node's ID.
func (w *World) Join(byz bool, contact ids.ClusterID) (ids.NodeID, error) {
	x := w.nodeAlloc.NextNode()
	if err := w.settled(w.joinExisting(x, byz, contact)); err != nil {
		return 0, err
	}
	return x, nil
}

// settled settles security after a one-op API call whose internal op
// returned err, when err is nil, and passes err through. ExecBatch runs
// the same internal ops unsettled and settles once per batch.
func (w *World) settled(err error) error {
	if err == nil {
		w.settleSecurity()
	}
	return err
}

// joinExisting inserts a specific node identity (fresh or rejoining).
func (w *World) joinExisting(x ids.NodeID, byz bool, contact ids.ClusterID) error {
	if !w.bootstrapped {
		return fmt.Errorf("core: join before bootstrap")
	}
	if w.Contains(x) {
		return fmt.Errorf("core: node %v already present", x)
	}
	if !w.hasCluster(contact) {
		return fmt.Errorf("core: join contact %v is not a cluster: %w", contact, ErrUnknownCluster)
	}
	out, err := w.walker.Biased(w.led, w.rng, contact)
	if err != nil {
		return fmt.Errorf("core: join walk: %w", err)
	}
	if out.Hijacked {
		w.stats.HijackedWalks++
	}
	target := out.End
	if err := w.insertMember(target, x, byz); err != nil {
		return err
	}
	w.registerNode(x, byz, target)
	w.chargeInsertion(target)

	if w.cfg.Shuffle != ShuffleOff {
		rep, err := w.exch.Run(w.led, w.rng, target)
		if err != nil {
			return fmt.Errorf("core: join exchange: %w", err)
		}
		w.stats.HijackedWalks += int64(rep.Hijacked)
	}
	if w.Size(target) > w.cfg.SplitThreshold() {
		if err := w.split(target); err != nil {
			return fmt.Errorf("core: join split: %w", err)
		}
	}
	w.stats.Joins++
	return nil
}

// chargeInsertion charges the cost of installing one node into cluster c:
// the cluster's members update their views, adjacent clusters are informed,
// and the node downloads its cluster and neighborhood composition.
func (w *World) chargeInsertion(c ids.ClusterID) {
	size := int64(w.Size(c))
	w.led.Charge(metrics.ClassIntraCluster, size-1)
	nbr := w.NeighborMass(c)
	w.led.Charge(metrics.ClassInterCluster, size*nbr+size+nbr)
	w.led.AddRounds(2)
}

// chargeDeparture charges the cost of detecting one departure from c and
// cleaning up views: the remaining members all notice, and every adjacent
// cluster is told the new composition. Call BEFORE removing the node.
func (w *World) chargeDeparture(c ids.ClusterID) {
	size := int64(w.Size(c))
	w.led.Charge(metrics.ClassIntraCluster, size-1)
	w.led.Charge(metrics.ClassInterCluster, (size-1)*w.NeighborMass(c))
	w.led.AddRounds(2)
}

// Leave executes the paper's Leave operation (Algorithm 2): the cluster
// detects the departure, exchanges all its nodes, cascades onto the
// clusters that received one of them as Config.Shuffle says (by default
// one grouped shuffle round over the whole receiver set — see
// exchange.CascadeRound), and merges if it fell below the threshold.
func (w *World) Leave(x ids.NodeID) error {
	return w.settled(w.leaveWith(x))
}

func (w *World) leaveWith(x ids.NodeID) error {
	if !w.bootstrapped {
		return fmt.Errorf("core: leave before bootstrap")
	}
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: leave of node %v: %w", x, ErrUnknownNode)
	}
	c := info.cluster
	w.chargeDeparture(c)

	if err := w.removeMember(c, x, w.IsByzantine(x)); err != nil {
		return err
	}
	w.unregisterNode(x)

	if w.Size(c) == 0 {
		// Pathological: cluster emptied (only possible with tiny
		// configurations); retire it from the overlay.
		w.removeClusterVertex(c)
		w.stats.Leaves++
		return nil
	}

	if w.cfg.Shuffle != ShuffleOff {
		rep, err := w.exch.Run(w.led, w.rng, c)
		if err != nil {
			return fmt.Errorf("core: leave exchange: %w", err)
		}
		w.stats.HijackedWalks += int64(rep.Hijacked)
		hijacked, err := w.runLeaveCascade(c, rep.Receivers)
		if err != nil {
			return err
		}
		w.stats.HijackedWalks += hijacked
	}
	if w.Size(c) < w.cfg.MergeThreshold() {
		if err := w.merge(c); err != nil {
			return fmt.Errorf("core: leave merge: %w", err)
		}
	}
	w.stats.Leaves++
	return nil
}

// runLeaveCascade executes the configured cascade flavor over the primary
// leave exchange's receivers: none under ShuffleNoCascade, Algorithm 2's
// full exchange per receiver under ShufflePerReceiver, or — under
// ShuffleGrouped — one grouped shuffle round over the whole set
// (exchange.CascadeRound: the round's swaps stay inside {source} ∪
// receivers, so a leave writes ~|C| clusters instead of ~|C|^2). Either
// way the receivers act concurrently, so the cascade's rounds are its
// longest receiver's, not their sum (section 3.1's round count, as for an
// exchange's walks). For the per-receiver flavour this is a modelling
// assumption: no receiver's exchange needs another's output, but each
// draws from memberships the earlier ones rewrote, and the simulator
// applies them in order (EXPERIMENTS.md, "Second slice").
// Returns the hijacked-walk count to fold into stats.
func (w *World) runLeaveCascade(c ids.ClusterID, receivers []ids.ClusterID) (int64, error) {
	switch w.cfg.Shuffle {
	case ShuffleNoCascade:
		return 0, nil
	case ShuffleGrouped:
		// CascadeRound reads the receiver list (which aliases the
		// exchanger's Run scratch) but only writes its own separate
		// cascade scratch, so no copy is needed.
		rep, err := w.exch.CascadeRound(w.led, w.rng, c, receivers)
		if err != nil {
			return 0, fmt.Errorf("core: leave cascade round: %w", err)
		}
		return int64(rep.Hijacked), nil
	}
	// The per-receiver cascade re-enters exch.Run, which recycles the very
	// scratch buffer the receiver list aliases — detach it first. One small
	// allocation per leave, on the legacy (non-grouped) flavor only.
	receivers = append([]ids.ClusterID(nil), receivers...)
	// The receivers' exchanges run concurrently, so each is one branch of
	// a section and the cascade adds the longest exchange's rounds; each
	// Run's own section nests inside its branch.
	var hijacked int64
	sec := w.led.BeginConcurrent()
	for _, recv := range receivers {
		if w.Size(recv) == 0 {
			continue // receiver dissolved (clusters are never empty)
		}
		rep, err := w.exch.Run(w.led, w.rng, recv)
		w.led.EndBranch(&sec)
		if err != nil {
			w.led.EndConcurrent(sec)
			return hijacked, fmt.Errorf("core: leave cascade exchange: %w", err)
		}
		hijacked += int64(rep.Hijacked)
	}
	w.led.EndConcurrent(sec)
	return hijacked, nil
}

// ForceExchange runs the exchange primitive on a cluster outside the
// join/leave flow. The paper invokes exchange only from maintenance
// operations, but the primitive is well-defined on its own; experiments
// use it to measure Lemma 1-3 dynamics (post-exchange composition, drift,
// recovery) and its isolated cost (paper section 3.1).
func (w *World) ForceExchange(c ids.ClusterID) error {
	return w.settled(w.forceExchangeWith(c))
}

func (w *World) forceExchangeWith(c ids.ClusterID) error {
	if !w.hasCluster(c) {
		return fmt.Errorf("core: exchange on cluster %v: %w", c, ErrUnknownCluster)
	}
	rep, err := w.exch.Run(w.led, w.rng, c)
	if err != nil {
		return err
	}
	w.stats.HijackedWalks += int64(rep.Hijacked)
	return nil
}

// SetCorrupted flips a node's allegiance. The paper's adversary is static
// (it corrupts only at start and at join time); this hook exists so
// experiments can construct the *concentrated* corruption states whose
// decay Lemmas 2-3 analyze, without replaying the join-leave sequences
// that would produce them. It keeps every invariant index consistent.
func (w *World) SetCorrupted(x ids.NodeID, corrupted bool) error {
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: node %v: %w", x, ErrUnknownNode)
	}
	if w.IsByzantine(x) == corrupted {
		return nil
	}
	d := -1
	if corrupted {
		d = 1
	}
	if err := w.recompose(info.cluster, 0, d); err != nil {
		return err
	}
	if corrupted {
		w.markByz(x)
	} else {
		w.unmarkByz(x)
	}
	w.settleSecurity()
	return nil
}

// split bipartitions an oversized cluster (section 3.3): a random half
// stays under the old identity (keeping its overlay edges), the other half
// becomes a fresh overlay vertex wired by OVER's Add.
func (w *World) split(c ids.ClusterID) error {
	members := w.Members(c)
	// The partition is generated collectively: one randNum instance seeds
	// the permutation.
	if _, _, err := w.cfg.Generator.Draw(w.led, w.rng, randnum.Params{
		Size: len(members), Byz: w.Byz(c), R: 1 << 30,
	}, nil); err != nil {
		return err
	}
	w.rng.Shuffle(len(members), func(i, j int) {
		members[i], members[j] = members[j], members[i]
	})
	keep := (len(members) + 1) / 2

	c2 := w.clAlloc.NextCluster()
	w.putCluster(c2)
	for _, x := range members[keep:] {
		if err := w.moveNode(x, c, c2); err != nil {
			return err
		}
	}

	// OVER Add: wire the new vertex via uniform CTRWs started at the
	// sibling (the only vertex the new cluster is guaranteed to know).
	budget := w.cfg.TargetDegree() * w.cfg.EdgeAttemptFactor
	added, err := w.overlay.Add(w.led, c2, w.uniformPickerFrom(c), budget)
	if err != nil {
		return err
	}
	_ = added

	// Costs: neighbors of the old cluster learn the replacement; each new
	// edge of c2 is a full bipartite introduction.
	w.led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*w.NeighborMass(c))
	w.led.Charge(metrics.ClassInterCluster, int64(w.Size(c2))*w.NeighborMass(c2))
	w.led.AddRounds(2)
	w.stats.Splits++
	return nil
}

// merge handles an undersized cluster per the configured strategy.
func (w *World) merge(c ids.ClusterID) error {
	if w.NumClusters() <= 1 {
		return nil // cannot merge the last cluster
	}
	if w.cfg.MergeStrategy == MergeRejoinAll {
		return w.mergeRejoinAll(c)
	}
	return w.mergeAbsorbRandom(c)
}

// mergeAbsorbRandom: a random cluster C' (chosen by randCl so that OVER's
// random-removal assumption holds) is dissolved into c, then c exchanges
// all its nodes.
func (w *World) mergeAbsorbRandom(c ids.ClusterID) error {
	partner, err := w.randomOtherCluster(c)
	if err != nil {
		return err
	}
	// Announce C' removal to its neighbors.
	w.led.Charge(metrics.ClassInterCluster, int64(w.Size(partner))*w.NeighborMass(partner))

	for _, x := range w.Members(partner) {
		if err := w.moveNode(x, partner, c); err != nil {
			return err
		}
		w.led.Charge(metrics.ClassExchange, int64(w.Size(c)))
	}
	w.removeClusterVertex(partner)
	w.led.AddRounds(2)

	rep, err := w.exch.Run(w.led, w.rng, c)
	if err != nil {
		return err
	}
	w.stats.HijackedWalks += int64(rep.Hijacked)
	w.stats.Merges++
	if w.Size(c) > w.cfg.SplitThreshold() {
		return w.split(c)
	}
	return nil
}

// mergeRejoinAll: the undersized cluster leaves the overlay and its
// members re-join individually on subsequent time steps (Algorithm 2), as
// the OpRejoin ops that pop the world's displaced FIFO.
func (w *World) mergeRejoinAll(c ids.ClusterID) error {
	w.led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*w.NeighborMass(c))
	for _, x := range w.Members(c) {
		byz := w.IsByzantine(x)
		if err := w.removeMember(c, x, byz); err != nil {
			return err
		}
		w.unregisterNode(x)
		w.displaced = append(w.displaced, displacedNode{node: x, byz: byz})
	}
	w.removeClusterVertex(c)
	w.led.AddRounds(2)
	w.stats.Merges++
	return nil
}

// randomOtherCluster picks a random cluster != c via the biased walk,
// falling back to a uniform draw if every restart lands on c.
func (w *World) randomOtherCluster(c ids.ClusterID) (ids.ClusterID, error) {
	out, err := w.walker.Biased(w.led, w.rng, c)
	if err != nil {
		return 0, err
	}
	if out.Hijacked {
		w.stats.HijackedWalks++
	}
	if out.End != c {
		return out.End, nil
	}
	n := w.overlay.NumVertices()
	for {
		cand := w.overlay.VertexAt(w.rng.Intn(n))
		if cand != c {
			return cand, nil
		}
	}
}

// moveNode moves x from one cluster to another with all bookkeeping: the
// member lists, the node record and, through recompose, both compositions.
// It is a split's or a merge's relocation, not a protocol swap, so
// Stats.Swaps does not count it.
func (w *World) moveNode(x ids.NodeID, from, to ids.ClusterID) error {
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: move of unknown node %v", x)
	}
	if info.cluster != from {
		return fmt.Errorf("core: node %v is in %v, not %v", x, info.cluster, from)
	}
	if !w.hasCluster(to) {
		return fmt.Errorf("core: move to unknown cluster %v", to)
	}
	byz := w.IsByzantine(x)
	if err := w.removeMember(from, x, byz); err != nil {
		return err
	}
	if err := w.insertMember(to, x, byz); err != nil {
		return err
	}
	w.nodes[x].cluster = to
	return nil
}

// removeClusterVertex retires c from both the partition bookkeeping and
// the overlay, running OVER's repair pass.
func (w *World) removeClusterVertex(c ids.ClusterID) {
	w.retire(c)
	if w.overlay.Has(c) {
		budget := w.cfg.TargetDegree() * w.cfg.EdgeAttemptFactor
		// Repair walks start from the vertex being repaired.
		_, _ = w.overlay.Remove(w.led, c, w.uniformPickerFromSelf(), budget)
	}
}

// uniformPickerFrom returns an OVER edge-endpoint picker whose walks start
// at the fixed vertex `start` (used when the wired vertex itself has no
// edges yet).
func (w *World) uniformPickerFrom(start ids.ClusterID) func(ids.ClusterID) (ids.ClusterID, bool) {
	return func(ids.ClusterID) (ids.ClusterID, bool) {
		if !w.overlay.Has(start) {
			return 0, false
		}
		out, err := w.walker.Uniform(w.led, w.rng, start)
		if err != nil {
			return 0, false
		}
		if out.Hijacked {
			w.stats.HijackedWalks++
		}
		return out.End, true
	}
}

// uniformPickerFromSelf starts each walk at the vertex being repaired.
func (w *World) uniformPickerFromSelf() func(ids.ClusterID) (ids.ClusterID, bool) {
	return func(from ids.ClusterID) (ids.ClusterID, bool) {
		if !w.overlay.Has(from) {
			return 0, false
		}
		out, err := w.walker.Uniform(w.led, w.rng, from)
		if err != nil {
			return 0, false
		}
		if out.Hijacked {
			w.stats.HijackedWalks++
		}
		return out.End, true
	}
}
