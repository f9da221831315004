package core

import (
	"fmt"
	"math"

	"nowover/internal/exchange"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// The maintenance operations are written against an explicit (ledger, rng)
// pair rather than the world's own, so the op scheduler can replay a
// deferred operation on its per-op derived stream and ledger. The classic
// public API passes (w.led, w.rng, settle=true) and is byte-identical to
// the historical single-stream behavior.

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
	// cut into consecutive chunks of the target size.
	slots := w.rng.Perm(n0)
	byz := make([]bool, n0)
	for i := range byz {
		byz[i] = corrupt != nil && corrupt(i)
	}
	var clusterIDs []ids.ClusterID
	for start := 0; start < n0; start += target {
		end := start + target
		if end > n0 {
			end = n0
		}
		if end-start < w.cfg.MergeThreshold() && len(clusterIDs) > 0 {
			// Fold an undersized tail into the previous cluster.
			prev := clusterIDs[len(clusterIDs)-1]
			for _, slot := range slots[start:end] {
				w.seedNode(prev, byz[slot])
			}
			break
		}
		c := w.clAlloc.NextCluster()
		w.putCluster(c)
		clusterIDs = append(clusterIDs, c)
		for _, slot := range slots[start:end] {
			w.seedNode(c, byz[slot])
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

	// The representative cluster tells each node its cluster, the cluster
	// members, and the composition of adjacent clusters.
	for _, c := range clusterIDs {
		size := int64(w.Size(c))
		w.led.Charge(metrics.ClassInterCluster, size*(size-1))
	}
	for _, c := range clusterIDs {
		w.led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*walk.NeighborMass(w, c))
	}
	w.led.AddRounds(2)
	w.bootstrapped = true
	w.settleSecurity()
	return nil
}

// seedNode creates one initial node in cluster c.
func (w *World) seedNode(c ids.ClusterID, byz bool) {
	x := w.nodeAlloc.NextNode()
	if err := w.insertMember(c, x, byz); err != nil {
		panic(err) // bootstrap seeds only clusters it just created
	}
	w.registerNode(x, byz, c)
}

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
	if err := w.joinExisting(w.led, w.rng, x, byz, contact, true); err != nil {
		return 0, err
	}
	return x, nil
}

// joinExisting inserts a specific node identity (fresh or rejoining).
func (w *World) joinExisting(led *metrics.Ledger, rng *xrand.Rand, x ids.NodeID, byz bool, contact ids.ClusterID, settle bool) error {
	if !w.bootstrapped {
		return fmt.Errorf("core: join before bootstrap")
	}
	if w.Contains(x) {
		return fmt.Errorf("core: node %v already present", x)
	}
	if !w.hasCluster(contact) {
		return fmt.Errorf("core: join contact %v is not a cluster: %w", contact, ErrUnknownCluster)
	}
	out, err := w.walker.Biased(led, rng, contact)
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
	chargeInsertion(w, led, target)

	if w.cfg.ExchangeOnJoin {
		rep, err := w.exch.Run(led, rng, target)
		if err != nil {
			return fmt.Errorf("core: join exchange: %w", err)
		}
		w.stats.HijackedWalks += int64(rep.Hijacked)
	}
	if w.Size(target) > w.cfg.SplitThreshold() {
		if err := w.split(led, rng, target); err != nil {
			return fmt.Errorf("core: join split: %w", err)
		}
	}
	w.stats.Joins++
	if settle {
		w.settleSecurity()
	}
	return nil
}

// chargeInsertion charges the cost of installing one node into cluster c:
// the cluster's members update their views, adjacent clusters are informed,
// and the node downloads its cluster and neighborhood composition. It is
// written against walk.Topology so the classic path (on the world) and the
// op scheduler's planner (on a planView) share one cost model.
func chargeInsertion(t walk.Topology, led *metrics.Ledger, c ids.ClusterID) {
	size := int64(t.Size(c))
	led.Charge(metrics.ClassIntraCluster, size-1)
	nbr := walk.NeighborMass(t, c)
	led.Charge(metrics.ClassInterCluster, size*nbr+size+nbr)
	led.AddRounds(2)
}

// chargeDeparture charges the cost of detecting one departure from c and
// cleaning up views: the remaining members all notice, and every adjacent
// cluster is told the new composition. Shared between the classic leave
// path and the scheduler's leave planner; call BEFORE removing the node.
func chargeDeparture(t walk.Topology, led *metrics.Ledger, c ids.ClusterID) {
	size := int64(t.Size(c))
	led.Charge(metrics.ClassIntraCluster, size-1)
	led.Charge(metrics.ClassInterCluster, (size-1)*walk.NeighborMass(t, c))
	led.AddRounds(2)
}

// Leave executes the paper's Leave operation (Algorithm 2): the cluster
// detects the departure, exchanges all its nodes, cascades an exchange
// onto every cluster that received one of them (or, under
// Config.GroupedCascade, one grouped shuffle round over the whole
// receiver set — see exchange.CascadeRound), and merges if it fell below
// the threshold.
func (w *World) Leave(x ids.NodeID) error {
	return w.leaveWith(w.led, w.rng, x, true)
}

func (w *World) leaveWith(led *metrics.Ledger, rng *xrand.Rand, x ids.NodeID, settle bool) error {
	if !w.bootstrapped {
		return fmt.Errorf("core: leave before bootstrap")
	}
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: leave of node %v: %w", x, ErrUnknownNode)
	}
	c := info.cluster
	chargeDeparture(w, led, c)

	if err := w.removeMember(c, x, info.byz); err != nil {
		return err
	}
	w.unregisterNode(x)

	if w.Size(c) == 0 {
		// Pathological: cluster emptied (only possible with tiny
		// configurations); retire it from the overlay.
		w.removeClusterVertex(led, rng, c)
		w.stats.Leaves++
		if settle {
			w.settleSecurity()
		}
		return nil
	}

	if w.cfg.ExchangeOnLeave {
		rep, err := w.exch.Run(led, rng, c)
		if err != nil {
			return fmt.Errorf("core: leave exchange: %w", err)
		}
		w.stats.HijackedWalks += int64(rep.Hijacked)
		if w.cfg.LeaveCascade {
			hijacked, err := runLeaveCascade(w.cfg.GroupedCascade, w.exch, w, led, rng, c, rep.Receivers)
			if err != nil {
				return err
			}
			w.stats.HijackedWalks += hijacked
		}
	}
	if w.Size(c) < w.cfg.MergeThreshold() {
		if err := w.merge(led, rng, c); err != nil {
			return fmt.Errorf("core: leave merge: %w", err)
		}
	}
	w.stats.Leaves++
	if settle {
		w.settleSecurity()
	}
	return nil
}

// runLeaveCascade executes the configured cascade flavor over the primary
// leave exchange's receivers: Algorithm 2's full exchange per receiver,
// or — under Config.GroupedCascade — one grouped shuffle round over the
// whole set (exchange.CascadeRound: the round's swaps stay inside
// {source} ∪ receivers, so a leave's write footprint stays ~|C| clusters
// instead of ~|C|^2). It is shared between the classic serial path
// (leaveWith, t = the world) and the op scheduler's leave plan (planLeave,
// t = the planView) so the two paths stay draw-for-draw identical — the
// serial/sharded lockstep contract (TestGroupedCascadeMatchesSerial)
// depends on it. Returns the hijacked-walk count to fold into stats.
func runLeaveCascade(grouped bool, exch *exchange.Exchanger, t walk.Topology, led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID, receivers []ids.ClusterID) (int64, error) {
	if grouped {
		// CascadeRound reads the receiver list (which aliases the
		// exchanger's Run scratch) but only writes its own separate
		// cascade scratch, so no copy is needed.
		rep, err := exch.CascadeRound(led, rng, c, receivers)
		if err != nil {
			return 0, fmt.Errorf("core: leave cascade round: %w", err)
		}
		return int64(rep.Hijacked), nil
	}
	// The per-receiver cascade re-enters exch.Run, which recycles the very
	// scratch buffer the receiver list aliases — detach it first. One small
	// allocation per leave, on the legacy (non-grouped) flavor only.
	receivers = append([]ids.ClusterID(nil), receivers...)
	var hijacked int64
	for _, recv := range receivers {
		if t.Size(recv) == 0 {
			continue // receiver dissolved (clusters are never empty)
		}
		rep, err := exch.Run(led, rng, recv)
		if err != nil {
			return hijacked, fmt.Errorf("core: leave cascade exchange: %w", err)
		}
		hijacked += int64(rep.Hijacked)
	}
	return hijacked, nil
}

// ForceExchange runs the exchange primitive on a cluster outside the
// join/leave flow. The paper invokes exchange only from maintenance
// operations, but the primitive is well-defined on its own; experiments
// use it to measure Lemma 1-3 dynamics (post-exchange composition, drift,
// recovery) and its isolated cost (paper section 3.1).
func (w *World) ForceExchange(c ids.ClusterID) error {
	return w.forceExchangeWith(w.led, w.rng, c, true)
}

func (w *World) forceExchangeWith(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID, settle bool) error {
	if !w.hasCluster(c) {
		return fmt.Errorf("core: exchange on cluster %v: %w", c, ErrUnknownCluster)
	}
	rep, err := w.exch.Run(led, rng, c)
	if err != nil {
		return err
	}
	w.stats.HijackedWalks += int64(rep.Hijacked)
	if settle {
		w.settleSecurity()
	}
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
	if info.byz == corrupted {
		return nil
	}
	s := w.shardFor(info.cluster)
	slot, cs := s.clusterAt(info.cluster)
	if corrupted {
		cs.byz++
	} else {
		cs.byz--
	}
	s.setRow(info.cluster, cs)
	s.reclassify(cs)
	s.markDirty(slot, cs)
	if corrupted {
		w.byzPos = growPos(w.byzPos, x)
		w.byzPos[x] = int32(len(w.byzNodes))
		w.byzNodes = append(w.byzNodes, x)
	} else {
		j := w.byzPos[x]
		last := len(w.byzNodes) - 1
		moved := w.byzNodes[last]
		w.byzNodes[j] = moved
		w.byzPos[moved] = j
		w.byzNodes = w.byzNodes[:last]
		w.byzPos[x] = -1
	}
	info.byz = corrupted
	w.setNodeInfo(x, info)
	w.settleSecurity()
	return nil
}

// split bipartitions an oversized cluster (section 3.3): a random half
// stays under the old identity (keeping its overlay edges), the other half
// becomes a fresh overlay vertex wired by OVER's Add.
func (w *World) split(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) error {
	members := w.Members(c)
	// The partition is generated collectively: one randNum instance seeds
	// the permutation.
	if _, _, err := w.cfg.Generator.Draw(led, rng, randnum.Params{
		Size: len(members), Byz: w.Byz(c), R: 1 << 30,
	}, nil); err != nil {
		return err
	}
	rng.Shuffle(len(members), func(i, j int) {
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
	added, err := w.overlay.Add(led, c2, w.uniformPickerFrom(led, rng, c), budget)
	if err != nil {
		return err
	}
	_ = added

	// Costs: neighbors of the old cluster learn the replacement; each new
	// edge of c2 is a full bipartite introduction.
	led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*walk.NeighborMass(w, c))
	led.Charge(metrics.ClassInterCluster, int64(w.Size(c2))*walk.NeighborMass(w, c2))
	led.AddRounds(2)
	w.stats.Splits++
	return nil
}

// merge handles an undersized cluster per the configured strategy.
func (w *World) merge(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) error {
	if w.nClusters <= 1 {
		return nil // cannot merge the last cluster
	}
	switch w.cfg.MergeStrategy {
	case MergeAbsorbRandom:
		return w.mergeAbsorbRandom(led, rng, c)
	case MergeRejoinAll:
		return w.mergeRejoinAll(led, rng, c)
	default:
		return fmt.Errorf("core: unknown merge strategy %v", w.cfg.MergeStrategy)
	}
}

// mergeAbsorbRandom: a random cluster C' (chosen by randCl so that OVER's
// random-removal assumption holds) is dissolved into c, then c exchanges
// all its nodes.
func (w *World) mergeAbsorbRandom(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) error {
	partner, err := w.randomOtherCluster(led, rng, c)
	if err != nil {
		return err
	}
	// Announce C' removal to its neighbors.
	led.Charge(metrics.ClassInterCluster, int64(w.Size(partner))*walk.NeighborMass(w, partner))

	for _, x := range w.Members(partner) {
		if err := w.moveNode(x, partner, c); err != nil {
			return err
		}
		led.Charge(metrics.ClassExchange, int64(w.Size(c)))
	}
	w.removeClusterVertex(led, rng, partner)
	led.AddRounds(2)

	rep, err := w.exch.Run(led, rng, c)
	if err != nil {
		return err
	}
	w.stats.HijackedWalks += int64(rep.Hijacked)
	w.stats.Merges++
	if w.Size(c) > w.cfg.SplitThreshold() {
		return w.split(led, rng, c)
	}
	return nil
}

// mergeRejoinAll: the undersized cluster leaves the overlay and its
// members re-join individually on subsequent time steps (Algorithm 2).
func (w *World) mergeRejoinAll(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) error {
	led.Charge(metrics.ClassInterCluster, int64(w.Size(c))*walk.NeighborMass(w, c))
	for _, x := range w.Members(c) {
		info, _ := w.nodeInfoOf(x)
		if err := w.removeMember(c, x, info.byz); err != nil {
			return err
		}
		w.unregisterNode(x)
		w.pendingRejoin = append(w.pendingRejoin, x)
		w.rejoinByz[x] = info.byz
	}
	w.removeClusterVertex(led, rng, c)
	led.AddRounds(2)
	w.stats.Merges++
	return nil
}

// Rejoin re-inserts a node displaced by MergeRejoinAll, preserving its
// identity and corruption status.
func (w *World) Rejoin(x ids.NodeID) error {
	byz, ok := w.rejoinByz[x]
	if !ok {
		return fmt.Errorf("core: node %v is not awaiting rejoin", x)
	}
	delete(w.rejoinByz, x)
	contact, ok2 := w.RandomCluster(w.rng)
	if !ok2 {
		return fmt.Errorf("core: no clusters to rejoin")
	}
	if err := w.joinExisting(w.led, w.rng, x, byz, contact, true); err != nil {
		return err
	}
	w.stats.Rejoins++
	return nil
}

// randomOtherCluster picks a random cluster != c via the biased walk,
// falling back to a uniform draw if every restart lands on c.
func (w *World) randomOtherCluster(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) (ids.ClusterID, error) {
	out, err := w.walker.Biased(led, rng, c)
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
		cand := w.overlay.VertexAt(rng.Intn(n))
		if cand != c {
			return cand, nil
		}
	}
}

// moveNode relocates x without counting it as a protocol swap.
func (w *World) moveNode(x ids.NodeID, from, to ids.ClusterID) error {
	before := w.stats.Swaps
	if err := w.Transfer(x, from, to); err != nil {
		return err
	}
	w.stats.Swaps = before
	return nil
}

// removeClusterVertex retires c from both the partition bookkeeping and
// the overlay, running OVER's repair pass.
func (w *World) removeClusterVertex(led *metrics.Ledger, rng *xrand.Rand, c ids.ClusterID) {
	if w.shardFor(c).retire(c) {
		w.nClusters--
	}
	if w.overlay.Has(c) {
		budget := w.cfg.TargetDegree() * w.cfg.EdgeAttemptFactor
		// Repair walks start from the vertex being repaired.
		_, _ = w.overlay.Remove(led, c, w.uniformPickerFromSelf(led, rng), budget)
	}
}

// uniformPickerFrom returns an OVER edge-endpoint picker whose walks start
// at the fixed vertex `start` (used when the wired vertex itself has no
// edges yet).
func (w *World) uniformPickerFrom(led *metrics.Ledger, rng *xrand.Rand, start ids.ClusterID) func(ids.ClusterID) (ids.ClusterID, bool) {
	return func(ids.ClusterID) (ids.ClusterID, bool) {
		if !w.overlay.Has(start) {
			return 0, false
		}
		out, err := w.walker.Uniform(led, rng, start)
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
func (w *World) uniformPickerFromSelf(led *metrics.Ledger, rng *xrand.Rand) func(ids.ClusterID) (ids.ClusterID, bool) {
	return func(from ids.ClusterID) (ids.ClusterID, bool) {
		if !w.overlay.Has(from) {
			return 0, false
		}
		out, err := w.walker.Uniform(led, rng, from)
		if err != nil {
			return 0, false
		}
		if out.Hijacked {
			w.stats.HijackedWalks++
		}
		return out.End, true
	}
}
