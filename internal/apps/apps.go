// Package apps implements the application-layer protocols the paper's
// conclusion derives from NOW clustering (section 6): broadcast with
// O~(n) message complexity (vs O(n^2) unclustered), uniform node sampling
// at polylog(n) messages per sample, network-wide aggregation, and a
// network-wide agreement service — each running over the cluster overlay
// with the paper's inter-cluster communication rule (a message from
// cluster C is accepted on more than half identical copies, so every
// cluster-to-cluster hop costs |Ci|*|Cj| messages).
//
// Reliability tracking: any degraded cluster (>= 1/3 Byzantine) on a
// protocol's communication tree taints the result; captured clusters
// (>= 1/2) corrupt it outright. The reports surface both, because the
// whole point of NOW is to make such clusters vanishingly rare.
package apps

import (
	"fmt"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// World is the read view the applications need; core.World implements it.
// Each protocol reads one walk.Topology view, since none mutates the world.
type World interface {
	walk.Topology
	// MemberAt returns the i-th member of c, 0 <= i < View().Row(c).Size.
	MemberAt(c ids.ClusterID, i int) ids.NodeID
	Clusters() []ids.ClusterID
	NumNodes() int
}

// bfsTree computes parent pointers of a BFS spanning tree of the overlay
// rooted at root. Returns the visit order.
func bfsTree(view walk.View, root ids.ClusterID) (order []ids.ClusterID, parent map[ids.ClusterID]ids.ClusterID) {
	parent = make(map[ids.ClusterID]ids.ClusterID)
	parent[root] = root
	order = append(order, root)
	for i := 0; i < len(order); i++ {
		c := order[i]
		for _, nb := range view.Adjacent(c) {
			if _, seen := parent[nb]; !seen {
				parent[nb] = c
				order = append(order, nb)
			}
		}
	}
	return order, parent
}

// interClusterCost is the paper's bipartite cost of one cluster-to-cluster
// message.
func interClusterCost(view walk.View, a, b ids.ClusterID) int64 {
	return int64(view.Row(a).Size) * int64(view.Row(b).Size)
}

// BroadcastReport summarizes one clustered broadcast.
type BroadcastReport struct {
	// Source is the originating cluster.
	Source ids.ClusterID
	// ClustersReached counts overlay vertices the spanning tree covered.
	ClustersReached int
	// NodesReached counts member nodes in reached clusters.
	NodesReached int
	// Messages/Rounds are the clustered protocol's cost.
	Messages int64
	Rounds   int64
	// FloodingMessages is the unclustered O(n^2) reference the paper
	// compares against (every node relays to every node once).
	FloodingMessages int64
	// TaintedClusters counts reached clusters that were degraded or
	// captured (result reliability at risk there).
	TaintedClusters int
}

// Broadcast delivers a message from a source cluster to every node: the
// source's members flood their own cluster, then the message travels the
// BFS spanning tree of the overlay, each tree edge paying the bipartite
// inter-cluster cost and each receiving cluster relaying internally.
func Broadcast(led *metrics.Ledger, w World, source ids.ClusterID) (BroadcastReport, error) {
	view := w.View()
	if view.Row(source).Size == 0 {
		return BroadcastReport{}, fmt.Errorf("apps: broadcast from empty cluster %v", source)
	}
	rep := BroadcastReport{Source: source}
	order, parent := bfsTree(view, source)
	maxDepth := map[ids.ClusterID]int64{source: 0}
	for _, c := range order {
		row := view.Row(c)
		rep.ClustersReached++
		rep.NodesReached += int(row.Size)
		if randnum.Classify(int(row.Size), int(row.Byz)) != randnum.Secure {
			rep.TaintedClusters++
		}
		// Intra-cluster relay: every member tells every member.
		intra := int64(row.Size) * int64(row.Size-1)
		led.Charge(metrics.ClassApplication, intra)
		rep.Messages += intra
		if c != source {
			p := parent[c]
			cost := interClusterCost(view, p, c)
			led.Charge(metrics.ClassApplication, cost)
			rep.Messages += cost
			maxDepth[c] = maxDepth[p] + 1
		}
	}
	var depth int64
	for _, d := range maxDepth {
		if d > depth {
			depth = d
		}
	}
	rep.Rounds = 2*depth + 2 // one hop + one intra relay per level
	led.AddRounds(rep.Rounds)
	n := int64(w.NumNodes())
	rep.FloodingMessages = n * (n - 1)
	return rep, nil
}

// SampleReport summarizes one uniform node sample.
type SampleReport struct {
	Node     ids.NodeID
	Cluster  ids.ClusterID
	Messages int64
	Rounds   int64
	// Security is the weakest randnum level observed along the walk.
	Security randnum.Security
}

// Sampler provides uniform node samples via randCl + intra-cluster
// randNum, the paper's polylog-per-sample sampling service.
type Sampler struct {
	world  World
	walker *walk.Walker
	gen    randnum.Generator
}

// NewSampler builds a sampler.
func NewSampler(w World, walker *walk.Walker, gen randnum.Generator) (*Sampler, error) {
	if w == nil || walker == nil || gen == nil {
		return nil, fmt.Errorf("apps: nil sampler dependency")
	}
	return &Sampler{world: w, walker: walker, gen: gen}, nil
}

// Sample draws one ~uniform node starting from the given contact cluster.
func (s *Sampler) Sample(led *metrics.Ledger, r *xrand.Rand, contact ids.ClusterID) (SampleReport, error) {
	snap := led.Snapshot()
	out, err := s.walker.Biased(led, r, contact)
	if err != nil {
		return SampleReport{}, err
	}
	row := s.world.View().Row(out.End)
	idx, sec, err := s.gen.Draw(led, r, randnum.Params{
		Size: int(row.Size),
		Byz:  int(row.Byz),
		R:    int64(row.Size),
	}, nil)
	if err != nil {
		return SampleReport{}, err
	}
	if sec < out.WorstSecurity {
		sec = out.WorstSecurity
	}
	cost := led.Since(snap)
	return SampleReport{
		Node:     s.world.MemberAt(out.End, int(idx)),
		Cluster:  out.End,
		Messages: cost.Messages,
		Rounds:   cost.Rounds,
		Security: sec,
	}, nil
}

// AggregateReport summarizes one network-wide aggregation.
type AggregateReport struct {
	// Value is the aggregate computed at the root.
	Value int64
	// Exact is the true aggregate for verification.
	Exact           int64
	Messages        int64
	Rounds          int64
	TaintedClusters int
}

// Aggregate sums a per-node integer function over the whole network by
// convergecast on the overlay spanning tree: leaves send partial sums up,
// each cluster adding its own members' contributions; every tree edge
// pays the bipartite cost.
func Aggregate(led *metrics.Ledger, w World, root ids.ClusterID, value func(c ids.ClusterID, i int) int64) (AggregateReport, error) {
	view := w.View()
	if view.Row(root).Size == 0 {
		return AggregateReport{}, fmt.Errorf("apps: aggregate at empty cluster %v", root)
	}
	rep := AggregateReport{}
	order, parent := bfsTree(view, root)
	partial := make(map[ids.ClusterID]int64, len(order))
	for _, c := range order {
		row := view.Row(c)
		var own int64
		for i := 0; i < int(row.Size); i++ {
			own += value(c, i)
		}
		partial[c] += own
		rep.Exact += own
		if randnum.Classify(int(row.Size), int(row.Byz)) != randnum.Secure {
			rep.TaintedClusters++
		}
		// Intra-cluster agreement on the partial sum.
		intra := int64(row.Size) * int64(row.Size-1)
		led.Charge(metrics.ClassApplication, intra)
		rep.Messages += intra
	}
	// Convergecast in reverse BFS order.
	var depth int64
	for i := len(order) - 1; i >= 1; i-- {
		c := order[i]
		p := parent[c]
		cost := interClusterCost(view, c, p)
		led.Charge(metrics.ClassApplication, cost)
		rep.Messages += cost
		partial[p] += partial[c]
	}
	// Depth bounds the round count.
	dist := map[ids.ClusterID]int64{root: 0}
	for _, c := range order[1:] {
		dist[c] = dist[parent[c]] + 1
		if dist[c] > depth {
			depth = dist[c]
		}
	}
	rep.Rounds = 2 * (depth + 1)
	led.AddRounds(rep.Rounds)
	rep.Value = partial[root]
	return rep, nil
}

// AgreementReport summarizes one network-wide agreement.
type AgreementReport struct {
	Decision int64
	Messages int64
	Rounds   int64
	// RootSecure reports whether the deciding cluster was > 2/3 honest.
	RootSecure      bool
	TaintedClusters int
}

// Agree drives network-wide agreement on a proposal: proposals
// convergecast to a root cluster (majority wins ties toward the smaller
// value), the root runs intra-cluster Byzantine agreement, and the
// decision is broadcast back — the "reduce the system to several reliable
// processes" pattern from the paper's introduction.
func Agree(led *metrics.Ledger, w World, root ids.ClusterID, proposal func(c ids.ClusterID) int64) (AgreementReport, error) {
	row := w.View().Row(root)
	if row.Size == 0 {
		return AgreementReport{}, fmt.Errorf("apps: agreement at empty cluster %v", root)
	}
	rep := AgreementReport{}
	snap := led.Snapshot()

	// Convergecast proposals (cluster-level majority).
	agg, err := Aggregate(led, w, root, func(c ids.ClusterID, i int) int64 {
		if proposal(c) > 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		return rep, err
	}
	rep.TaintedClusters = agg.TaintedClusters
	if agg.Value*2 >= int64(w.NumNodes()) {
		rep.Decision = 1
	}

	// Root cluster decides internally.
	rep.RootSecure = 3*row.Byz < row.Size
	led.Charge(metrics.ClassAgreement, int64(row.Size)*int64(row.Size-1))
	led.AddRounds(3)

	// Broadcast the decision.
	if _, err := Broadcast(led, w, root); err != nil {
		return rep, err
	}
	cost := led.Since(snap)
	rep.Messages = cost.Messages
	rep.Rounds = cost.Rounds
	return rep, nil
}
