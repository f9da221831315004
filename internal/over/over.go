// Package over implements OVER (Over-Valued Erdos-Renyi graph), the
// protocol that maintains the expander overlay of clusters under vertex
// additions and removals. The proceedings paper defers OVER's construction
// to its long version; this package reconstructs it from the two properties
// NOW consumes and the hints the paper does give:
//
//   - Property 1: large isoperimetric constant (expansion) at all times.
//   - Property 2: maximum degree O(log^{1+alpha} N).
//   - The initial overlay is Erdos-Renyi with p = log^{1+alpha}N / sqrt(N)
//     (expected degree Theta(log^{1+alpha} N) at the initial scale).
//   - A new vertex (cluster split) acquires Theta(log^{1+alpha} N) edges
//     whose endpoints are chosen by random walks (Figure 2).
//   - Removed vertices are random (ensured by NOW's merge using randCl),
//     so removals do not bias the edge distribution.
//
// Add wires a new vertex to targetDegree endpoints supplied by a caller
// provided picker (NOW passes a CTRW-based uniform sampler); Remove deletes
// a vertex and repairs any neighbor whose degree fell below the floor by
// drawing replacement edges the same way. A hard degree cap enforces
// Property 2 by redirecting edges away from saturated vertices; expansion
// (Property 1) is not assumed but measured (Health).
package over

import (
	"fmt"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// Params sets the degree discipline of the overlay.
type Params struct {
	// TargetDegree is the number of edges a new vertex acquires
	// (Theta(log^{1+alpha} N)).
	TargetDegree int
	// DegreeCap is the hard maximum degree (Property 2's c*log^{1+alpha}N).
	DegreeCap int
	// DegreeFloor triggers repair: after a removal, neighbors whose degree
	// drops below the floor draw replacement edges.
	DegreeFloor int
	// Repair enables the post-removal repair pass (ablation knob).
	Repair bool
}

func (p Params) validate() error {
	if p.TargetDegree < 1 {
		return fmt.Errorf("over: target degree %d < 1", p.TargetDegree)
	}
	if p.DegreeCap < p.TargetDegree {
		return fmt.Errorf("over: degree cap %d below target %d", p.DegreeCap, p.TargetDegree)
	}
	if p.DegreeFloor < 0 || p.DegreeFloor > p.TargetDegree {
		return fmt.Errorf("over: degree floor %d outside [0,%d]", p.DegreeFloor, p.TargetDegree)
	}
	return nil
}

// Picker supplies candidate edge endpoints for a vertex being wired; NOW
// backs it with uniform CTRWs on the overlay itself. ok=false means no
// candidate could be produced (e.g. the overlay is a single vertex).
type Picker func(from ids.ClusterID) (ids.ClusterID, bool)

// Overlay is the maintained expander. Not safe for concurrent use.
//
// The adjacency is indexed by ClusterID: cluster IDs are minted densely and
// never reused, so a walk hop reads its next vertex's neighbours with one
// slice index instead of a map lookup. Each list keeps edge-insertion
// order, and order keeps vertex-insertion order with removals closing the
// gap, so VertexAt and Adjacent return exactly what the generic
// graph.Graph would for the same operation sequence; Snapshot exports both
// orders for the structural analyses.
type Overlay struct {
	params Params
	// adj[c] is c's adjacency list; empty for absent or isolated vertices.
	adj [][]ids.ClusterID
	// pos[c] is c's position in order plus one; 0 = not a vertex.
	pos   []int32
	order []ids.ClusterID
	edges int
	// degreeBound is the largest degree Check allows: DegreeCap, raised to
	// the post-Bootstrap maximum. The G(n, p) draw and its patch chain are
	// not capped; Add and Remove only create edges between vertices below
	// the cap, so no degree ever grows past this bound.
	degreeBound int

	// Traversal scratch reused by Connected, Bootstrap's component scan and
	// Check: a vertex is marked iff seen[c] == epoch, so a traversal clears
	// nothing and allocates nothing once the slices have grown.
	seen  []uint32
	epoch uint32
	queue []ids.ClusterID
}

// New returns an empty overlay with the given degree discipline.
func New(params Params) (*Overlay, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Overlay{params: params, degreeBound: params.DegreeCap}, nil
}

// Params returns the degree discipline.
func (o *Overlay) Params() Params { return o.params }

// Snapshot copies the overlay into a generic graph for structural analysis
// (BFS, spectral gap, isoperimetric estimates). The copy has the overlay's
// vertex order and each vertex's adjacency order, so order-sensitive
// analyses see exactly the overlay's iteration order.
func (o *Overlay) Snapshot() *graph.Graph[ids.ClusterID] {
	return graph.FromAdjacency(o.order, o.Adjacent)
}

// NumVertices returns the overlay order.
func (o *Overlay) NumVertices() int { return len(o.order) }

// NumEdges returns the overlay size.
func (o *Overlay) NumEdges() int { return o.edges }

// Degree returns a vertex degree (0 if absent).
func (o *Overlay) Degree(c ids.ClusterID) int { return len(o.Adjacent(c)) }

// Adjacent returns c's adjacency list in edge-insertion order without
// copying it (nil if c is absent). The slice is read-only and is
// invalidated by the next edge mutation incident to c. Hot paths that read
// one vertex's neighbours per step (walk hops, neighbour-mass charges) use
// this instead of Neighbors.
func (o *Overlay) Adjacent(c ids.ClusterID) []ids.ClusterID {
	if uint64(c) < uint64(len(o.adj)) {
		return o.adj[c]
	}
	return nil
}

// Neighbors returns a copy of c's adjacency list.
func (o *Overlay) Neighbors(c ids.ClusterID) []ids.ClusterID {
	return append([]ids.ClusterID(nil), o.Adjacent(c)...)
}

// Has reports whether c is an overlay vertex.
func (o *Overlay) Has(c ids.ClusterID) bool {
	return uint64(c) < uint64(len(o.pos)) && o.pos[c] != 0
}

// Vertices returns the overlay vertices in insertion order (a copy).
func (o *Overlay) Vertices() []ids.ClusterID {
	return append([]ids.ClusterID(nil), o.order...)
}

// VertexAt returns the i-th overlay vertex in insertion order without
// copying the vertex list; 0 <= i < NumVertices.
func (o *Overlay) VertexAt(i int) ids.ClusterID { return o.order[i] }

// addVertex appends c to the vertex order, growing the ID-indexed slices
// to cover it. c must be absent.
func (o *Overlay) addVertex(c ids.ClusterID) {
	if n := int(c) + 1; n > len(o.pos) {
		o.pos = append(o.pos, make([]int32, n-len(o.pos))...)
		o.adj = append(o.adj, make([][]ids.ClusterID, n-len(o.adj))...)
	}
	o.order = append(o.order, c)
	o.pos[c] = int32(len(o.order))
}

// removeVertex deletes c and its incident edges. The vertex order closes
// the gap in place (not a swap-remove), so VertexAt keeps insertion order.
func (o *Overlay) removeVertex(c ids.ClusterID) {
	for _, u := range o.adj[c] {
		o.removeDirected(u, c)
	}
	o.edges -= len(o.adj[c])
	o.adj[c] = nil
	i := int(o.pos[c]) - 1
	o.order = append(o.order[:i], o.order[i+1:]...)
	for j := i; j < len(o.order); j++ {
		o.pos[o.order[j]] = int32(j + 1)
	}
	o.pos[c] = 0
}

func (o *Overlay) removeDirected(from, to ids.ClusterID) {
	lst := o.adj[from]
	for i, w := range lst {
		if w == to {
			o.adj[from] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// hasEdge reports whether {u, v} exists; both must be vertices.
func (o *Overlay) hasEdge(u, v ids.ClusterID) bool {
	for _, w := range o.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// addEdge inserts {u, v}, rejecting self-loops and duplicates; both must be
// vertices.
func (o *Overlay) addEdge(u, v ids.ClusterID) error {
	if u == v {
		return fmt.Errorf("over: self-loop on %v", u)
	}
	if o.hasEdge(u, v) {
		return fmt.Errorf("over: duplicate edge %v-%v", u, v)
	}
	o.adj[u] = append(o.adj[u], v)
	o.adj[v] = append(o.adj[v], u)
	o.edges++
	return nil
}

// nextEpoch starts a traversal: every vertex reads as unvisited.
func (o *Overlay) nextEpoch() {
	if len(o.seen) < len(o.adj) {
		o.seen = append(o.seen, make([]uint32, len(o.adj)-len(o.seen))...)
	}
	o.epoch++
	if o.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(o.seen)
		o.epoch = 1
	}
}

// bfs marks every vertex reachable from start with the current epoch and
// returns how many it marked.
func (o *Overlay) bfs(start ids.ClusterID) int {
	o.seen[start] = o.epoch
	q := append(o.queue[:0], start)
	for head := 0; head < len(q); head++ {
		for _, u := range o.adj[q[head]] {
			if o.seen[u] != o.epoch {
				o.seen[u] = o.epoch
				q = append(q, u)
			}
		}
	}
	o.queue = q[:0]
	return len(q)
}

// Connected reports whether the overlay is connected (true when it has at
// most one vertex). It allocates nothing once its scratch has grown to the
// overlay's size.
func (o *Overlay) Connected() bool {
	if len(o.order) <= 1 {
		return true
	}
	o.nextEpoch()
	return o.bfs(o.order[0]) == len(o.order)
}

// DegreeRange returns the minimum and maximum vertex degree (0, 0 for an
// empty overlay).
func (o *Overlay) DegreeRange() (lo, hi int) {
	for i, v := range o.order {
		d := len(o.adj[v])
		if i == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
	}
	return lo, hi
}

// Bootstrap installs the initial Erdos-Renyi overlay over the given
// vertices with edge probability p, then adds a deterministic spanning
// chain between connected components so the walk-based machinery is usable
// even in small regimes where G(n,p) is disconnected (at the paper's scales
// the chain adds no edges w.h.p.). Returns the number of patch edges added.
func (o *Overlay) Bootstrap(r *xrand.Rand, vertices []ids.ClusterID, p float64) (int, error) {
	if len(o.order) != 0 {
		return 0, fmt.Errorf("over: bootstrap on non-empty overlay")
	}
	for _, v := range vertices {
		if !o.Has(v) {
			o.addVertex(v)
		}
	}
	// G(n, p): the same pair order and coin sequence as graph.ErdosRenyi.
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if !r.Bool(p) || o.hasEdge(vertices[i], vertices[j]) {
				continue
			}
			if err := o.addEdge(vertices[i], vertices[j]); err != nil {
				return 0, fmt.Errorf("erdos-renyi: %w", err)
			}
		}
	}
	// Link the earliest vertex of each further component (components
	// ordered by their earliest vertex) to the first vertex. A patch only
	// joins already-visited components, so it cannot change what the rest
	// of the scan finds.
	patches := 0
	o.nextEpoch()
	for _, v := range o.order {
		if o.seen[v] == o.epoch {
			continue
		}
		o.bfs(v)
		if v == o.order[0] {
			continue
		}
		if err := o.addEdge(o.order[0], v); err != nil {
			return patches, err
		}
		patches++
	}
	_, hi := o.DegreeRange()
	o.degreeBound = max(o.degreeBound, hi)
	return patches, nil
}

// Add inserts vertex c and wires it to up to TargetDegree distinct
// endpoints obtained from pick, skipping self, duplicates and saturated
// endpoints (degree >= cap). attemptBudget bounds pick calls so a saturated
// or tiny overlay cannot loop forever. It charges one inter-cluster
// announcement per created edge. Returns the number of edges created.
func (o *Overlay) Add(led *metrics.Ledger, c ids.ClusterID, pick Picker, attemptBudget int) (int, error) {
	if o.Has(c) {
		return 0, fmt.Errorf("over: add of existing vertex %v", c)
	}
	o.addVertex(c)
	added := 0
	for attempts := 0; added < o.params.TargetDegree && attempts < attemptBudget; attempts++ {
		t, ok := pick(c)
		if !ok {
			break
		}
		if t == c || !o.Has(t) || o.hasEdge(c, t) {
			continue
		}
		if len(o.adj[t]) >= o.params.DegreeCap {
			continue // redirect away from saturated vertices
		}
		if err := o.addEdge(c, t); err != nil {
			return added, err
		}
		led.Charge(metrics.ClassInterCluster, 1)
		added++
	}
	return added, nil
}

// Remove deletes vertex c and, when Repair is enabled, tops the degree of
// every former neighbor that fell below DegreeFloor back up to the floor
// using pick. Returns the number of repair edges created.
func (o *Overlay) Remove(led *metrics.Ledger, c ids.ClusterID, pick Picker, attemptBudget int) (int, error) {
	if !o.Has(c) {
		return 0, fmt.Errorf("over: remove of missing vertex %v", c)
	}
	// removeVertex detaches c's list without writing to it, so the former
	// neighbours can be read from it afterwards.
	former := o.adj[c]
	o.removeVertex(c)
	if !o.params.Repair {
		return 0, nil
	}
	repaired := 0
	for _, u := range former {
		for attempts := 0; len(o.adj[u]) < o.params.DegreeFloor && attempts < attemptBudget; attempts++ {
			t, ok := pick(u)
			if !ok {
				break
			}
			if t == u || !o.Has(t) || o.hasEdge(u, t) {
				continue
			}
			if len(o.adj[t]) >= o.params.DegreeCap {
				continue
			}
			if err := o.addEdge(u, t); err != nil {
				return repaired, err
			}
			led.Charge(metrics.ClassInterCluster, 1)
			repaired++
		}
	}
	return repaired, nil
}

// Check is the overlay's structural self-check: the position index and the
// vertex order agree, absent IDs have no edges, the adjacency is symmetric
// with no self-loops, duplicates or edges to absent vertices, the edge
// count matches the lists, and no degree exceeds DegreeCap (or the larger
// degree an uncapped Bootstrap left; see degreeBound). It returns the
// first violation found, scanning in vertex order.
func (o *Overlay) Check() error {
	live := 0
	for c, p := range o.pos {
		if p == 0 {
			if len(o.adj[c]) != 0 {
				return fmt.Errorf("over: absent vertex C%d has %d edges", c, len(o.adj[c]))
			}
			continue
		}
		live++
		if int(p) > len(o.order) || o.order[p-1] != ids.ClusterID(c) {
			return fmt.Errorf("over: position index of C%d is %d, not its place in the vertex order", c, p-1)
		}
	}
	if live != len(o.order) {
		return fmt.Errorf("over: %d indexed vertices vs %d in order", live, len(o.order))
	}
	degrees := 0
	for _, v := range o.order {
		lst := o.adj[v]
		if len(lst) > o.degreeBound {
			return fmt.Errorf("over: %v has degree %d above bound %d", v, len(lst), o.degreeBound)
		}
		degrees += len(lst)
		o.nextEpoch()
		for _, u := range lst {
			switch {
			case u == v:
				return fmt.Errorf("over: self-loop on %v", v)
			case !o.Has(u):
				return fmt.Errorf("over: %v lists absent neighbour %v", v, u)
			case o.seen[u] == o.epoch:
				return fmt.Errorf("over: duplicate edge %v-%v", v, u)
			case !o.hasEdge(u, v):
				return fmt.Errorf("over: edge %v-%v is not symmetric", v, u)
			}
			o.seen[u] = o.epoch
		}
	}
	if degrees != 2*o.edges {
		return fmt.Errorf("over: edge count %d vs degree sum %d", o.edges, degrees)
	}
	return nil
}

// Health is a structural audit of the two OVER properties.
type Health struct {
	Vertices    int
	Edges       int
	MinDegree   int
	MaxDegree   int
	MeanDegree  float64
	Connected   bool
	SpectralGap float64 // lazy-walk spectral gap (0 if not computed)
	IsoEstimate float64 // upper-bound estimate of the isoperimetric constant
	IsoExact    float64 // exact value for small overlays, else -1
}

// CheckHealth computes the audit; spectral and isoperimetric estimates are
// randomized and controlled by r. Exact isoperimetric runs only for tiny
// overlays.
func (o *Overlay) CheckHealth(r *xrand.Rand, spectralIters, randomCuts int) Health {
	g := o.Snapshot()
	h := Health{
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		MinDegree:  g.MinDegree(),
		MaxDegree:  g.MaxDegree(),
		MeanDegree: g.MeanDegree(),
		Connected:  g.Connected(),
		IsoExact:   -1,
	}
	if spectralIters > 0 {
		h.SpectralGap = g.SpectralGap(r, spectralIters)
	}
	if randomCuts > 0 {
		h.IsoEstimate = g.EstimateIsoperimetric(r, randomCuts)
	}
	if exact := g.ExactIsoperimetric(); exact >= 0 {
		h.IsoExact = exact
	}
	return h
}
