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
type Overlay struct {
	params Params
	g      *graph.Graph[ids.ClusterID]
}

// New returns an empty overlay with the given degree discipline.
func New(params Params) (*Overlay, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Overlay{params: params, g: graph.New[ids.ClusterID]()}, nil
}

// Params returns the degree discipline.
func (o *Overlay) Params() Params { return o.params }

// Graph exposes the underlying graph for structural analysis. Callers must
// not mutate it.
func (o *Overlay) Graph() *graph.Graph[ids.ClusterID] { return o.g }

// NumVertices returns the overlay order.
func (o *Overlay) NumVertices() int { return o.g.NumVertices() }

// NumEdges returns the overlay size.
func (o *Overlay) NumEdges() int { return o.g.NumEdges() }

// Degree returns a vertex degree.
func (o *Overlay) Degree(c ids.ClusterID) int { return o.g.Degree(c) }

// Adjacent returns c's adjacency list without copying it. The slice is
// read-only and is invalidated by the next edge mutation incident to c
// (see graph.Graph.Adjacent).
func (o *Overlay) Adjacent(c ids.ClusterID) []ids.ClusterID { return o.g.Adjacent(c) }

// Neighbors returns a copy of c's adjacency list.
func (o *Overlay) Neighbors(c ids.ClusterID) []ids.ClusterID { return o.g.Neighbors(c) }

// Has reports whether c is an overlay vertex.
func (o *Overlay) Has(c ids.ClusterID) bool { return o.g.HasVertex(c) }

// Vertices returns the overlay vertices in insertion order.
func (o *Overlay) Vertices() []ids.ClusterID { return o.g.Vertices() }

// VertexAt returns the i-th overlay vertex in insertion order without
// copying the vertex list; 0 <= i < NumVertices.
func (o *Overlay) VertexAt(i int) ids.ClusterID { return o.g.VertexAt(i) }

// Bootstrap installs the initial Erdos-Renyi overlay over the given
// vertices with edge probability p, then adds a deterministic spanning
// chain between connected components so the walk-based machinery is usable
// even in small regimes where G(n,p) is disconnected (at the paper's scales
// the chain adds no edges w.h.p.). Returns the number of patch edges added.
func (o *Overlay) Bootstrap(r *xrand.Rand, vertices []ids.ClusterID, p float64) (int, error) {
	if o.g.NumVertices() != 0 {
		return 0, fmt.Errorf("over: bootstrap on non-empty overlay")
	}
	for _, v := range vertices {
		o.g.AddVertex(v)
	}
	if err := graph.ErdosRenyi(o.g, r, vertices, p); err != nil {
		return 0, err
	}
	patches := 0
	comps := o.g.Components()
	for i := 1; i < len(comps); i++ {
		// Link an arbitrary representative of each component to the first.
		if err := o.g.AddEdge(comps[0][0], comps[i][0]); err != nil {
			return patches, err
		}
		patches++
	}
	return patches, nil
}

// Add inserts vertex c and wires it to up to TargetDegree distinct
// endpoints obtained from pick, skipping self, duplicates and saturated
// endpoints (degree >= cap). attemptBudget bounds pick calls so a saturated
// or tiny overlay cannot loop forever. It charges one inter-cluster
// announcement per created edge. Returns the number of edges created.
func (o *Overlay) Add(led *metrics.Ledger, c ids.ClusterID, pick Picker, attemptBudget int) (int, error) {
	if o.g.HasVertex(c) {
		return 0, fmt.Errorf("over: add of existing vertex %v", c)
	}
	o.g.AddVertex(c)
	added := 0
	for attempts := 0; added < o.params.TargetDegree && attempts < attemptBudget; attempts++ {
		t, ok := pick(c)
		if !ok {
			break
		}
		if t == c || !o.g.HasVertex(t) || o.g.HasEdge(c, t) {
			continue
		}
		if o.g.Degree(t) >= o.params.DegreeCap {
			continue // redirect away from saturated vertices
		}
		if err := o.g.AddEdge(c, t); err != nil {
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
	if !o.g.HasVertex(c) {
		return 0, fmt.Errorf("over: remove of missing vertex %v", c)
	}
	former := o.g.Neighbors(c)
	o.g.RemoveVertex(c)
	if !o.params.Repair {
		return 0, nil
	}
	repaired := 0
	for _, u := range former {
		for attempts := 0; o.g.Degree(u) < o.params.DegreeFloor && attempts < attemptBudget; attempts++ {
			t, ok := pick(u)
			if !ok {
				break
			}
			if t == u || !o.g.HasVertex(t) || o.g.HasEdge(u, t) {
				continue
			}
			if o.g.Degree(t) >= o.params.DegreeCap {
				continue
			}
			if err := o.g.AddEdge(u, t); err != nil {
				return repaired, err
			}
			led.Charge(metrics.ClassInterCluster, 1)
			repaired++
		}
	}
	return repaired, nil
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
	h := Health{
		Vertices:   o.g.NumVertices(),
		Edges:      o.g.NumEdges(),
		MinDegree:  o.g.MinDegree(),
		MaxDegree:  o.g.MaxDegree(),
		MeanDegree: o.g.MeanDegree(),
		Connected:  o.g.Connected(),
		IsoExact:   -1,
	}
	if spectralIters > 0 {
		h.SpectralGap = o.g.SpectralGap(r, spectralIters)
	}
	if randomCuts > 0 {
		h.IsoEstimate = o.g.EstimateIsoperimetric(r, randomCuts)
	}
	if exact := o.g.ExactIsoperimetric(); exact >= 0 {
		h.IsoExact = exact
	}
	return h
}
