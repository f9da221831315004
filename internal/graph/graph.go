// Package graph provides the generic undirected graph that the structural
// analyses run on — snapshots of the OVER overlay (over.Overlay.Snapshot)
// and the initialization-phase node network — with the quantities the
// paper's properties are stated in terms of: degrees, connectivity,
// spectral gap and isoperimetric (edge-expansion) constants. It is also
// the map-backed reference the indexed overlay is checked against.
package graph

import "fmt"

// Graph is a simple undirected graph over comparable vertices. Adjacency
// lists preserve insertion order, so iteration is deterministic for a
// deterministic operation sequence. Self-loops and parallel edges are
// rejected. The zero value is not usable; call New.
type Graph[V comparable] struct {
	adj   map[V][]V
	order []V // insertion order of vertices
	edges int
}

// New returns an empty graph.
func New[V comparable]() *Graph[V] {
	return &Graph[V]{adj: make(map[V][]V)}
}

// FromAdjacency returns a graph with the given vertex order whose
// adjacency lists are copies of adjacent(v), in the order given. The lists
// must describe a simple undirected graph (symmetric, no self-loops or
// duplicates, every endpoint in order); FromAdjacency does not check this.
// It lets an index-backed store hand the analyses a graph that iterates
// exactly as it does.
func FromAdjacency[V comparable](order []V, adjacent func(V) []V) *Graph[V] {
	g := &Graph[V]{adj: make(map[V][]V, len(order)), order: make([]V, len(order))}
	copy(g.order, order)
	degrees := 0
	for _, v := range order {
		nbrs := adjacent(v)
		g.adj[v] = append([]V(nil), nbrs...)
		degrees += len(nbrs)
	}
	g.edges = degrees / 2
	return g
}

// AddVertex inserts v, returning true if it was not present.
func (g *Graph[V]) AddVertex(v V) bool {
	if _, ok := g.adj[v]; ok {
		return false
	}
	g.adj[v] = nil
	g.order = append(g.order, v)
	return true
}

// HasVertex reports whether v is present.
func (g *Graph[V]) HasVertex(v V) bool {
	_, ok := g.adj[v]
	return ok
}

// RemoveVertex deletes v and all incident edges, returning true if it was
// present.
func (g *Graph[V]) RemoveVertex(v V) bool {
	nbrs, ok := g.adj[v]
	if !ok {
		return false
	}
	for _, u := range nbrs {
		g.removeDirected(u, v)
		g.edges--
	}
	delete(g.adj, v)
	for i, u := range g.order {
		if u == v {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return true
}

// AddEdge inserts the undirected edge {u, v}. It returns an error if either
// endpoint is missing, u == v, or the edge already exists.
func (g *Graph[V]) AddEdge(u, v V) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on %v", u)
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return fmt.Errorf("graph: edge %v-%v references missing vertex", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %v-%v", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

func (g *Graph[V]) removeDirected(from, to V) {
	lst := g.adj[from]
	for i, w := range lst {
		if w == to {
			g.adj[from] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// HasEdge reports whether {u, v} exists.
func (g *Graph[V]) HasEdge(u, v V) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v in insertion order. The
// returned slice is a copy.
func (g *Graph[V]) Neighbors(v V) []V {
	nbrs := g.adj[v]
	out := make([]V, len(nbrs))
	copy(out, nbrs)
	return out
}

// Degree returns the degree of v (0 if absent).
func (g *Graph[V]) Degree(v V) int { return len(g.adj[v]) }

// NumVertices returns the vertex count.
func (g *Graph[V]) NumVertices() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph[V]) NumEdges() int { return g.edges }

// Vertices returns all vertices in insertion order. The returned slice is a
// copy.
func (g *Graph[V]) Vertices() []V {
	out := make([]V, len(g.order))
	copy(out, g.order)
	return out
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph[V]) MinDegree() int {
	first := true
	minDeg := 0
	for _, v := range g.order {
		d := len(g.adj[v])
		if first || d < minDeg {
			minDeg = d
			first = false
		}
	}
	return minDeg
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph[V]) MaxDegree() int {
	maxDeg := 0
	for _, v := range g.order {
		if d := len(g.adj[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// MeanDegree returns the average degree, or 0 for an empty graph.
func (g *Graph[V]) MeanDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}
