package graph

import (
	"fmt"

	"nowover/internal/xrand"
)

// RandomRegularish wires each vertex to approximately d distinct random
// peers (a configuration-model-style construction: E9's node networks and
// the test fixtures' expanders). The resulting degrees lie in [d, 2d]
// w.h.p.
func RandomRegularish[V comparable](g *Graph[V], r *xrand.Rand, vertices []V, d int) error {
	n := len(vertices)
	if d >= n {
		return fmt.Errorf("graph: degree %d too large for %d vertices", d, n)
	}
	for _, v := range vertices {
		for g.Degree(v) < d {
			u := vertices[r.Intn(n)]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Complete adds all pairwise edges over the vertices.
func Complete[V comparable](g *Graph[V], vertices []V) error {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if err := g.AddEdge(vertices[i], vertices[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
