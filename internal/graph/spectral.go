package graph

import (
	"math"

	"nowover/internal/xrand"
)

// SpectralGap estimates the spectral gap of the lazy random walk on g:
// gap = (1 - lambda2)/2 where lambda2 is the second eigenvalue of the
// normalized adjacency matrix D^{-1/2} A D^{-1/2}. The lazy transform maps
// all eigenvalues into [0, 1], so bipartite structure cannot masquerade as
// expansion. Power iteration with deflation against the known principal
// eigenvector (sqrt of degrees) is used; iters controls accuracy.
//
// A positive gap certifies expansion via Cheeger's inequality:
// conductance >= gap (for the lazy walk, phi >= gap and phi <= sqrt(2*gap)
// up to the usual constants). Returns 0 for graphs with < 2 vertices or
// isolated vertices.
func (g *Graph[V]) SpectralGap(r *xrand.Rand, iters int) float64 {
	_, _, lambda, ok := g.lazyWalkPower(r, iters)
	if !ok {
		return 0 // < 2 vertices, or an isolated vertex: the walk is reducible
	}
	if lambda > 1 {
		lambda = 1
	}
	return 1 - lambda
}

// lazyWalkPower runs iters steps of power iteration, from a random start
// drawn from r, on the lazy normalized adjacency operator
// (I + D^{-1/2} A D^{-1/2}) / 2 deflated against its principal eigenvector
// (sqrt of degrees). It returns the final iterate x, the degrees and the
// last Rayleigh quotient, the second eigenvalue's estimate; ok is false for
// a graph with < 2 vertices or an isolated vertex.
func (g *Graph[V]) lazyWalkPower(r *xrand.Rand, iters int) (x, deg []float64, lambda float64, ok bool) {
	vs := g.order
	n := len(vs)
	if n < 2 {
		return nil, nil, 0, false
	}
	idx := make(map[V]int, n)
	deg = make([]float64, n)
	for i, v := range vs {
		idx[v] = i
		deg[i] = float64(len(g.adj[v]))
		if deg[i] == 0 {
			return nil, nil, 0, false
		}
	}
	// Principal eigenvector of the normalized adjacency: u_i ~ sqrt(d_i).
	u := make([]float64, n)
	var norm float64
	for i := range u {
		u[i] = math.Sqrt(deg[i])
		norm += u[i] * u[i]
	}
	norm = math.Sqrt(norm)
	for i := range u {
		u[i] /= norm
	}

	x = make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	for it := 0; it < iters; it++ {
		orthonormalize(x, u)
		// y = M_lazy x where M_lazy = (I + D^{-1/2} A D^{-1/2}) / 2.
		for i := range y {
			y[i] = 0
		}
		for i, v := range vs {
			for _, w := range g.adj[v] {
				j := idx[w]
				y[j] += x[i] / math.Sqrt(deg[i]*deg[j])
			}
		}
		for i := range y {
			y[i] = (x[i] + y[i]) / 2
		}
		lambda = dot(x, y) // Rayleigh quotient, since x is unit-norm
		x, y = y, x
	}
	return x, deg, lambda, true
}

// orthonormalize projects x off u (unit vector) and rescales x to unit norm.
func orthonormalize(x, u []float64) {
	p := dot(x, u)
	var norm float64
	for i := range x {
		x[i] -= p * u[i]
		norm += x[i] * x[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		// Degenerate restart; extremely unlikely with random init.
		x[0] = 1
		return
	}
	for i := range x {
		x[i] /= norm
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// EdgeExpansion returns the edge expansion of the cut: E(S, S~)/|S| with
// |S| <= n/2 enforced by flipping the side if needed. This is the quantity
// inside the paper's isoperimetric constant (Property 1). Returns 0 for
// trivial cuts.
func (g *Graph[V]) EdgeExpansion(s map[V]bool) float64 {
	size := 0
	for _, v := range g.order {
		if s[v] {
			size++
		}
	}
	if size == 0 || size == len(g.order) {
		return 0
	}
	if size > len(g.order)/2 {
		flipped := make(map[V]bool, len(g.order)-size)
		for _, v := range g.order {
			if !s[v] {
				flipped[v] = true
			}
		}
		s = flipped
		size = len(g.order) - size
	}
	cut := 0
	for _, v := range g.order {
		if !s[v] {
			continue
		}
		for _, w := range g.adj[v] {
			if !s[w] {
				cut++
			}
		}
	}
	return float64(cut) / float64(size)
}
