package graph

import (
	"math"
	"sort"

	"nowover/internal/xrand"
)

// _exactIsoLimit bounds exhaustive isoperimetric computation: 2^20 subsets
// with O(n) work each stays around a second.
const _exactIsoLimit = 20

// ExactIsoperimetric computes the exact isoperimetric (edge expansion)
// constant I(G) = min_{0<|S|<=n/2} E(S, S~)/|S| by exhaustive subset
// enumeration over bitmasks. It returns -1 when the graph has more than 20
// vertices (use EstimateIsoperimetric) or fewer than 2.
func (g *Graph[V]) ExactIsoperimetric() float64 {
	n := len(g.order)
	if n < 2 || n > _exactIsoLimit {
		return -1
	}
	idx := make(map[V]int, n)
	for i, v := range g.order {
		idx[v] = i
	}
	adj := make([]uint32, n)
	for i, v := range g.order {
		for _, w := range g.adj[v] {
			adj[i] |= 1 << uint(idx[w])
		}
	}
	best := math.Inf(1)
	half := n / 2
	for s := uint32(1); s < 1<<uint(n); s++ {
		size := popcount32(s)
		if size > half {
			continue
		}
		cut := 0
		rest := s
		for rest != 0 {
			i := trailingZeros32(rest)
			rest &= rest - 1
			cut += popcount32(adj[i] &^ s)
		}
		if h := float64(cut) / float64(size); h < best {
			best = h
		}
	}
	return best
}

func popcount32(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func trailingZeros32(x uint32) int {
	if x == 0 {
		return 32
	}
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// EstimateIsoperimetric returns an upper bound on I(G) obtained from the
// best of (a) spectral sweep cuts (sort vertices by the second eigenvector
// and take the best prefix cut) and (b) random balanced cuts. Upper bounds
// are the honest direction for a minimum; a *high* estimate is evidence of
// expansion, and sweep cuts are near-optimal on expanders by Cheeger theory.
func (g *Graph[V]) EstimateIsoperimetric(r *xrand.Rand, randomCuts int) float64 {
	n := len(g.order)
	if n < 2 {
		return 0
	}
	best := math.Inf(1)

	// Spectral sweep: order vertices by Fiedler-like vector.
	if vec := g.secondVector(r, 60); vec != nil {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return vec[perm[a]] < vec[perm[b]] })
		s := make(map[V]bool, n/2)
		for i := 0; i < n/2; i++ {
			s[g.order[perm[i]]] = true
			if h := g.EdgeExpansion(copySet(s)); h > 0 && h < best {
				best = h
			}
		}
	}

	// Random balanced cuts.
	for c := 0; c < randomCuts; c++ {
		size := 1 + r.Intn(n/2)
		s := make(map[V]bool, size)
		for _, i := range xrand.SampleWithoutReplacement(r, n, size) {
			s[g.order[i]] = true
		}
		if h := g.EdgeExpansion(s); h > 0 && h < best {
			best = h
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

func copySet[V comparable](s map[V]bool) map[V]bool {
	out := make(map[V]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// secondVector returns an approximation of the second eigenvector of the
// lazy normalized adjacency operator (the embedding used for sweep cuts),
// or nil for degenerate graphs.
func (g *Graph[V]) secondVector(r *xrand.Rand, iters int) []float64 {
	x, deg, _, ok := g.lazyWalkPower(r, iters)
	if !ok {
		return nil
	}
	// Undo the D^{1/2} conjugation so the sweep is on the walk eigenvector.
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] / math.Sqrt(deg[i])
	}
	return out
}
