package graph

// BFS runs a breadth-first search from src and returns the distance map
// (vertices unreachable from src are absent).
func (g *Graph[V]) BFS(src V) map[V]int {
	dist := make(map[V]int, len(g.adj))
	if !g.HasVertex(src) {
		return dist
	}
	dist[src] = 0
	queue := []V{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for empty and
// singleton graphs).
func (g *Graph[V]) Connected() bool {
	if len(g.order) <= 1 {
		return true
	}
	return len(g.BFS(g.order[0])) == len(g.adj)
}

// Components returns the connected components as vertex slices, each in
// insertion order, ordered by their earliest vertex.
func (g *Graph[V]) Components() [][]V {
	seen := make(map[V]bool, len(g.adj))
	var comps [][]V
	for _, v := range g.order {
		if seen[v] {
			continue
		}
		// Collect in insertion order for determinism.
		dist := g.BFS(v)
		var comp []V
		for _, u := range g.order {
			if _, ok := dist[u]; ok {
				comp = append(comp, u)
				seen[u] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
