package graph

import (
	"testing"
	"testing/quick"

	"nowover/internal/xrand"
)

func buildPath(t *testing.T, n int) *Graph[int] {
	t.Helper()
	g := New[int]()
	for i := 0; i < n; i++ {
		g.AddVertex(i)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// buildRing closes a path into an n-cycle, a deliberately poor expander.
func buildRing(t *testing.T, n int) *Graph[int] {
	t.Helper()
	g := buildPath(t, n)
	if err := g.AddEdge(n-1, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddRemoveVertex(t *testing.T) {
	g := New[string]()
	if !g.AddVertex("a") || g.AddVertex("a") {
		t.Fatal("AddVertex idempotence broken")
	}
	g.AddVertex("b")
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveVertex("a") {
		t.Fatal("RemoveVertex returned false")
	}
	if g.HasVertex("a") || g.NumEdges() != 0 || g.Degree("b") != 0 {
		t.Fatal("vertex removal left stale state")
	}
	if g.RemoveVertex("a") {
		t.Fatal("double removal returned true")
	}
}

func TestEdgeValidation(t *testing.T) {
	g := New[int]()
	g.AddVertex(1)
	g.AddVertex(2)
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(1, 3); err == nil {
		t.Error("edge to missing vertex accepted")
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := buildPath(t, 5)
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(2))
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 2 {
		t.Errorf("min/max degree = %d/%d", g.MinDegree(), g.MaxDegree())
	}
	nbrs := g.Neighbors(2)
	if len(nbrs) != 2 {
		t.Fatalf("Neighbors(2) = %v", nbrs)
	}
	want := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if g.MeanDegree() != want {
		t.Errorf("MeanDegree = %v, want %v", g.MeanDegree(), want)
	}
}

func TestBFS(t *testing.T) {
	g := buildPath(t, 6)
	dist := g.BFS(0)
	if dist[5] != 5 || len(dist) != 6 {
		t.Errorf("dist 0->5 = %d over %d reached", dist[5], len(dist))
	}
	g.AddVertex(6)
	if _, ok := g.BFS(0)[6]; ok {
		t.Error("isolated vertex reached")
	}
}

func TestComponents(t *testing.T) {
	g := New[int]()
	for i := 0; i < 6; i++ {
		g.AddVertex(i)
	}
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if g.Connected() {
		t.Error("Connected() true for disconnected graph")
	}
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	_ = g.AddEdge(4, 5)
	if !g.Connected() {
		t.Error("Connected() false after linking")
	}
}

func TestRandomRegularish(t *testing.T) {
	g := New[int]()
	var vs []int
	for i := 0; i < 100; i++ {
		g.AddVertex(i)
		vs = append(vs, i)
	}
	if err := RandomRegularish(g, xrand.New(2), vs, 6); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if g.Degree(v) < 6 {
			t.Errorf("vertex %d degree %d < 6", v, g.Degree(v))
		}
	}
}

func TestSpectralGapOrdering(t *testing.T) {
	r := xrand.New(3)
	n := 64
	ring := buildRing(t, n)
	expander := New[int]()
	var vs []int
	for i := 0; i < n; i++ {
		expander.AddVertex(i)
		vs = append(vs, i)
	}
	if err := RandomRegularish(expander, r, vs, 8); err != nil {
		t.Fatal(err)
	}
	gapRing := ring.SpectralGap(r, 200)
	gapExp := expander.SpectralGap(r, 200)
	if gapExp <= gapRing {
		t.Errorf("expander gap %.4f <= ring gap %.4f", gapExp, gapRing)
	}
	if gapRing < 0 || gapExp > 0.55 {
		t.Errorf("gaps out of range: ring=%v exp=%v", gapRing, gapExp)
	}
	k := New[int]()
	for _, v := range vs[:8] {
		k.AddVertex(v)
	}
	if err := Complete(k, vs[:8]); err != nil {
		t.Fatal(err)
	}
	if gapK := k.SpectralGap(r, 200); gapK < 0.4 {
		t.Errorf("complete-graph gap %.4f too small", gapK)
	}
}

func TestExactIsoperimetric(t *testing.T) {
	// K4: removing any subset S (|S|<=2) cuts |S|*(4-|S|) edges; minimum
	// ratio is at |S|=2: 4/2 = 2... and |S|=1: 3/1=3, so I(K4)=2.
	k4 := New[int]()
	vs := []int{0, 1, 2, 3}
	for _, v := range vs {
		k4.AddVertex(v)
	}
	if err := Complete(k4, vs); err != nil {
		t.Fatal(err)
	}
	if got := k4.ExactIsoperimetric(); got != 2 {
		t.Errorf("I(K4) = %v, want 2", got)
	}
	// Path P4: cutting at the middle edge gives 1/2.
	p := buildPath(t, 4)
	if got := p.ExactIsoperimetric(); got != 0.5 {
		t.Errorf("I(P4) = %v, want 0.5", got)
	}
	big := New[int]()
	for i := 0; i < 30; i++ {
		big.AddVertex(i)
	}
	if got := big.ExactIsoperimetric(); got != -1 {
		t.Errorf("oversized exact iso = %v, want -1", got)
	}
}

func TestEstimateIsoperimetricUpperBounds(t *testing.T) {
	r := xrand.New(5)
	p := buildPath(t, 16)
	est := p.EstimateIsoperimetric(r, 100)
	exact := p.ExactIsoperimetric()
	if est < exact-1e-9 {
		t.Errorf("estimate %v below exact %v (must upper-bound)", est, exact)
	}
	// On a path the sweep cut should find something close to the true cut.
	if est > 3*exact {
		t.Errorf("estimate %v too loose vs exact %v", est, exact)
	}
}

func TestEdgeExpansion(t *testing.T) {
	g := buildPath(t, 4)
	s := map[int]bool{0: true, 1: true}
	if h := g.EdgeExpansion(s); h != 0.5 {
		t.Errorf("expansion = %v, want 0.5", h)
	}
	// Flipping the side must give the same value (|S| normalization).
	s2 := map[int]bool{2: true, 3: true}
	if h := g.EdgeExpansion(s2); h != 0.5 {
		t.Errorf("flipped expansion = %v, want 0.5", h)
	}
}

func TestVerticesInsertionOrder(t *testing.T) {
	g := New[int]()
	for _, v := range []int{5, 3, 9} {
		g.AddVertex(v)
	}
	vs := g.Vertices()
	if vs[0] != 5 || vs[1] != 3 || vs[2] != 9 {
		t.Errorf("Vertices = %v, want insertion order", vs)
	}
}

func TestGraphInvariantsProperty(t *testing.T) {
	// Random edit scripts (edge inserts, vertex removals and re-inserts)
	// preserve: edge count == sum(deg)/2, symmetry.
	if err := quick.Check(func(seed uint64, ops []uint16) bool {
		r := xrand.New(seed)
		g := New[int]()
		const n = 12
		for i := 0; i < n; i++ {
			g.AddVertex(i)
		}
		for _, op := range ops {
			u, v := int(op)%n, int(op>>4)%n
			if u == v {
				continue
			}
			switch {
			case r.Bool(0.5):
				if !g.HasEdge(u, v) {
					_ = g.AddEdge(u, v)
				}
			default:
				g.RemoveVertex(u)
				g.AddVertex(u)
			}
		}
		sum := 0
		for _, v := range g.Vertices() {
			sum += g.Degree(v)
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return sum == 2*g.NumEdges()
	}, nil); err != nil {
		t.Fatal(err)
	}
}
