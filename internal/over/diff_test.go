package over

import (
	"fmt"
	"testing"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// refOverlay is OVER's Bootstrap/Add/Remove written directly on the
// generic map-backed graph.Graph: the reference the ClusterID-indexed
// Overlay must reproduce vertex for vertex and neighbour for neighbour.
type refOverlay struct {
	params Params
	g      *graph.Graph[ids.ClusterID]
}

func (o *refOverlay) bootstrap(r *xrand.Rand, vertices []ids.ClusterID, p float64) (int, error) {
	for _, v := range vertices {
		o.g.AddVertex(v)
	}
	if err := graph.ErdosRenyi(o.g, r, vertices, p); err != nil {
		return 0, err
	}
	comps := o.g.Components()
	for i := 1; i < len(comps); i++ {
		if err := o.g.AddEdge(comps[0][0], comps[i][0]); err != nil {
			return i - 1, err
		}
	}
	return len(comps) - 1, nil
}

// wire adds edges from u to picked endpoints while want(made) holds and
// the attempt budget lasts, with Add's and Remove's skip rules.
func (o *refOverlay) wire(led *metrics.Ledger, u ids.ClusterID, want func(made int) bool, pick Picker, budget int) int {
	made := 0
	for attempts := 0; want(made) && attempts < budget; attempts++ {
		t, ok := pick(u)
		if !ok {
			break
		}
		if t == u || !o.g.HasVertex(t) || o.g.HasEdge(u, t) || o.g.Degree(t) >= o.params.DegreeCap {
			continue
		}
		if err := o.g.AddEdge(u, t); err != nil {
			panic(err)
		}
		led.Charge(metrics.ClassInterCluster, 1)
		made++
	}
	return made
}

func (o *refOverlay) add(led *metrics.Ledger, c ids.ClusterID, pick Picker, budget int) int {
	o.g.AddVertex(c)
	return o.wire(led, c, func(made int) bool { return made < o.params.TargetDegree }, pick, budget)
}

func (o *refOverlay) remove(led *metrics.Ledger, c ids.ClusterID, pick Picker, budget int) int {
	former := o.g.Neighbors(c)
	o.g.RemoveVertex(c)
	if !o.params.Repair {
		return 0
	}
	repaired := 0
	for _, u := range former {
		repaired += o.wire(led, u, func(int) bool { return o.g.Degree(u) < o.params.DegreeFloor }, pick, budget)
	}
	return repaired
}

// candidatePicker draws endpoints from the ID range [0, hi) — vertices,
// retired IDs and (when from is drawn) the vertex itself — so the skip
// paths run too. Both sides of the lockstep get a picker on their own
// stream of the same seed, so they see the same candidates.
func candidatePicker(r *xrand.Rand, hi *int) Picker {
	return func(ids.ClusterID) (ids.ClusterID, bool) {
		if r.Bool(0.02) {
			return 0, false
		}
		return ids.ClusterID(r.Intn(*hi)), true
	}
}

// requireSameOverlay asserts that the indexed overlay and the reference
// agree on everything a caller can observe.
func requireSameOverlay(t *testing.T, step string, o *Overlay, ref *graph.Graph[ids.ClusterID], hi int) {
	t.Helper()
	if o.NumVertices() != ref.NumVertices() || o.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: order/size %d/%d, reference %d/%d", step, o.NumVertices(), o.NumEdges(), ref.NumVertices(), ref.NumEdges())
	}
	refOrder := ref.Vertices()
	for i, v := range refOrder {
		if got := o.VertexAt(i); got != v {
			t.Fatalf("%s: VertexAt(%d) = %v, reference %v", step, i, got, v)
		}
	}
	for c := ids.ClusterID(0); int(c) < hi; c++ {
		if o.Has(c) != ref.HasVertex(c) {
			t.Fatalf("%s: Has(%v) = %v, reference %v", step, c, o.Has(c), ref.HasVertex(c))
		}
		if got, want := fmt.Sprint(o.Adjacent(c)), fmt.Sprint(ref.Neighbors(c)); len(o.Adjacent(c))+len(ref.Neighbors(c)) > 0 && got != want {
			t.Fatalf("%s: Adjacent(%v) = %s, reference %s", step, c, got, want)
		}
	}
	if o.Connected() != ref.Connected() {
		t.Fatalf("%s: Connected() = %v, reference %v", step, o.Connected(), ref.Connected())
	}
	if lo, hiDeg := o.DegreeRange(); lo != ref.MinDegree() || hiDeg != ref.MaxDegree() {
		t.Fatalf("%s: degree range [%d,%d], reference [%d,%d]", step, lo, hiDeg, ref.MinDegree(), ref.MaxDegree())
	}
	snap := o.Snapshot()
	if fmt.Sprint(snap.Vertices()) != fmt.Sprint(refOrder) || snap.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: snapshot order/size differ from reference", step)
	}
	for _, v := range refOrder {
		if fmt.Sprint(snap.Neighbors(v)) != fmt.Sprint(ref.Neighbors(v)) {
			t.Fatalf("%s: snapshot adjacency of %v = %v, reference %v", step, v, snap.Neighbors(v), ref.Neighbors(v))
		}
	}
	if err := o.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestOverlayMatchesGraphReference runs seeded random Bootstrap/Add/Remove
// sequences in lockstep on the indexed Overlay and on the graph.Graph
// reference, and requires identical vertex order, adjacency order,
// connectivity, degree range, snapshot and return values after every step.
// The parameter sets cover repair on and off (removals then disconnect the
// overlay) and a tight cap (Add and repair then hit saturated endpoints).
func TestOverlayMatchesGraphReference(t *testing.T) {
	paramSets := []Params{
		{TargetDegree: 6, DegreeCap: 18, DegreeFloor: 3, Repair: true},
		{TargetDegree: 3, DegreeCap: 4, DegreeFloor: 2, Repair: true},
		{TargetDegree: 2, DegreeCap: 3, DegreeFloor: 1, Repair: false},
	}
	for pi, params := range paramSets {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("params%d/seed%d", pi, seed), func(t *testing.T) {
				o, err := New(params)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refOverlay{params: params, g: graph.New[ids.ClusterID]()}
				script := xrand.New(seed)
				n0 := 8 + script.Intn(40)
				var vs []ids.ClusterID
				for i := 0; i < n0; i++ {
					vs = append(vs, ids.ClusterID(i))
				}
				p := []float64{0, 0.5 / float64(n0), 4.0 / float64(n0), 1}[script.Intn(4)]
				gotPatches, err := o.Bootstrap(xrand.New(seed+100), vs, p)
				if err != nil {
					t.Fatal(err)
				}
				wantPatches, err := ref.bootstrap(xrand.New(seed+100), vs, p)
				if err != nil {
					t.Fatal(err)
				}
				if gotPatches != wantPatches {
					t.Fatalf("bootstrap patches %d, reference %d", gotPatches, wantPatches)
				}
				hi := n0 + 2
				requireSameOverlay(t, "bootstrap", o, ref.g, hi)

				pickO := candidatePicker(xrand.New(seed+200), &hi)
				pickR := candidatePicker(xrand.New(seed+200), &hi)
				var ledO, ledR metrics.Ledger
				next := ids.ClusterID(n0)
				for step := 0; step < 300; step++ {
					var got, want int
					var name string
					if o.NumVertices() > 2 && script.Bool(0.5) {
						victim := o.VertexAt(script.Intn(o.NumVertices()))
						name = fmt.Sprintf("step %d remove %v", step, victim)
						if got, err = o.Remove(&ledO, victim, pickO, 20); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want = ref.remove(&ledR, victim, pickR, 20)
					} else {
						c := next
						next++
						hi = int(next) + 2
						name = fmt.Sprintf("step %d add %v", step, c)
						if got, err = o.Add(&ledO, c, pickO, 20); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want = ref.add(&ledR, c, pickR, 20)
					}
					if got != want {
						t.Fatalf("%s: made %d edges, reference %d", name, got, want)
					}
					if ledO.Messages() != ledR.Messages() {
						t.Fatalf("%s: charged %d, reference %d", name, ledO.Messages(), ledR.Messages())
					}
					requireSameOverlay(t, name, o, ref.g, hi)
				}
			})
		}
	}
}

// TestCheckCatchesCorruption breaks one structural invariant at a time on
// a healthy overlay and requires Check to name it.
func TestCheckCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		breakO func(o *Overlay)
	}{
		{"asymmetric edge", func(o *Overlay) { o.adj[0] = append(o.adj[0], o.absentNeighbour(0)) }},
		{"self-loop", func(o *Overlay) { o.adj[1] = append(o.adj[1], 1); o.adj[1] = append(o.adj[1], 1); o.edges++ }},
		{"duplicate edge", func(o *Overlay) {
			u := o.adj[2][0]
			o.adj[2] = append(o.adj[2], u)
			o.adj[u] = append(o.adj[u], 2)
			o.edges++
		}},
		{"edge count", func(o *Overlay) { o.edges++ }},
		{"position index", func(o *Overlay) { o.pos[o.order[0]], o.pos[o.order[1]] = o.pos[o.order[1]], o.pos[o.order[0]] }},
		{"edge to absent vertex", func(o *Overlay) {
			o.adj = append(o.adj, nil)
			o.pos = append(o.pos, 0)
			absent := ids.ClusterID(len(o.adj) - 1)
			o.adj[0] = append(o.adj[0], absent)
			o.adj[absent] = append(o.adj[absent], 0)
			o.edges++
		}},
		{"degree above bound", func(o *Overlay) { o.degreeBound = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _ := bootstrapped(t, 12, 0.5)
			if err := o.Check(); err != nil {
				t.Fatalf("healthy overlay: %v", err)
			}
			tc.breakO(o)
			if err := o.Check(); err == nil {
				t.Fatal("Check accepted a corrupted overlay")
			}
		})
	}
}

// absentNeighbour returns a vertex that is not adjacent to c.
func (o *Overlay) absentNeighbour(c ids.ClusterID) ids.ClusterID {
	for _, v := range o.order {
		if v != c && !o.hasEdge(c, v) {
			return v
		}
	}
	panic("complete overlay")
}
