package over

import (
	"fmt"
	"slices"
	"strings"
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
	var err error
	drawLandings(r, len(vertices), p, func(i, j int) {
		if err == nil {
			err = o.g.AddEdge(vertices[i], vertices[j])
		}
	})
	if err != nil {
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
// paths run too. Each pick, a failed one included, first charges led 1 to
// 8 rounds from the same stream, as a walk of that length would, and
// reports its start and rounds to log, when log is not nil. Both sides of
// the lockstep get a picker on their own stream of the same seed, so they
// see the same candidates.
func candidatePicker(r *xrand.Rand, hi *int, led *metrics.Ledger, log func(from ids.ClusterID, rounds int64)) Picker {
	return func(from ids.ClusterID) (ids.ClusterID, bool) {
		rounds := int64(1 + r.Intn(8))
		led.AddRounds(rounds)
		if log != nil {
			log(from, rounds)
		}
		if r.Bool(0.02) {
			return 0, false
		}
		return ids.ClusterID(r.Intn(*hi)), true
	}
}

// attempt is one pick of the serial reference: the vertex being wired,
// its degree before the pick and the pick's rounds.
type attempt struct {
	from   ids.ClusterID
	degree int
	rounds int64
}

// waveRounds is the critical path of one Add's or Remove's serial trace
// charged as the overlay charges it: each vertex's attempts (a run of
// picks from it) form waves of the next want − degree attempts, capped by
// what is left of the budget, and a wave adds its longest pick's rounds;
// the vertices' repairs are concurrent, so the op adds the longest
// vertex's sum.
func waveRounds(trace []attempt, want, budget int) int64 {
	var longest int64
	for i := 0; i < len(trace); {
		from, start := trace[i].from, i
		var sum int64
		for i < len(trace) && trace[i].from == from {
			end := min(i+want-trace[i].degree, start+budget, len(trace))
			var wave int64
			for ; i < end && trace[i].from == from; i++ {
				wave = max(wave, trace[i].rounds)
			}
			sum += wave
		}
		longest = max(longest, sum)
	}
	return longest
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

// requireMass asserts that every ID below hi has the neighbour mass the
// reference's adjacency and the weights set so far give it.
func requireMass(t *testing.T, step string, o *Overlay, ref *graph.Graph[ids.ClusterID], weight []int64, hi int) {
	t.Helper()
	for c := ids.ClusterID(0); int(c) < hi; c++ {
		var want int64
		if ref.HasVertex(c) {
			for _, u := range ref.Neighbors(c) {
				want += weight[u]
			}
		}
		if got := o.NeighborMass(c); got != want {
			t.Fatalf("%s: NeighborMass(%v) = %d, recount %d", step, c, got, want)
		}
		if got := o.Weight(c); got != weight[c] {
			t.Fatalf("%s: Weight(%v) = %d, set %d", step, c, got, weight[c])
		}
	}
}

// TestOverlayMatchesGraphReference runs seeded random Bootstrap/Add/Remove
// sequences in lockstep on the indexed Overlay and on the graph.Graph
// reference, and requires identical vertex order, adjacency order,
// connectivity, degree range, snapshot and return values after every step.
// The parameter sets cover repair on and off (removals then disconnect the
// overlay) and a tight cap (Add and repair then hit saturated endpoints).
// Weights are set before Bootstrap and between steps, on vertices, removed
// vertices and IDs not yet added alike, and every neighbour mass must
// equal a recount from the reference after every step and every SetWeight.
// The reference wires one pick after another, so after every step the
// picker's stream must stand where the reference's does, and the overlay's
// rounds must equal waveRounds over the reference's picks.
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
				// weight covers every ID the script can name: n0 plus 300
				// steps' additions plus the picker's headroom. Reweighs draw
				// on their own stream, so the op script is unchanged.
				weight := make([]int64, n0+303)
				weights := xrand.New(seed + 300)
				reweigh := func(step string, hi int) {
					for k := weights.Intn(4); k > 0; k-- {
						c := ids.ClusterID(weights.Intn(hi))
						weight[c] = int64(weights.Intn(50))
						o.SetWeight(c, weight[c])
						requireMass(t, step+" reweigh", o, ref.g, weight, hi)
					}
				}
				reweigh("before bootstrap", n0)
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
				requireMass(t, "bootstrap", o, ref.g, weight, hi)

				var ledO, ledR metrics.Ledger
				var trace []attempt
				streamO, streamR := xrand.New(seed+200), xrand.New(seed+200)
				pickO := candidatePicker(streamO, &hi, &ledO, nil)
				pickR := candidatePicker(streamR, &hi, &ledR, func(from ids.ClusterID, rounds int64) {
					trace = append(trace, attempt{from, ref.g.Degree(from), rounds})
				})
				next := ids.ClusterID(n0)
				waved := false
				for step := 0; step < 300; step++ {
					var got, want, degree int
					var name string
					trace = trace[:0]
					roundsO, roundsR := ledO.Rounds(), ledR.Rounds()
					if o.NumVertices() > 2 && script.Bool(0.5) {
						victim := o.VertexAt(script.Intn(o.NumVertices()))
						name = fmt.Sprintf("step %d remove %v", step, victim)
						if got, err = o.Remove(&ledO, victim, pickO, 20); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want = ref.remove(&ledR, victim, pickR, 20)
						degree = params.DegreeFloor
					} else {
						c := next
						next++
						hi = int(next) + 2
						name = fmt.Sprintf("step %d add %v", step, c)
						if got, err = o.Add(&ledO, c, pickO, 20); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want = ref.add(&ledR, c, pickR, 20)
						degree = params.TargetDegree
					}
					if got != want {
						t.Fatalf("%s: made %d edges, reference %d", name, got, want)
					}
					if ledO.Messages() != ledR.Messages() {
						t.Fatalf("%s: charged %d, reference %d", name, ledO.Messages(), ledR.Messages())
					}
					if oHi, oLo := streamO.PCG().State(); fmt.Sprint(streamR.PCG().State()) != fmt.Sprint(oHi, oLo) {
						t.Fatalf("%s: the picker's stream is not where the reference's is", name)
					}
					if got, want := ledO.Rounds()-roundsO, waveRounds(trace, degree, 20); got != want {
						t.Fatalf("%s: charged %d rounds, the reference's waves over %v give %d", name, got, trace, want)
					}
					if serial := ledR.Rounds() - roundsR; ledO.Rounds()-roundsO < serial {
						waved = true
					}
					requireSameOverlay(t, name, o, ref.g, hi)
					requireMass(t, name, o, ref.g, weight, hi)
					reweigh(name, hi)
				}
				if !waved {
					t.Error("no op was charged fewer rounds than its serial picks: the waves were never exercised")
				}
			})
		}
	}
}

// TestCheckCatchesCorruption breaks one structural invariant at a time on
// a healthy overlay and requires Check to name it: each break returns a
// text the error must hold, the vertex or edge at fault included. The two
// redirected entries keep the edge count and the degree sum: an up entry
// redirected below its vertex leaves every up entry with its twin, so
// only the up and down counts can show it, and the twinless scan names
// the redirected entry; a down entry redirected above is caught at the
// up entry that lost its twin.
func TestCheckCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		breakO func(o *Overlay) string
	}{
		{"asymmetric edge", func(o *Overlay) string {
			u := o.absentNeighbour(0)
			o.adj[0] = append(o.adj[0], u)
			return fmt.Sprintf("edge C0-%v is not symmetric", u)
		}},
		{"up entry redirected below", func(o *Overlay) string {
			v, i, w := o.redirectable(func(v, u ids.ClusterID) bool { return u > v }, func(v, w ids.ClusterID) bool { return w < v })
			o.adj[v][i] = w
			return fmt.Sprintf("edge %v-%v is not symmetric", v, w)
		}},
		{"down entry redirected above", func(o *Overlay) string {
			v, i, w := o.redirectable(func(v, u ids.ClusterID) bool { return u < v }, func(v, w ids.ClusterID) bool { return w > v })
			u := o.adj[v][i]
			o.adj[v][i] = w
			return fmt.Sprintf("edge %v-%v is not symmetric", u, v)
		}},
		{"self-loop", func(o *Overlay) string {
			o.adj[1] = append(o.adj[1], 1)
			o.adj[1] = append(o.adj[1], 1)
			o.edges++
			return "self-loop on C1"
		}},
		{"duplicate edge", func(o *Overlay) string {
			u := o.adj[2][0]
			o.adj[2] = append(o.adj[2], u)
			o.adj[u] = append(o.adj[u], 2)
			o.edges++
			// The scan meets the repeat in the list of the lower vertex.
			return fmt.Sprintf("duplicate edge %v-%v", min(u, 2), max(u, 2))
		}},
		{"edge count", func(o *Overlay) string {
			o.edges++
			return fmt.Sprintf("edge count %d vs degree sum %d", o.edges, 2*o.edges-2)
		}},
		{"position index", func(o *Overlay) string {
			o.pos[o.order[0]], o.pos[o.order[1]] = o.pos[o.order[1]], o.pos[o.order[0]]
			return fmt.Sprintf("position index of %v is 1", o.order[0])
		}},
		{"edge to absent vertex", func(o *Overlay) string {
			o.adj = append(o.adj, nil)
			o.pos = append(o.pos, 0)
			absent := ids.ClusterID(len(o.adj) - 1)
			o.adj[0] = append(o.adj[0], absent)
			o.adj[absent] = append(o.adj[absent], 0)
			o.edges++
			return fmt.Sprintf("absent vertex %v has 1 edges", absent)
		}},
		{"degree above bound", func(o *Overlay) string {
			o.degreeBound = 1
			return fmt.Sprintf("%v has degree %d above bound 1", o.order[0], o.Degree(o.order[0]))
		}},
		{"stale neighbour mass", func(o *Overlay) string {
			o.weight[o.order[0]] = 3 // written behind SetWeight
			return fmt.Sprintf("%v has neighbour mass 0, its neighbours weigh 3", slices.Min(o.adj[o.order[0]]))
		}},
		{"stale cached shape", func(o *Overlay) string {
			if !o.Connected() { // caches connected at the current mutation count
				panic("bootstrapped overlay disconnected")
			}
			isolateBehindMutators(o, o.order[0])
			return "cached shape (connected=true"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _ := bootstrapped(t, 12, 0.5)
			if err := o.Check(); err != nil {
				t.Fatalf("healthy overlay: %v", err)
			}
			want := tc.breakO(o)
			err := o.Check()
			if err == nil {
				t.Fatal("Check accepted a corrupted overlay")
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Check reported %q, want it to name %q", err, want)
			}
		})
	}
}

// redirectable finds an entry u = adj[v][i] with entry(v, u) and a
// vertex w, not v and not adjacent to it, with target(v, w): an entry
// that can be pointed at w with the edge count and degree sum unchanged.
func (o *Overlay) redirectable(entry, target func(v, u ids.ClusterID) bool) (v ids.ClusterID, i int, w ids.ClusterID) {
	for _, v := range o.order {
		for i, u := range o.adj[v] {
			if !entry(v, u) {
				continue
			}
			for _, w := range o.order {
				if w != v && target(v, w) && !o.hasEdge(v, w) {
					return v, i, w
				}
			}
		}
	}
	panic("no entry to redirect")
}

// isolateBehindMutators deletes every edge of c by writing adj directly,
// keeping the adjacency symmetric and the edge count right, so the only
// thing left wrong is a cached shape: the mutation count does not move.
func isolateBehindMutators(o *Overlay, c ids.ClusterID) {
	for _, u := range o.adj[c] {
		lst := o.adj[u]
		for i, v := range lst {
			if v == c {
				o.adj[u] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	o.edges -= len(o.adj[c])
	o.adj[c] = nil
}

// TestStaleShapeIsTheOnlyFault backs the "stale cached shape" corruption
// case: the same edit with no cached shape is a structurally valid,
// disconnected overlay that Check accepts, and Connected, asked afresh,
// reads it as disconnected.
func TestStaleShapeIsTheOnlyFault(t *testing.T) {
	o, _ := bootstrapped(t, 12, 0.5)
	o.shape = shape{} // Bootstrap's DegreeRange left one
	isolateBehindMutators(o, o.order[0])
	if err := o.Check(); err != nil {
		t.Fatalf("Check rejected a valid disconnected overlay: %v", err)
	}
	if o.Connected() {
		t.Fatal("Connected missed an isolated vertex")
	}
	if lo, _ := o.DegreeRange(); lo != 0 {
		t.Fatalf("DegreeRange low end %d, want 0", lo)
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
