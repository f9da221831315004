// Package over implements OVER (Over-Valued Erdos-Renyi graph), the
// protocol that maintains the expander overlay of clusters under vertex
// additions and removals. The proceedings paper defers OVER's construction
// to its long version; this package reconstructs it from the two properties
// NOW consumes and the hints the paper does give:
//
//   - Property 1: large isoperimetric constant (expansion) at all times.
//   - Property 2: maximum degree O(log^{1+alpha} N).
//   - The initial overlay is Erdos-Renyi with p = log^{1+alpha}N / sqrt(N)
//     (expected degree Theta(log^{1+alpha} N) at the initial scale),
//     drawn by one geometric skip per edge, not one coin per pair.
//   - A new vertex (cluster split) acquires Theta(log^{1+alpha} N) edges
//     whose endpoints are chosen by random walks (Figure 2).
//   - Removed vertices are random (ensured by NOW's merge using randCl),
//     so removals do not bias the edge distribution.
//
// Each vertex also carries a weight, and the overlay keeps every vertex's
// neighbour mass, the sum of its neighbours' weights, exact under every
// edge and weight change. NOW weighs a cluster by its size, so the mass is
// the neighbourhood term of its cost charges, read in O(1); an overlay
// whose weights are never set has every mass 0.
//
// Add wires a new vertex to targetDegree endpoints supplied by a caller
// provided picker (NOW passes a CTRW-based uniform sampler); Remove deletes
// a vertex and repairs any neighbor whose degree fell below the floor by
// drawing replacement edges the same way. A hard degree cap enforces
// Property 2 by redirecting edges away from saturated vertices; expansion
// (Property 1) is not assumed but measured (Health).
//
// Rounds are a critical path. A vertex's edge walks need no result of one
// another, so they run concurrently in waves of as many walks as edges
// are still missing, and the former neighbours of a removed vertex repair
// concurrently: messages add over the walks, rounds only over the
// longest walk of each wave (metrics.Section). The draws and edges are
// those of one walk after another.
package over

import (
	"fmt"
	"math/bits"
	"slices"

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
	// weight[c] is c's weight (SetWeight) and mass[c] the sum of its
	// neighbours' weights. Both cover the same IDs as adj; a weight may be
	// set before its vertex is added (a new cluster fills before OVER
	// wires it), and a vertex keeps its weight when it is removed.
	weight []int64
	mass   []int64
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

	// mutations counts writes to adj and order. The four mutators
	// (addVertex, removeVertex, removeDirected, link) are the only
	// writers and each bumps it, so an unchanged count means an unchanged
	// overlay. SetWeight moves weights and masses only, which the cached
	// shape does not depend on, so it leaves the count alone.
	mutations uint64
	// shape caches Connected and DegreeRange as of shape.at mutations.
	shape shape
}

// shape is the overlay's connectivity and degree range at one mutation
// count; valid is false until the first computation.
type shape struct {
	valid     bool
	at        uint64
	connected bool
	lo, hi    int
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
// one vertex's neighbours per step (walk hops) use this instead of
// Neighbors.
func (o *Overlay) Adjacent(c ids.ClusterID) []ids.ClusterID {
	if uint64(c) < uint64(len(o.adj)) {
		return o.adj[c]
	}
	return nil
}

// AdjTable returns the ClusterID-indexed adjacency itself, not copied:
// AdjTable()[c] is Adjacent(c) for every c the table covers, and IDs
// beyond it have no neighbours. It is read-only and is invalidated by the
// next mutation; a walk reads it once and indexes it per hop.
func (o *Overlay) AdjTable() [][]ids.ClusterID { return o.adj }

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

// NeighborMass returns the sum of the weights of c's neighbours (0 if c is
// absent): one read, kept exact by every mutator and by SetWeight.
func (o *Overlay) NeighborMass(c ids.ClusterID) int64 {
	if uint64(c) < uint64(len(o.mass)) {
		return o.mass[c]
	}
	return 0
}

// Weight returns c's weight, 0 if none was set.
func (o *Overlay) Weight(c ids.ClusterID) int64 {
	if uint64(c) < uint64(len(o.weight)) {
		return o.weight[c]
	}
	return 0
}

// SetWeight sets c's weight and moves each neighbour's mass with it, in
// O(deg c). c need not be a vertex yet: an absent ID has no neighbours,
// and the weight counts from the moment an edge is added. It changes no
// edge, so the cached shape stays current.
func (o *Overlay) SetWeight(c ids.ClusterID, w int64) {
	o.grow(c)
	d := w - o.weight[c]
	if d == 0 {
		return
	}
	o.weight[c] = w
	for _, u := range o.adj[c] {
		o.mass[u] += d
	}
}

// grow extends the ID-indexed slices to cover c.
func (o *Overlay) grow(c ids.ClusterID) {
	if n := int(c) + 1; n > len(o.pos) {
		o.pos = append(o.pos, make([]int32, n-len(o.pos))...)
		o.adj = append(o.adj, make([][]ids.ClusterID, n-len(o.adj))...)
		o.weight = append(o.weight, make([]int64, n-len(o.weight))...)
		o.mass = append(o.mass, make([]int64, n-len(o.mass))...)
	}
}

// addVertex appends c to the vertex order, growing the ID-indexed slices
// to cover it. c must be absent.
func (o *Overlay) addVertex(c ids.ClusterID) {
	o.grow(c)
	o.order = append(o.order, c)
	o.pos[c] = int32(len(o.order))
	o.mutations++
}

// removeVertex deletes c and its incident edges. The vertex order closes
// the gap in place (not a swap-remove), so VertexAt keeps insertion order.
func (o *Overlay) removeVertex(c ids.ClusterID) {
	for _, u := range o.adj[c] {
		o.removeDirected(u, c)
	}
	o.edges -= len(o.adj[c])
	o.adj[c] = nil
	o.mass[c] = 0
	i := int(o.pos[c]) - 1
	o.order = append(o.order[:i], o.order[i+1:]...)
	for j := i; j < len(o.order); j++ {
		o.pos[o.order[j]] = int32(j + 1)
	}
	o.pos[c] = 0
	o.mutations++
}

func (o *Overlay) removeDirected(from, to ids.ClusterID) {
	lst := o.adj[from]
	for i, w := range lst {
		if w == to {
			o.adj[from] = append(lst[:i], lst[i+1:]...)
			o.mass[from] -= o.weight[to]
			o.mutations++
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
	o.link(u, v)
	return nil
}

// link inserts {u, v}: two distinct vertices not yet adjacent.
func (o *Overlay) link(u, v ids.ClusterID) {
	o.adj[u] = append(o.adj[u], v)
	o.adj[v] = append(o.adj[v], u)
	o.mass[u] += o.weight[v]
	o.mass[v] += o.weight[u]
	o.edges++
	o.mutations++
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
// most one vertex). The answer is cached until the next mutation, so
// repeated calls on an unchanged overlay cost O(1); a recomputation is one
// BFS that allocates nothing once its scratch has grown to the overlay's
// size.
func (o *Overlay) Connected() bool { return o.currentShape().connected }

// DegreeRange returns the minimum and maximum vertex degree (0, 0 for an
// empty overlay), cached with Connected.
func (o *Overlay) DegreeRange() (lo, hi int) {
	sh := o.currentShape()
	return sh.lo, sh.hi
}

// currentShape returns the cached shape, recomputing it when the overlay
// has changed since it was taken.
func (o *Overlay) currentShape() shape {
	if !o.shape.valid || o.shape.at != o.mutations {
		o.shape = o.computeShape()
	}
	return o.shape
}

// computeShape measures connectivity and the degree range afresh.
func (o *Overlay) computeShape() shape {
	sh := o.connectedShape()
	if len(o.order) > 1 {
		o.nextEpoch()
		sh.connected = o.bfs(o.order[0]) == len(o.order)
	}
	return sh
}

// connectedShape is the current shape of an overlay known to be
// connected: one degree scan, no traversal.
func (o *Overlay) connectedShape() shape {
	sh := shape{valid: true, at: o.mutations, connected: true}
	for i, v := range o.order {
		d := len(o.adj[v])
		if i == 0 || d < sh.lo {
			sh.lo = d
		}
		sh.hi = max(sh.hi, d)
	}
	return sh
}

// Bootstrap installs the initial Erdos-Renyi overlay over the given
// vertices with edge probability p, then adds a deterministic spanning
// chain between connected components so the walk-based machinery is usable
// even in small regimes where G(n,p) is disconnected (at the paper's scales
// the chain adds no edges w.h.p.). Returns the number of patch edges added.
// A vertex listed twice is an error, found before anything is drawn.
//
// Every table is sized once: the ID-indexed tables to the largest vertex,
// the vertex order and the traversal queue to the vertex count, and the
// adjacency lists are carved from one arena of exactly the degree sum.
// For that the draw runs twice from r's state, once counting degrees and
// once linking, and r is left where one pass leaves it. Only a patch edge
// grows a list.
func (o *Overlay) Bootstrap(r *xrand.Rand, vertices []ids.ClusterID, p float64) (int, error) {
	if len(o.order) != 0 {
		return 0, fmt.Errorf("over: bootstrap on non-empty overlay")
	}
	if len(vertices) > 0 {
		o.grow(slices.Max(vertices))
	}
	o.order = slices.Grow(o.order, len(vertices))
	o.queue = slices.Grow(o.queue, len(vertices))
	for _, v := range vertices {
		if o.Has(v) {
			return 0, fmt.Errorf("over: bootstrap vertex %v listed twice", v)
		}
		o.addVertex(v)
	}
	// The vertices are distinct: no self-loop, no duplicate edge.
	g := newSkips(len(vertices), p)
	hi, lo := r.PCG().State()
	deg := make([]int32, len(vertices))
	g.landings(hi, lo, func(i, j int) { deg[i]++; deg[j]++ })
	sum := 0
	for _, d := range deg {
		sum += int(d)
	}
	arena := make([]ids.ClusterID, sum)
	for i, v := range vertices {
		o.adj[v], arena = arena[:0:deg[i]], arena[deg[i]:]
	}
	r.PCG().SetState(g.landings(hi, lo, func(i, j int) { o.link(vertices[i], vertices[j]) }))
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
	// The scan has linked every component to the first vertex, so the
	// overlay is connected and its shape is the degree scan alone; Check
	// still verifies this cache against a fresh traversal.
	o.shape = o.connectedShape()
	o.degreeBound = max(o.degreeBound, o.shape.hi)
	return patches, nil
}

// skips draws the landings of G(n, p): the pairs 0 <= i < j < n, in
// row-major order, each linked independently with probability p. p >= 1
// links every pair and p <= 0 none, neither drawing. Otherwise landings
// draws one geometric gap of unlinked pairs per landing (Batagelj &
// Brandes, Phys. Rev. E 71, 2005) by inversion: with q = 1-p, a uniform u
// lies below exactly k of q^1..q^L with probability q^k - q^(k+1), that
// of k misses and a landing. A u below all L skips L pairs and draws
// again, exact as the geometric law is memoryless. With L = min(n, 8/p)
// (a gap passes the table with probability ~e^-8) it draws
// E + C(n, 2)/L + 1 words for E edges, O(n + E), and takes no logarithm
// whose last bit could differ between architectures.
//
// A gap is found through a guide table (Chen & Asau, 1974), not a binary
// search: the draw u is m/2^53 for the 53-bit integer m of its word, and
// the top bits of m pick a bucket of u's range whose entry says how many
// table values lie above every u in the bucket. The search starts there
// and steps on with the compares slices.BinarySearch makes, so it returns
// BinarySearch's index (TestSkipsGuideMatchesBinarySearch). There are at
// least as many buckets as table values, so a gap costs O(1) expected
// compares. The bucket is integer arithmetic and nothing in the table or
// the search is a fusable multiply-add, so no architecture rounds a gap
// differently.
type skips struct {
	n int
	p float64
	// neg[k] = -q^(k+1) increases, so the entries above u are those
	// BinarySearch puts before -u.
	neg []float64
	// guide[m>>shift] is the number of entries of neg below -u for the
	// largest u of m's bucket, where the search for m starts.
	guide []int32
	shift uint
}

// newSkips builds the tables landings draws G(n, p) with; degenerate n and
// p need none.
func newSkips(n int, p float64) skips {
	g := skips{n: n, p: p}
	if n < 2 || !(p > 0) || p >= 1 {
		return g
	}
	size := n
	if span := 8 / p; span < float64(n) {
		size = int(span) + 1
	}
	g.neg = make([]float64, size)
	qk := 1.0
	for k := range g.neg {
		qk *= 1 - p
		g.neg[k] = -qk
	}
	b := bits.Len(uint(size - 1))
	g.shift = 53 - uint(b)
	g.guide = make([]int32, 1<<b)
	// Bucket j holds m in [j<<shift, (j+1)<<shift); its largest u, and so
	// its fewest entries above u, is at the bucket's last m. The counts
	// grow as the buckets descend.
	k := 0
	for j := len(g.guide) - 1; j >= 0; j-- {
		top := -float64(uint64(j+1)<<g.shift-1) / (1 << 53)
		for k < size && g.neg[k] < top {
			k++
		}
		g.guide[j] = int32(k)
	}
	return g
}

// gap returns the number of table values above the uniform draw of word,
// slices.BinarySearch(neg, -xrand.Float64From(word))'s index.
func (g *skips) gap(word uint64) int {
	target := -xrand.Float64From(word)
	k := int(g.guide[word<<11>>11>>g.shift])
	for k < len(g.neg) && g.neg[k] < target {
		k++
	}
	return k
}

// landings calls link(i, j) for each pair G(n, p) links, in row-major
// order, drawing its words from the PCG state (hi, lo), and returns the
// state after its last word: a stream at (hi, lo) set to it has drawn
// exactly those words.
func (g *skips) landings(hi, lo uint64, link func(i, j int)) (uint64, uint64) {
	n := g.n
	switch {
	case n < 2 || !(g.p > 0):
		return hi, lo
	case g.p >= 1:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				link(i, j)
			}
		}
		return hi, lo
	}
	// (i, j) is the next pair in row-major order; row i ends at column n-1
	// and row i+1 starts at column i+2.
	i, j := 0, 1
	for {
		var word uint64
		hi, lo, word = xrand.Next(hi, lo)
		k := g.gap(word)
		for j += k; j >= n; j += i + 1 - n {
			if i++; i >= n-1 {
				return hi, lo
			}
		}
		if k < len(g.neg) {
			link(i, j)
			j++
		}
	}
}

// Add inserts vertex c and wires it to up to TargetDegree distinct
// endpoints obtained from pick, skipping self, duplicates and saturated
// endpoints (degree >= cap). attemptBudget bounds pick calls so a saturated
// or tiny overlay cannot loop forever. It charges one inter-cluster
// announcement per created edge, and the picks' rounds in waves (see
// wire). Returns the number of edges created.
func (o *Overlay) Add(led *metrics.Ledger, c ids.ClusterID, pick Picker, attemptBudget int) (int, error) {
	if o.Has(c) {
		return 0, fmt.Errorf("over: add of existing vertex %v", c)
	}
	o.addVertex(c)
	return o.wire(led, c, o.params.TargetDegree, pick, attemptBudget), nil
}

// Remove deletes vertex c and, when Repair is enabled, tops the degree of
// every former neighbor that fell below DegreeFloor back up to the floor
// using pick. The former neighbours' repairs run concurrently: each is one
// branch of a section of the ledger, charged in waves (see wire), so the
// removal adds the longest repair's rounds. That is a modelling
// assumption: no repair needs another's output, but a repair that links
// to a later former neighbour raises its degree before its own repair,
// which runs against that degree. Returns the number of repair edges
// created.
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
	sec := led.BeginConcurrent()
	for _, u := range former {
		repaired += o.wire(led, u, o.params.DegreeFloor, pick, attemptBudget)
		led.EndBranch(&sec)
	}
	led.EndConcurrent(sec)
	return repaired, nil
}

// wire links u to endpoints from pick until u's degree reaches want, at
// most attemptBudget picks, skipping self, absent and adjacent endpoints
// and saturated ones (degree >= cap), and charges one inter-cluster
// announcement per edge. It returns the number of edges created; a pick
// that finds no candidate ends the wiring.
//
// The picks run in waves. Figure 2 of the paper has a new vertex acquire
// its Theta(log^{1+alpha} N) edges by random walks, and walks that need
// no result of one another run concurrently: their messages add and
// their rounds do not (section 3.1's round count; the round analysis of
// the long version, On Dynamic Distributed Computing, arXiv 1202.3084). A
// wave is the next want − degree attempts, capped by what is left of the
// budget, each attempt one branch of a concurrent section, so a wave adds
// its longest pick's rounds; a later wave replaces the picks the earlier
// one lost to skips. Every attempt a wave makes is one the serial loop
// would make, in the same order: no attempt of a wave can bring the
// degree to want before the wave's last one. Draws and edges are the
// serial loop's exactly, and an early end closes the open section.
func (o *Overlay) wire(led *metrics.Ledger, u ids.ClusterID, want int, pick Picker, attemptBudget int) int {
	added := 0
	for attempts := 0; len(o.adj[u]) < want && attempts < attemptBudget; {
		wave := min(want-len(o.adj[u]), attemptBudget-attempts)
		attempts += wave
		sec := led.BeginConcurrent()
		for ; wave > 0; wave-- {
			t, ok := pick(u)
			if ok && t != u && o.Has(t) && !o.hasEdge(u, t) && len(o.adj[t]) < o.params.DegreeCap {
				o.link(u, t)
				led.Charge(metrics.ClassInterCluster, 1)
				added++
			}
			led.EndBranch(&sec)
			if !ok {
				led.EndConcurrent(sec)
				return added
			}
		}
		led.EndConcurrent(sec)
	}
	return added
}

// Check is the overlay's structural self-check: the position index and the
// vertex order agree, absent IDs have no edges, the adjacency is symmetric
// with no self-loops, duplicates or edges to absent vertices, the edge
// count matches the lists, no degree exceeds DegreeCap (or the larger
// degree an uncapped Bootstrap left; see degreeBound), every neighbour
// mass is the sum of its neighbours' weights, and a cached
// Connected/DegreeRange that claims to be current matches a fresh
// recomputation. It returns the first violation found, scanning in vertex
// order.
//
// Symmetry is proved with one list scan per edge, not one per entry, and
// no scratch beyond the traversal marks: an entry u in v's list that
// points up (u > v) must have its twin v in u's list, and as many entries
// point up as down. Entries are distinct, so an up entry's twin is a down
// entry of its own, and with the counts equal every down entry is some up
// entry's twin. Only when the counts differ does a full scan look for the
// down entry that has no twin.
func (o *Overlay) Check() error {
	live := 0
	for c, p := range o.pos {
		var mass int64
		for _, u := range o.adj[c] {
			mass += o.Weight(u)
		}
		if got := o.NeighborMass(ids.ClusterID(c)); got != mass {
			return fmt.Errorf("over: C%d has neighbour mass %d, its neighbours weigh %d", c, got, mass)
		}
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
	degrees, up := 0, 0
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
			case u > v:
				if !o.hasEdge(u, v) {
					return fmt.Errorf("over: edge %v-%v is not symmetric", v, u)
				}
				up++
			}
			o.seen[u] = o.epoch
		}
	}
	if degrees != 2*o.edges {
		return fmt.Errorf("over: edge count %d vs degree sum %d", o.edges, degrees)
	}
	if down := degrees - up; up != down {
		return o.twinless(up, down)
	}
	if cached := o.shape; cached.valid && cached.at == o.mutations {
		if fresh := o.computeShape(); fresh != cached {
			return fmt.Errorf("over: cached shape (connected=%v, degrees [%d,%d]) is stale: the overlay reads (connected=%v, degrees [%d,%d])",
				cached.connected, cached.lo, cached.hi, fresh.connected, fresh.lo, fresh.hi)
		}
	}
	return nil
}

// twinless names the first entry, in vertex order, whose twin is missing.
// Check calls it when every up entry has its twin but the up and down
// counts differ, so some down entry has none.
func (o *Overlay) twinless(up, down int) error {
	for _, v := range o.order {
		for _, u := range o.adj[v] {
			if !o.hasEdge(u, v) {
				return fmt.Errorf("over: edge %v-%v is not symmetric", v, u)
			}
		}
	}
	return fmt.Errorf("over: %d entries point up and %d down, yet every entry has its twin", up, down)
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
