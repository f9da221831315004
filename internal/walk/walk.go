// Package walk implements the continuous-time random walk (CTRW) machinery
// at the heart of NOW's sampling (paper sections 3.1 and 4).
//
// A CTRW with an independent rate-1 exponential clock on every edge has
// jump rate deg(v) at vertex v and *uniform* stationary distribution on any
// connected graph — this is why the paper uses continuous rather than
// discrete walks on the irregular overlay. The biased walk of footnote
// (randCl) converts the uniform cluster sample into a cluster sample
// proportional to cluster size (|C|/n) by rejection: when a walk segment's
// duration expires at cluster C, the walk accepts with probability
// |C|/max|C| and otherwise starts a new segment.
//
// Every hop is a distributed step: the current cluster's members agree on
// the holding time and the next neighbor via randNum, and the next cluster
// accepts the walk token only when more than half of the current cluster's
// members send identical messages. Costs are charged accordingly. A
// captured cluster (>= 1/2 Byzantine) controls its outgoing messages
// entirely, so the adversary may hijack any walk that transits one; this is
// the failure mode whose absence the protocol maintains.
//
// A hop's Exp(deg) holding time is read from an exact table: the cluster's
// agreed draw on the 2^16 grid indexes holdTime, which holds -ln(1-u) for
// every grid point, computed once with math.Log, so a table read is
// bit-identical to evaluating the logarithm at that point.
//
// A hop reads one flat view. Topology.View hands the walker the world's
// own ClusterID-indexed composition rows and adjacency lists; a segment
// reads the view once, because nothing a walk does mutates the topology,
// and each hop indexes the two tables directly. A segment's duration
// depends only on the cluster and edge counts, so the walker keeps the
// last one computed and recomputes it only when either count moves.
//
// A hop's reads are narrow. ids.ClusterID is 32 bits, so an adjacency
// entry is 4 bytes and a Row 8. At 2^18 nodes that keeps the adjacency
// (~0.5 MB) and the hold table (512 KB) within reach of a 2 MB private
// L2, where 8-byte IDs did not. The cost charges around the walks read
// no adjacency at all: the overlay keeps each cluster's neighbour mass,
// the sum of its neighbours' sizes, and the world reads it in one load.
//
// An Ideal walk is one loop. With the Ideal generator, Uniform and Biased
// first run the whole walk, every segment, hop and acceptance coin, in
// fusedWalk, a loop with no call on its path. It reads the view, the max
// cluster size and the cached segment duration once; holds the stream's
// PCG state in locals and draws each word with xrand.Next; masks the hold
// draw and reduces the neighbour and coin draws with xrand.Reduce (only a
// word Reduce cannot settle writes the state back and calls IntnFrom, the
// tree's one Lemire reduction); makes no Steer call, since Ideal ignores
// the objective below capture and Steer is pure; and sums its draws, their
// clusters' |C|(|C|-1), hand-offs, hops and restarts in locals, charged
// once at the end through randnum.Tally.Add, which is linear in its
// counts. At the first captured or malformed cluster, isolated vertex or
// ID past the tables, or on a single-cluster, edgeless or non-positive
// max-size topology, it stops with no effect: the PCG state is restored
// and nothing is charged, and the walk reruns from its start on the
// general loop, segment, which draws every word through the Generator
// interface with the steer objective and consults the Hijacker. Walks of
// any other generator (CommitReveal, a counting or tracing wrapper) run
// there from the start. Both loops make the same draws and charges;
// scripts/hop_calls.sh keeps the fused loop call-free.
package walk

import (
	"fmt"
	"math"
	"sync"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/xrand"
)

// Topology is the read-only view of the cluster overlay a walk needs. The
// NOW world implements it.
type Topology interface {
	// NumClusters returns the current number of overlay vertices.
	NumClusters() int
	// NumOverlayEdges returns the current number of overlay edges.
	NumOverlayEdges() int
	// Adjacent returns c's overlay neighbours in a fixed order, without
	// copying them. The slice is read-only and is invalidated by the next
	// edge mutation incident to c; walks read it between mutations only.
	Adjacent(c ids.ClusterID) []ids.ClusterID
	// Size returns |C|, the number of member nodes of c.
	Size(c ids.ClusterID) int
	// Byz returns the number of Byzantine members of c.
	Byz(c ids.ClusterID) int
	// MaxClusterSize returns max over clusters of |C| (the rejection
	// denominator of the biased walk).
	MaxClusterSize() int
	// View returns the topology's own composition and adjacency tables,
	// not copied: View().Row(c) is (Size(c), Byz(c)) and
	// View().Adjacent(c) is Adjacent(c) for every c. The tables are
	// read-only and are invalidated by the next mutation of the topology;
	// a walk segment reads one view.
	View() View
}

// Row is a cluster's composition as a walk reads it.
type Row struct{ Size, Byz int32 }

// View is a topology's ClusterID-indexed tables. Cluster IDs are minted
// densely and never reused, so one slice index finds a cluster's row or
// its neighbours.
type View struct {
	// Rows[c] is c's composition. Retired IDs, and IDs beyond the table,
	// read the zero Row.
	Rows []Row
	// Adj[c] is c's adjacency in Adjacent's order. Non-vertices, and IDs
	// beyond the table, have none.
	Adj [][]ids.ClusterID
}

// Row returns c's composition, the zero Row for an ID beyond the table.
func (v View) Row(c ids.ClusterID) Row {
	if uint64(c) < uint64(len(v.Rows)) {
		return v.Rows[c]
	}
	return Row{}
}

// Adjacent returns c's adjacency, nil for an ID beyond the table.
func (v View) Adjacent(c ids.ClusterID) []ids.ClusterID {
	if uint64(c) < uint64(len(v.Adj)) {
		return v.Adj[c]
	}
	return nil
}

// Hijacker is the adversary's hook into walks that transit captured
// clusters. Redirect is consulted when the walk is at a captured cluster;
// returning ok=true ends the walk at the returned cluster (the captured
// cluster forges the remaining protocol).
//
// Redirect must be PURE with respect to the walk: it may read the hook's
// own snapshot-scoped decision state and draw from r — the walk's stream,
// so hook randomness is charged to the op that consulted it — but it must
// not mutate shared hook state: every op of a batch must see the decision
// fixed at the batch boundary. Hook bookkeeping belongs in the batch
// lifecycle the world drives (core.BatchHook): decision state refreshes
// before the batch's first op, ratchet counters fold in op order after
// its last.
type Hijacker interface {
	Redirect(r *xrand.Rand, at ids.ClusterID) (ids.ClusterID, bool)
}

// Config parameterizes the walker.
type Config struct {
	// DurationFactor scales segment duration; a segment aims for roughly
	// DurationFactor * log2(#C)^2 expected hops, the paper's O(log^2 n)
	// walk length.
	DurationFactor float64
	// MaxRestarts bounds rejection restarts of the biased walk. The paper
	// needs O(log n) restarts w.h.p.; the bound exists so a pathological
	// topology cannot stall the simulator, and hitting it is reported.
	MaxRestarts int
	// Gen is the cluster randomness source used for every distributed
	// choice along the walk.
	Gen randnum.Generator
	// Hijack, when non-nil, gives the adversary control of walks that
	// visit captured clusters. Subject to the purity contract on the
	// Hijacker interface.
	Hijack Hijacker
	// Steer, when non-nil, scores clusters by their value to the
	// adversary. It is translated into per-draw objectives, which only
	// biasable generators (randnum.CommitReveal) act on: next-hop draws
	// prefer higher-scored neighbors and acceptance draws prefer stopping
	// at higher-scored endpoints. With the Ideal generator Steer has no
	// effect below capture. Steer is under the same purity contract as
	// Hijacker.Redirect: the function must be a read of snapshot-scoped
	// state, never a mutation.
	//
	// At a captured cluster randnum's generators return the objective's
	// argmax, the smallest value on a tie, so a non-nil Steer that scores
	// every cluster alike takes the first neighbour, Adjacent(c)[0], and
	// accepts at every acceptance coin: a nil Steer draws both uniformly
	// instead. core installs a Steer on every world, scoring 0 while no
	// steer hook is set, so its captured clusters take the first branch.
	Steer func(c ids.ClusterID) float64
}

func (c Config) validate() error {
	if c.DurationFactor <= 0 {
		return fmt.Errorf("walk: non-positive duration factor %v", c.DurationFactor)
	}
	if c.MaxRestarts < 1 {
		return fmt.Errorf("walk: max restarts %d < 1", c.MaxRestarts)
	}
	if c.Gen == nil {
		return fmt.Errorf("walk: nil randomness generator")
	}
	return nil
}

// Walker runs CTRWs over a Topology. It is NOT safe for concurrent use:
// the steer objectives below carry per-draw state through walker fields so
// the hot path builds no closures.
type Walker struct {
	cfg  Config
	topo Topology
	// ideal records that cfg.Gen is randnum.Ideal, whose walks Uniform
	// and Biased first run on fusedWalk.
	ideal bool

	// dur is the segment duration at durN clusters and durEdges overlay
	// edges, the last counts a segment ran at; durN 0 means none yet.
	durN, durEdges int
	dur            float64

	// Cached steer objectives (built once when cfg.Steer is set). The
	// historical code built an equivalent closure per draw; hoisting the
	// per-draw state into fields keeps the draws allocation-free while the
	// objective values passed to the generator stay identical.
	acceptObj   randnum.Objective
	hopObj      randnum.Objective
	acceptSize  int64
	acceptScore float64
	hopAdj      []ids.ClusterID
}

// NewWalker validates cfg and returns a walker bound to topo.
func NewWalker(cfg Config, topo Topology) (*Walker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if topo == nil {
		return nil, fmt.Errorf("walk: nil topology")
	}
	holdTimeOnce.Do(fillHoldTime)
	w := &Walker{cfg: cfg, topo: topo}
	_, w.ideal = cfg.Gen.(randnum.Ideal)
	if cfg.Steer != nil {
		w.acceptObj = func(v int64) float64 {
			if v < w.acceptSize {
				return w.acceptScore
			}
			return 0
		}
		w.hopObj = func(v int64) float64 {
			return w.cfg.Steer(w.hopAdj[v])
		}
	}
	return w, nil
}

// Outcome reports one walk's endpoint and diagnostics.
type Outcome struct {
	End      ids.ClusterID
	Hops     int  // clusters transited across all segments
	Restarts int  // rejection restarts consumed (biased walk only)
	Hijacked bool // an adversary-captured cluster redirected the walk
	// WorstSecurity is the weakest randnum security level observed along
	// the walk; anything above Secure taints the uniformity guarantee.
	WorstSecurity randnum.Security
}

// _holdGrid discretizes holding-time randomness: randNum yields an integer
// in [0, _holdGrid) that is mapped through the exponential inverse CDF.
// 1<<16 keeps quantization far below walk-length noise.
const _holdGrid = 1 << 16

// holdTime[hv] is the unit-rate exponential holding time -ln(1-u) at grid
// point hv, u = (hv+0.5)/_holdGrid. NewWalker fills it once, through
// holdTimeOnce, so a process that never walks (a nowd daemon, the wire
// benchmark) does not touch its 512 KB; it is read-only after. That lazy
// fill is the one write the mutable-global rule allows under internal/:
// the directive on holdTime's line also covers the holdTimeOnce line.
var (
	holdTime     [_holdGrid]float64 //nowlint:global lazy one-time fill of a 512 KB table behind holdTimeOnce; read-only after, and a pure function of hv
	holdTimeOnce sync.Once
)

func fillHoldTime() {
	for hv := range holdTime {
		u := (float64(hv) + 0.5) / _holdGrid
		holdTime[hv] = -math.Log(1 - u)
	}
}

// Uniform runs one unbiased CTRW from start and returns its endpoint,
// which is distributed ~uniformly over clusters once the duration exceeds
// the mixing time. Used by OVER to draw edge endpoints.
func (w *Walker) Uniform(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID) (Outcome, error) {
	if w.ideal {
		if out, ok := w.fused(led, r, start, false); ok {
			return out, nil
		}
	}
	out := Outcome{End: start}
	err := w.segment(led, r, &out)
	return out, err
}

// Biased runs the paper's randCl: a sequence of CTRW segments with
// size-proportional rejection, returning a cluster with probability
// ~|C|/n. The sequence is capped at MaxRestarts segments; if the cap is
// hit the current endpoint is returned with Restarts == MaxRestarts.
func (w *Walker) Biased(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID) (Outcome, error) {
	if w.ideal {
		if out, ok := w.fused(led, r, start, true); ok {
			return out, nil
		}
	}
	out := Outcome{End: start}
	for out.Restarts = 0; out.Restarts < w.cfg.MaxRestarts; out.Restarts++ {
		if err := w.segment(led, r, &out); err != nil {
			return out, err
		}
		if out.Hijacked {
			return out, nil
		}
		// Acceptance coin: the endpoint cluster draws a number in
		// [0, maxSize) and accepts when it falls below its own size.
		maxSize := w.topo.MaxClusterSize()
		size := w.topo.Size(out.End)
		var obj randnum.Objective
		if w.cfg.Steer != nil {
			w.acceptSize = int64(size)
			w.acceptScore = w.cfg.Steer(out.End)
			obj = w.acceptObj
		}
		v, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: w.topo.Byz(out.End), R: int64(maxSize)}, obj)
		if err != nil {
			return out, drawError(out.End, err)
		}
		out.WorstSecurity = max(out.WorstSecurity, sec)
		if v < int64(size) {
			return out, nil
		}
	}
	return out, nil
}

// duration returns a segment's duration, DurationFactor * log2(#C)^2 /
// meanDegree (so the expected number of jumps is ~DurationFactor *
// log2(#C)^2), at the topology's current cluster and edge counts. It is
// 0 on a single-cluster overlay, where a walk stays put, and an error on
// an edgeless one.
func (w *Walker) duration() (float64, error) {
	n, edges := w.topo.NumClusters(), w.topo.NumOverlayEdges()
	if n <= 1 {
		return 0, nil
	}
	if n != w.durN || edges != w.durEdges {
		meanDeg := 2 * float64(edges) / float64(n)
		if meanDeg <= 0 {
			return 0, fmt.Errorf("walk: overlay has no edges")
		}
		l2 := math.Log2(float64(n))
		if l2 < 1 {
			l2 = 1
		}
		w.durN, w.durEdges, w.dur = n, edges, w.cfg.DurationFactor*l2*l2/meanDeg
	}
	return w.dur, nil
}

// fused runs a whole walk from start on fusedWalk, for the Ideal
// generator: one segment for Uniform, randCl's segments and acceptance
// coins for Biased. It reads the topology once, and charges the walk's
// draws and hand-offs once. ok is false when the walk met anything
// fusedWalk leaves to the general loop (see there), or the topology is one
// a walk cannot leave its start on (a single cluster, no edges, a
// non-positive max size); then r's state is as it was and nothing is
// charged, so the caller reruns the walk from its start.
func (w *Walker) fused(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID, biased bool) (Outcome, bool) {
	dur, err := w.duration()
	maxSize := w.topo.MaxClusterSize()
	if err != nil || dur == 0 || maxSize <= 0 {
		return Outcome{}, false
	}
	segs := 1
	if biased {
		segs = w.cfg.MaxRestarts
	}
	// One bound for both tables, so a hop checks its cluster once.
	view := w.topo.View()
	n := min(len(view.Rows), len(view.Adj))
	pcg := r.PCG()
	hi, lo := pcg.State()
	var s fusedSums
	if !fusedWalk(r, view.Rows[:n], view.Adj[:n], dur, uint64(maxSize), segs, biased, start, &s) {
		pcg.SetState(hi, lo)
		return Outcome{}, false
	}
	var t randnum.Tally
	t.Add(s.draws, s.pairs)
	t.Charge(led)
	led.ChargeRounds(metrics.ClassWalk, s.handoff, int64(s.hops))
	return Outcome{End: s.end, Hops: s.hops, Restarts: s.restarts, WorstSecurity: s.worst}, true
}

// fusedSums is a fused walk's result: its endpoint, hops, restarts and
// worst security level, and the sums its charge is made of.
type fusedSums struct {
	end            ids.ClusterID
	hops, restarts int
	worst          randnum.Security
	draws, pairs   int64 // Ideal draws, and their clusters' |C|(|C|-1) summed
	handoff        int64 // hand-off messages; each hop is one round
}

// fusedWalk is a walk under the Ideal generator with no call on its
// path: up to segs segments of duration dur from cur, each followed by
// an acceptance coin against maxSize when coin is set, until a coin
// accepts (one segment and no coin when coin is not set). It holds r's
// PCG state in locals and draws each word with xrand.Next: the hold draw
// is a mask of one word, the neighbour and acceptance draws reduce
// theirs with xrand.Reduce, and only a word Reduce cannot settle writes
// the state back and calls IntnFrom. These are the words Ideal.Draw
// would take, since every draw is made at a cluster below capture with a
// non-negative Byzantine count, where Draw is r.Intn(R). No Steer call
// is made: Ideal ignores the objective below capture, and Steer is pure.
//
// rows and adj are the view's tables cut to one length. It returns false,
// leaving *s alone and r's state wherever it stopped, at the first
// cluster that is captured or malformed, has no neighbour or lies past
// the tables: such a walk runs on the general loop, which draws through
// the Generator interface and consults the Hijacker.
func fusedWalk(r *xrand.Rand, rows []Row, adj [][]ids.ClusterID, dur float64, maxSize uint64, segs int, coin bool, cur ids.ClusterID, s *fusedSums) bool {
	pcg := r.PCG()
	hi, lo := pcg.State()
	n := len(rows)
	var (
		word           uint64
		pairs, handoff int64
		hops, restarts int
		worst          randnum.Security
	)
	if uint(cur) >= uint(n) {
		return false
	}
	row, nbrs := rows[cur], adj[cur]
	for {
		for remaining := dur; ; {
			size, byz := int64(row.Size), int64(row.Byz)
			if byz < 0 || 2*byz >= size {
				return false // captured, or a composition Draw would reject
			}
			deg := uint64(len(nbrs))
			if deg == 0 {
				return false // isolated vertex
			}
			if 3*byz >= size {
				worst = randnum.Degraded
			}
			// Holding time ~ Exp(deg), then the next hop, a uniform
			// neighbour: two cluster-agreed draws.
			pp := size * (size - 1)
			hi, lo, word = xrand.Next(hi, lo)
			pairs += pp
			if remaining -= holdTime[word&(_holdGrid-1)] / float64(deg); remaining <= 0 {
				break
			}
			hi, lo, word = xrand.Next(hi, lo)
			pairs += pp
			nv, ok := xrand.Reduce(word, deg)
			if !ok {
				pcg.SetState(hi, lo)
				nv = r.IntnFrom(word, deg)
				hi, lo = pcg.State()
			}
			next := nbrs[nv]
			if uint(next) >= uint(n) {
				return false
			}
			nextRow := rows[next]
			// Handoff: every member of cur messages every member of next;
			// next accepts on >1/2 identical copies.
			handoff += size * int64(nextRow.Size)
			hops++
			cur, row, nbrs = next, nextRow, adj[next]
		}
		if !coin {
			break
		}
		// Acceptance coin at cur, which the segment's last hold draw found
		// below capture: it draws a number in [0, maxSize) and accepts
		// when it falls below its own size.
		size := int64(row.Size)
		hi, lo, word = xrand.Next(hi, lo)
		pairs += size * (size - 1)
		v, ok := xrand.Reduce(word, maxSize)
		if !ok {
			pcg.SetState(hi, lo)
			v = r.IntnFrom(word, maxSize)
			hi, lo = pcg.State()
		}
		if v < uint64(size) {
			break
		}
		if restarts++; restarts == segs {
			break
		}
	}
	pcg.SetState(hi, lo)
	// Each segment drew twice a hop, once more for the hold time that
	// ended it, and once for its coin.
	segments := int64(min(restarts+1, segs))
	draws := 2*int64(hops) + segments
	if coin {
		draws += segments
	}
	*s = fusedSums{end: cur, hops: hops, restarts: restarts, worst: worst, draws: draws, pairs: pairs, handoff: handoff}
	return true
}

// segment advances one CTRW from out.End, updating out in place, on the
// general loop: every draw goes through Gen with the steer objective, and
// a captured cluster consults the Hijacker. The hops' hand-offs are
// summed in locals and charged once, by charge, on every return.
func (w *Walker) segment(led *metrics.Ledger, r *xrand.Rand, out *Outcome) error {
	remaining, err := w.duration()
	if err != nil || remaining == 0 {
		return err
	}
	// Nothing a walk does mutates the topology, so one view serves the
	// whole segment, and the current cluster's row and adjacency travel
	// with the walk: each hop fetches them once, for the cluster it moves
	// to.
	view := w.topo.View()
	cur := out.End
	row, adj := view.Row(cur), view.Adjacent(cur)
	var (
		handoff int64 // hand-off messages; each hop is one round
		hops    int
		worst   = out.WorstSecurity
	)
	for remaining > 0 {
		size, byz := int(row.Size), int(row.Byz)
		if w.cfg.Hijack != nil && randnum.Classify(size, byz) == randnum.Captured {
			if target, ok := w.cfg.Hijack.Redirect(r, cur); ok {
				charge(led, out, handoff, hops, randnum.Captured)
				out.End = target
				out.Hijacked = true
				return nil
			}
		}
		deg := len(adj)
		if deg == 0 {
			break // isolated vertex: the walk cannot move
		}
		// Holding time ~ Exp(deg), then the next hop, a uniform neighbour:
		// two cluster-agreed draws.
		hv, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: _holdGrid}, nil)
		if err != nil {
			charge(led, out, handoff, hops, worst)
			return drawError(cur, err)
		}
		worst = max(worst, sec)
		if remaining -= holdTime[hv] / float64(deg); remaining <= 0 {
			break
		}
		var obj randnum.Objective
		if w.cfg.Steer != nil {
			w.hopAdj = adj
			obj = w.hopObj
		}
		nv, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: int64(deg)}, obj)
		if err != nil {
			charge(led, out, handoff, hops, worst)
			return drawError(cur, err)
		}
		worst = max(worst, sec)
		next := adj[nv]
		nextRow := view.Row(next)
		// Handoff: every member of cur messages every member of next; next
		// accepts on >1/2 identical copies.
		handoff += int64(size) * int64(nextRow.Size)
		hops++
		cur, row, adj = next, nextRow, view.Adjacent(next)
	}
	charge(led, out, handoff, hops, worst)
	out.End = cur
	return nil
}

// charge ends a segment of the general loop: it charges led with its
// hops' hand-offs (one round each), and records the hops and the worst
// security level in out.
func charge(led *metrics.Ledger, out *Outcome, handoff int64, hops int, worst randnum.Security) {
	led.ChargeRounds(metrics.ClassWalk, handoff, int64(hops))
	out.Hops += hops
	out.WorstSecurity = worst
}

// drawError names the cluster whose draw failed, with the wrapping of a
// failure kept out of the hop's straight-line path.
func drawError(c ids.ClusterID, err error) error {
	return fmt.Errorf("walk: draw at %v: %w", c, err)
}
