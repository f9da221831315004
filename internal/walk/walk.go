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
// A walk reads one flat view. Topology has one method, View, which hands
// the walker the world's own ClusterID-indexed composition rows and
// adjacency lists with the cluster count, the edge count and the max
// cluster size: one interface call a walk, because nothing a walk does
// mutates the topology, and each hop indexes the two tables directly. A
// segment's duration depends only on the view's cluster and edge counts,
// so the walker keeps the last one computed and recomputes it only when
// either count moves.
//
// A hop's reads are narrow. ids.ClusterID is 32 bits, so an adjacency
// entry is 4 bytes and a Row 8. At 2^18 nodes that keeps the adjacency
// (~0.5 MB) and the hold table (512 KB) within reach of a 2 MB private
// L2, where 8-byte IDs did not. The cost charges around the walks read
// no adjacency at all: the overlay keeps each cluster's neighbour mass,
// the sum of its neighbours' sizes, and the world reads it in one load.
//
// A walk is one loop, fusedWalk, for every generator: Uniform and Biased
// run the whole walk, every segment, hop and acceptance coin, in it. It
// reads the view, its max cluster size included, and the cached segment
// duration once. Under the Ideal generator it takes each step at a cluster
// below capture inline, with no call: it holds the stream's PCG state in
// locals, draws each word with xrand.Next, masks the hold draw and reduces
// the neighbour and coin draws with xrand.Reduce (only a word Reduce cannot
// settle writes the state back and calls IntnFrom, the tree's one Lemire
// reduction), makes no Steer call, since Ideal ignores the objective below
// capture and Steer is pure, and sums its draws, their clusters'
// |C|(|C|-1), hand-offs and hops in locals, charged once at the end through
// randnum.Tally.Add, which is linear in its counts. Every other step (at a
// captured or malformed cluster, an isolated vertex or an ID past the
// tables, and every step under any other generator: CommitReveal, a
// counting or tracing wrapper) the loop takes in place out of line: it
// writes the PCG state back, calls hop, which consults the Hijacker and
// draws through the Generator interface with the steer objective, or coin
// for the acceptance coin, and reloads the state. Either way a step makes
// the same draws and charges; scripts/hop_calls.sh keeps those two calls
// the loop's only ones.
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

// Topology is the read-only cluster overlay a walk needs, handed over as
// one View. The NOW world implements it.
type Topology interface {
	// View returns the topology's tables and counts. The tables are the
	// topology's own, not copied, under View's contract.
	View() View
}

// Row is a cluster's composition as a walk reads it.
type Row struct{ Size, Byz int32 }

// View is a topology's ClusterID-indexed tables and the three counts a
// walk reads. Cluster IDs are minted densely and never reused, so one
// slice index finds a cluster's row or its neighbours.
//
// The tables are read-only and are invalidated by the next mutation of
// the topology, with one exception: a swap, which trades one node each
// way between two clusters, rewrites the two rows in place and never
// grows a table, moves an edge or changes a count, so a view taken before
// a swap reads the rows after it. An exchange takes one view for all its
// swaps on that contract.
type View struct {
	// Rows[c] is c's composition. Retired IDs, and IDs beyond the table,
	// read the zero Row.
	Rows []Row
	// Adj[c] is c's overlay neighbours in a fixed order. Non-vertices, and
	// IDs beyond the table, have none.
	Adj [][]ids.ClusterID
	// NumClusters and NumEdges count the overlay's vertices and edges, on
	// which a segment's duration depends; MaxSize is max |C| over
	// clusters, the biased walk's rejection denominator.
	NumClusters, NumEdges, MaxSize int
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
	// every cluster alike takes the first neighbour, View.Adj[c][0], and
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
	// ideal records that cfg.Gen is randnum.Ideal, whose draws below
	// capture fusedWalk makes inline.
	ideal bool
	// view is the topology's view for the walk in progress, which the
	// out-of-line hop and coin read.
	view View

	// dur is the segment duration at durN clusters and durEdges overlay
	// edges, the last counts a walk's view held; durN 0 means none yet.
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
	return w.walk(led, r, start, false)
}

// Biased runs the paper's randCl: a sequence of CTRW segments with
// size-proportional rejection, returning a cluster with probability
// ~|C|/n. The sequence is capped at MaxRestarts segments; if the cap is
// hit the current endpoint is returned with Restarts == MaxRestarts.
func (w *Walker) Biased(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID) (Outcome, error) {
	return w.walk(led, r, start, true)
}

// duration returns a segment's duration, DurationFactor * log2(#C)^2 /
// meanDegree (so the expected number of jumps is ~DurationFactor *
// log2(#C)^2), at the cluster and edge counts of the walk's view. It is 0
// on a single-cluster overlay, where a walk stays put, and an error on an
// edgeless one.
func (w *Walker) duration() (float64, error) {
	n, edges := w.view.NumClusters, w.view.NumEdges
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

// walk runs a whole walk from start on fusedWalk: one segment for
// Uniform, randCl's segments and acceptance coins for Biased. It takes
// the topology's view once, and charges the inline draws and the
// hand-offs once, on every return. The inline tables are the view's, cut to one length so a
// hop checks its cluster once; they are empty, so that every cluster is
// taken out of line, unless the generator is Ideal and every draw has a
// range: a segment of positive duration and, with coins, a positive max
// size.
func (w *Walker) walk(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID, coin bool) (Outcome, error) {
	w.view = w.topo.View()
	dur, err := w.duration()
	if err != nil {
		return Outcome{End: start}, err
	}
	segs := 1
	if coin {
		segs = w.cfg.MaxRestarts
	}
	maxSize := w.view.MaxSize
	var (
		rows []Row
		adj  [][]ids.ClusterID
	)
	if w.ideal && dur > 0 && (maxSize > 0 || !coin) {
		n := min(len(w.view.Rows), len(w.view.Adj))
		rows, adj = w.view.Rows[:n], w.view.Adj[:n]
	}
	var s walkSums
	err = w.fusedWalk(led, r, rows, adj, dur, maxSize, segs, coin, start, &s)
	var t randnum.Tally
	t.Add(s.draws, s.pairs)
	t.Charge(led)
	led.ChargeRounds(metrics.ClassWalk, s.handoff, int64(s.out.Hops))
	return s.out, err
}

// walkSums is a walk's outcome and the sums its charge is made of.
type walkSums struct {
	out          Outcome
	draws, pairs int64 // inline draws, and their clusters' |C|(|C|-1) summed
	handoff      int64 // hand-off messages; each hop is one round
}

// fusedWalk is the walk: up to segs segments of duration dur from cur,
// each followed by an acceptance coin against maxSize when coin is set,
// until a coin accepts (one segment and no coin when coin is not set).
//
// At a cluster of the inline tables rows and adj that is below capture,
// with a non-negative Byzantine count and a neighbour, it draws inline
// with no call: it holds r's PCG state in locals and draws each word with
// xrand.Next; the hold draw is a mask of one word, the neighbour and
// acceptance draws reduce theirs with xrand.Reduce, and only a word Reduce
// cannot settle writes the state back and calls IntnFrom. These are the
// words Ideal.Draw would take, since there Draw is r.Intn(R). No Steer
// call is made: Ideal ignores the objective below capture, and Steer is
// pure. It counts these draws and their clusters' |C|(|C|-1) into *s,
// for one randnum.Tally.Add, which is linear in its counts.
//
// At any other cluster (captured, malformed, isolated, or past the
// tables, which is every cluster when the tables are empty) it writes the
// PCG state back, takes the step out of line in hop, or the coin in coin,
// which draw through Gen and charge their own draws, and reloads the
// state. Either way the draws and the charges are those of the paper's
// step. It returns the first draw error, which names its cluster, with
// *s filled up to it.
func (w *Walker) fusedWalk(led *metrics.Ledger, r *xrand.Rand, rows []Row, adj [][]ids.ClusterID, dur float64, maxSize, segs int, coin bool, cur ids.ClusterID, s *walkSums) (err error) {
	pcg := r.PCG()
	hi, lo := pcg.State()
	n := len(rows)
	var (
		word                 uint64
		pairs, handoff, ends int64 // ends: inline hold draws that ended a segment, and inline coins
		hops, outHops        int   // outHops: hops taken out of line, whose draws hop charged
		restarts             int
		worst                randnum.Security
		hijacked             bool
		row                  Row
		nbrs                 []ids.ClusterID
	)
	if uint(cur) < uint(n) {
		row, nbrs = rows[cur], adj[cur]
	}
walk:
	for {
		for remaining := dur; ; {
			size, byz := int64(row.Size), int64(row.Byz)
			deg := uint64(len(nbrs))
			if byz < 0 || 2*byz >= size || deg == 0 {
				pcg.SetState(hi, lo)
				next, left, h, sec, hj, herr := w.hop(led, r, cur, remaining)
				hi, lo = pcg.State()
				worst = max(worst, sec)
				if hijacked, err = hj, herr; hj || herr != nil {
					cur = next
					break walk
				}
				if left <= 0 {
					break
				}
				handoff += h
				hops++
				outHops++
				remaining = left
				cur, row, nbrs = next, Row{}, nil
				if uint(cur) < uint(n) {
					row, nbrs = rows[cur], adj[cur]
				}
				continue
			}
			if 3*byz >= size {
				worst = max(worst, randnum.Degraded)
			}
			// Holding time ~ Exp(deg), then the next hop, a uniform
			// neighbour: two cluster-agreed draws.
			pp := size * (size - 1)
			hi, lo, word = xrand.Next(hi, lo)
			pairs += pp
			if remaining -= holdTime[word&(_holdGrid-1)] / float64(deg); remaining <= 0 {
				ends++
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
				// Past the tables: the hand-off reads the view, and the
				// zero row takes the next step out of line.
				handoff += size * int64(w.view.Row(next).Size)
				hops++
				cur, row, nbrs = next, Row{}, nil
				continue
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
		// Acceptance coin at cur: it draws a number in [0, maxSize) and
		// accepts when it falls below its own size.
		size, byz := int64(row.Size), int64(row.Byz)
		if byz < 0 || 2*byz >= size {
			// No write-back: a segment that ends at such a cluster ended
			// in hop, whose reload left r's state and the locals equal.
			accept, sec, cerr := w.coin(led, r, cur, maxSize)
			hi, lo = pcg.State()
			worst = max(worst, sec)
			if err = cerr; err != nil || accept {
				break
			}
		} else {
			if 3*byz >= size {
				worst = max(worst, randnum.Degraded)
			}
			hi, lo, word = xrand.Next(hi, lo)
			pairs += size * (size - 1)
			ends++
			v, ok := xrand.Reduce(word, uint64(maxSize))
			if !ok {
				pcg.SetState(hi, lo)
				v = r.IntnFrom(word, uint64(maxSize))
				hi, lo = pcg.State()
			}
			if v < uint64(size) {
				break
			}
		}
		if restarts++; restarts == segs {
			break
		}
	}
	pcg.SetState(hi, lo)
	*s = walkSums{
		out:     Outcome{End: cur, Hops: hops, Restarts: restarts, Hijacked: hijacked, WorstSecurity: worst},
		draws:   2*int64(hops-outHops) + ends,
		pairs:   pairs,
		handoff: handoff,
	}
	return err
}

// hop is one step of the walk at cur taken out of line, as the paper
// states it: a captured cluster may hand the token to the Hijacker, then
// cur's members draw the holding time and, while the segment lasts, the
// next neighbour, through Gen with the steer objective; Gen charges both
// draws. It returns the cluster the walk moved to, the segment's time left
// and the hand-off messages of the move. A left that is not positive
// means the segment ended at cur: its time ran out, or cur has no
// neighbour. hijacked means the walk ended at next, the Hijacker's
// target. sec is the weakest level the draws were made at, and err names
// cur.
//
//go:noinline
func (w *Walker) hop(led *metrics.Ledger, r *xrand.Rand, cur ids.ClusterID, remaining float64) (next ids.ClusterID, left float64, handoff int64, sec randnum.Security, hijacked bool, err error) {
	if remaining <= 0 {
		return cur, remaining, 0, randnum.Secure, false, nil
	}
	view := w.view
	row, adj := view.Row(cur), view.Adjacent(cur)
	size, byz := int(row.Size), int(row.Byz)
	if w.cfg.Hijack != nil && randnum.Classify(size, byz) == randnum.Captured {
		if target, ok := w.cfg.Hijack.Redirect(r, cur); ok {
			return target, 0, 0, randnum.Captured, true, nil
		}
	}
	deg := len(adj)
	if deg == 0 {
		return cur, 0, 0, randnum.Secure, false, nil
	}
	hv, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: _holdGrid}, nil)
	if err != nil {
		return cur, 0, 0, randnum.Secure, false, drawError(cur, err)
	}
	if remaining -= holdTime[hv] / float64(deg); remaining <= 0 {
		return cur, remaining, 0, sec, false, nil
	}
	var obj randnum.Objective
	if w.cfg.Steer != nil {
		w.hopAdj = adj
		obj = w.hopObj
	}
	nv, nsec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: int64(deg)}, obj)
	if err != nil {
		return cur, 0, 0, sec, false, drawError(cur, err)
	}
	next = adj[nv]
	// Handoff: every member of cur messages every member of next; next
	// accepts on >1/2 identical copies.
	return next, remaining, int64(size) * int64(view.Row(next).Size), max(sec, nsec), false, nil
}

// coin is the acceptance coin at c taken out of line: c's members draw a
// number in [0, maxSize) through Gen, which charges it, with the steer
// objective, and accept when it falls below |c|. err names c.
//
//go:noinline
func (w *Walker) coin(led *metrics.Ledger, r *xrand.Rand, c ids.ClusterID, maxSize int) (accept bool, sec randnum.Security, err error) {
	row := w.view.Row(c)
	size := int(row.Size)
	var obj randnum.Objective
	if w.cfg.Steer != nil {
		w.acceptSize = int64(size)
		w.acceptScore = w.cfg.Steer(c)
		obj = w.acceptObj
	}
	v, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: int(row.Byz), R: int64(maxSize)}, obj)
	if err != nil {
		return false, randnum.Secure, drawError(c, err)
	}
	return v < int64(size), sec, nil
}

// drawError names the cluster whose draw failed, with the wrapping of a
// failure kept out of the hop's straight-line path.
func drawError(c ids.ClusterID, err error) error {
	return fmt.Errorf("walk: draw at %v: %w", c, err)
}
