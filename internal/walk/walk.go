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
// A hop is fused for the Ideal generator: at a cluster below capture its
// two draws go through a randnum.Tally, and a segment sums the tally and
// its hand-offs in locals and charges the ledger once, on whichever path
// it returns. A captured cluster, and every hop under any other generator,
// draws through the Generator interface, objective included. Both paths
// make the same draws and the same charges.
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
	// edge mutation incident to c; walks and cost charges read it between
	// mutations only.
	Adjacent(c ids.ClusterID) []ids.ClusterID
	// Size returns |C|, the number of member nodes of c.
	Size(c ids.ClusterID) int
	// Byz returns the number of Byzantine members of c.
	Byz(c ids.ClusterID) int
	// MaxClusterSize returns max over clusters of |C| (the rejection
	// denominator of the biased walk).
	MaxClusterSize() int
}

// NeighborMass returns the number of nodes in the overlay neighbours of c,
// the sum of |D| over every D adjacent to c. It is the neighbourhood term
// of every cost charge in which c's neighbours learn something about c or
// c's members learn its neighbours.
func NeighborMass(t Topology, c ids.ClusterID) int64 {
	var mass int64
	for _, d := range t.Adjacent(c) {
		mass += int64(t.Size(d))
	}
	return mass
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
	// ideal records that cfg.Gen is randnum.Ideal, whose draws below
	// capture segment fuses into a randnum.Tally.
	ideal bool

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
	out := Outcome{End: start}
	err := w.segment(led, r, &out)
	return out, err
}

// Biased runs the paper's randCl: a sequence of CTRW segments with
// size-proportional rejection, returning a cluster with probability
// ~|C|/n. The sequence is capped at MaxRestarts segments; if the cap is
// hit the current endpoint is returned with Restarts == MaxRestarts.
func (w *Walker) Biased(led *metrics.Ledger, r *xrand.Rand, start ids.ClusterID) (Outcome, error) {
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

// segment advances one CTRW of duration DurationFactor * log2(#C)^2 /
// meanDegree (so the expected number of jumps is ~DurationFactor *
// log2(#C)^2) starting at out.End, updating out in place.
//
// With the Ideal generator, a hop at a cluster below capture makes both of
// its draws through one randnum.Tally; every other hop, and every hop of
// any other generator, draws through Gen. The tally and the hand-offs are
// summed in locals and charged once, by charge, on every return.
func (w *Walker) segment(led *metrics.Ledger, r *xrand.Rand, out *Outcome) error {
	n := w.topo.NumClusters()
	if n <= 1 {
		return nil // single-cluster overlay: the walk stays put
	}
	meanDeg := 2 * float64(w.topo.NumOverlayEdges()) / float64(n)
	if meanDeg <= 0 {
		return fmt.Errorf("walk: overlay has no edges")
	}
	l2 := math.Log2(float64(n))
	if l2 < 1 {
		l2 = 1
	}
	remaining := w.cfg.DurationFactor * l2 * l2 / meanDeg

	// The current cluster's size, Byzantine count and adjacency travel
	// with the walk: nothing a walk does mutates the topology, so each hop
	// fetches them once, for the cluster it moves to.
	cur := out.End
	size, byz, adj := w.topo.Size(cur), w.topo.Byz(cur), w.topo.Adjacent(cur)
	var (
		draws   randnum.Tally
		handoff int64 // hand-off messages; each hop is one round
		hops    int
		worst   = out.WorstSecurity
	)
	for remaining > 0 {
		sec := randnum.Classify(size, byz)
		if sec == randnum.Captured && w.cfg.Hijack != nil {
			if target, ok := w.cfg.Hijack.Redirect(r, cur); ok {
				charge(led, out, &draws, handoff, hops, randnum.Captured)
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
		// Below capture size > 2*byz, so with byz >= 0 the tally's
		// draws are ones Ideal.Draw would accept.
		var nv int
		if w.ideal && sec != randnum.Captured && byz >= 0 {
			worst = max(worst, sec)
			hv := draws.Draw(r, size, _holdGrid)
			if remaining -= holdTime[hv] / float64(deg); remaining <= 0 {
				break
			}
			nv = draws.Draw(r, size, deg)
		} else {
			hv, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: _holdGrid}, nil)
			if err != nil {
				charge(led, out, &draws, handoff, hops, worst)
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
			v, sec, err := w.cfg.Gen.Draw(led, r, randnum.Params{Size: size, Byz: byz, R: int64(deg)}, obj)
			if err != nil {
				charge(led, out, &draws, handoff, hops, worst)
				return drawError(cur, err)
			}
			worst = max(worst, sec)
			nv = int(v)
		}
		next := adj[nv]
		nextSize := w.topo.Size(next)
		// Handoff: every member of cur messages every member of next; next
		// accepts on >1/2 identical copies.
		handoff += int64(size) * int64(nextSize)
		hops++
		cur, size, byz, adj = next, nextSize, w.topo.Byz(next), w.topo.Adjacent(next)
	}
	charge(led, out, &draws, handoff, hops, worst)
	out.End = cur
	return nil
}

// charge ends a segment: it charges led with the segment's tallied draws
// and its hops' hand-offs (one round each), and records the hops and the
// worst security level in out.
func charge(led *metrics.Ledger, out *Outcome, draws *randnum.Tally, handoff int64, hops int, worst randnum.Security) {
	draws.Charge(led)
	led.ChargeRounds(metrics.ClassWalk, handoff, int64(hops))
	out.Hops += hops
	out.WorstSecurity = worst
}

// drawError names the cluster whose draw failed, with the wrapping of a
// failure kept out of the hop's straight-line path.
func drawError(c ids.ClusterID, err error) error {
	return fmt.Errorf("walk: draw at %v: %w", c, err)
}
