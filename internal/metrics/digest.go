package metrics

// digest.go implements Digest, a fixed-memory streaming quantile sketch: a
// merging t-digest (Dunning & Ertl, "Computing extremely accurate quantiles
// using t-digests") whose centroids are sized by the k1 scale function, so
// tail quantiles keep near-singleton resolution while the middle of the
// distribution is compressed aggressively. Alongside the centroids it keeps
// the exact count, sum, minimum and maximum, so N/Mean/Min/Max are exact no
// matter how hard the quantile sketch compresses.
//
// Determinism contract: the sketch uses no clock and no randomness, and its
// compaction schedule is purely structural — observations buffer in arrival
// order and compact via a stable sort exactly when the buffer fills (or
// when a quantile is queried, so queries count as part of the sequence).
// The same sequence of Add/Merge/Quantile calls therefore yields the same
// centroids bit for bit, which is what lets the harness merge per-cell and per-replica
// sketches in submission order and keep every rendered table byte-identical
// at any parallelism.
//
// Merging a RAW sketch — one that has never compacted (fewer buffered
// observations than its compaction threshold) and holds only weight-1
// observations (i.e. was fed by Add, not by merges of compacted sketches)
// — replays those observations in arrival order, so such a merge is
// byte-identical to single-stream accumulation. Merging any other sketch
// folds its centroids and exact sum instead: still deterministic, and
// count/sum/min/max stay exact, but the quantile state approximates the
// concatenated stream — the rank-error bounds (oracle_test.go) are what
// hold unconditionally.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DigestCompression is the default centroid budget: quantile rank error
// shrinks roughly linearly as it grows, memory grows linearly with it.
// At 100 the sketch holds well under 1% rank error on the harness's
// cost distributions (see oracle_test.go) in a few kilobytes.
const DigestCompression = 100

// centroid is one weighted point of the sketch.
type centroid struct {
	mean   float64
	weight float64
}

// Digest is a fixed-memory, deterministically mergeable quantile sketch.
// The zero value is an empty sketch at DigestCompression; NewDigest pins an
// explicit compression. Digest is not safe for concurrent use — give each
// goroutine its own and Merge them in a deterministic order.
type Digest struct {
	compression float64
	centroids   []centroid
	buffer      []centroid
	count       float64
	sum         float64
	min, max    float64
}

// NewDigest returns an empty sketch; compression <= 0 selects
// DigestCompression.
func NewDigest(compression float64) *Digest {
	d := &Digest{}
	d.ensure(compression)
	return d
}

// ensure initializes an empty digest at the given compression (<= 0 means
// the package default).
func (d *Digest) ensure(compression float64) {
	if d.compression > 0 {
		return
	}
	if compression <= 0 {
		compression = DigestCompression
	}
	d.compression = compression
	d.min = math.Inf(1)
	d.max = math.Inf(-1)
}

// Reset empties the sketch in place. It keeps the compression and the
// centroid and buffer arrays, so a reused sketch allocates nothing until
// it holds more than it ever held before.
func (d *Digest) Reset() {
	compression := d.compression
	*d = Digest{centroids: d.centroids[:0], buffer: d.buffer[:0]}
	if compression > 0 {
		d.ensure(compression)
	}
}

// compactionThreshold sizes the raw buffer: larger buffers amortize the
// sort in compact() better at a fixed O(compression) memory bound.
func (d *Digest) compactionThreshold() int {
	return int(5 * d.compression)
}

// Add folds one observation of weight 1 into the sketch. Observations must
// be finite; NaN and ±Inf are rejected so a buggy cost path cannot poison
// every quantile downstream.
func (d *Digest) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("metrics: non-finite observation %v", x))
	}
	d.ensure(0)
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	d.sum += x
	d.addCentroid(x, 1)
}

// addCentroid buffers a weighted point without touching min/max/sum (a
// merged centroid's mean is not an observed extreme).
func (d *Digest) addCentroid(mean, weight float64) {
	if weight <= 0 {
		return
	}
	d.buffer = append(d.buffer, centroid{mean, weight})
	d.count += weight
	if len(d.buffer) >= d.compactionThreshold() {
		d.compact()
	}
}

// Merge folds another sketch's state into this one without mutating it, in
// submission order: o's compacted centroids first, then its raw buffer in
// arrival order. If o never compacted, the merge replays its observations
// exactly and is byte-identical to having Added them here directly.
func (d *Digest) Merge(o *Digest) {
	if o == nil || o.count == 0 {
		return
	}
	if o == d {
		// Self-merge doubles the stream; snapshot the source so folding
		// cannot mutate the arrays it is iterating (addCentroid/compact
		// would otherwise reorder them mid-loop).
		cp := *o
		cp.centroids = append([]centroid(nil), o.centroids...)
		cp.buffer = append([]centroid(nil), o.buffer...)
		o = &cp
	}
	d.ensure(o.compression)
	if o.min < d.min {
		d.min = o.min
	}
	if o.max > d.max {
		d.max = o.max
	}
	// A raw source — never compacted AND holding only weight-1 buffered
	// observations (a buffer can carry weight>1 centroids if the source
	// itself absorbed a compacted merge) — is replayed one observation at
	// a time, reproducing the single-stream floating-point summation
	// order bit for bit. Any other source folds o.sum wholesale: exact,
	// but summed in per-shard order.
	raw := len(o.centroids) == 0
	if raw {
		for _, c := range o.buffer {
			if c.weight != 1 {
				raw = false
				break
			}
		}
	}
	if raw {
		for _, c := range o.buffer {
			d.sum += c.mean
			d.addCentroid(c.mean, 1)
		}
		return
	}
	d.sum += o.sum
	for _, c := range o.centroids {
		d.addCentroid(c.mean, c.weight)
	}
	for _, c := range o.buffer {
		d.addCentroid(c.mean, c.weight)
	}
}

// k is the k1 scale function: k(q) = delta/(2*pi) * asin(2q-1). Its slope
// is steepest at q in {0,1}, bounding edge centroids near weight 1.
func (d *Digest) k(q float64) float64 {
	return d.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// kInv inverts the scale function, clamping to [0,1].
func (d *Digest) kInv(k float64) float64 {
	return (math.Sin(math.Min(math.Max(k*2*math.Pi/d.compression, -math.Pi/2), math.Pi/2)) + 1) / 2
}

// compact merges the buffer into the centroid list: stable-sort by mean
// (ties keep arrival order — determinism), then greedily coalesce adjacent
// centroids while the k-size constraint allows.
func (d *Digest) compact() {
	if len(d.buffer) == 0 {
		return
	}
	d.centroids = append(d.centroids, d.buffer...)
	d.buffer = d.buffer[:0]
	slices.SortStableFunc(d.centroids, func(a, b centroid) int { return cmp.Compare(a.mean, b.mean) })
	if len(d.centroids) <= 1 {
		return
	}
	wSoFar := 0.0
	qLimit := d.kInv(d.k(0) + 1)
	cur := d.centroids[0]
	n := 0 // write index; always <= read index, so in-place is safe
	for _, c := range d.centroids[1:] {
		q := (wSoFar + cur.weight + c.weight) / d.count
		if q <= qLimit {
			cur.mean += c.weight * (c.mean - cur.mean) / (cur.weight + c.weight)
			cur.weight += c.weight
		} else {
			wSoFar += cur.weight
			qLimit = d.kInv(d.k(wSoFar/d.count) + 1)
			d.centroids[n] = cur
			n++
			cur = c
		}
	}
	d.centroids[n] = cur
	d.centroids = d.centroids[:n+1]
}

// N returns the observation count (total folded-in weight).
func (d *Digest) N() int64 { return int64(d.count) }

// Mean returns the exact mean (NaN when empty): the running sum is kept
// outside the sketch, so compression never touches it.
func (d *Digest) Mean() float64 { return d.sum / d.count }

// Min returns the exact minimum observation (NaN when empty).
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return math.NaN()
	}
	return d.min
}

// Max returns the exact maximum observation (NaN when empty).
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return math.NaN()
	}
	return d.max
}

// Quantile returns the estimated q-quantile (0 <= q <= 1), NaN when empty.
// Estimates interpolate between centroid means, pinned to the exact min and
// max at the extremes; rank error is bounded by the compression (see
// oracle_test.go for the measured envelope).
func (d *Digest) Quantile(q float64) float64 {
	if d.count == 0 {
		return math.NaN()
	}
	d.compact()
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	target := q * d.count
	cum := 0.0
	for i, c := range d.centroids {
		mid := cum + c.weight/2
		if target < mid {
			if i == 0 {
				// Between the observed minimum and the first centroid.
				if mid == 0 {
					return c.mean
				}
				return d.min + target/mid*(c.mean-d.min)
			}
			prev := d.centroids[i-1]
			prevMid := cum - prev.weight/2
			return prev.mean + (target-prevMid)/(mid-prevMid)*(c.mean-prev.mean)
		}
		cum += c.weight
	}
	last := d.centroids[len(d.centroids)-1]
	lastMid := d.count - last.weight/2
	if d.count == lastMid {
		return d.max
	}
	return last.mean + (target-lastMid)/(d.count-lastMid)*(d.max-last.mean)
}

// String summarizes the sketch for table output and logs.
func (d *Digest) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g max=%.3g",
		d.N(), d.Mean(), d.Quantile(0.5), d.Quantile(0.95), d.Max())
}
