package metrics

// hist.go implements Hist, a bounded log-scale histogram for message and
// round counts: a fixed array of power-of-two buckets, so memory is O(1)
// regardless of how many observations are folded in and Merge is EXACT —
// merging sharded sub-histograms in any order is byte-identical to
// single-stream accumulation (bucket counts are commutative integer sums).
// It trades value resolution for that exactness: a quantile estimate is
// correct in rank but only locates its value to within one power of two.
// The harness uses one Hist per traffic class to histogram per-operation
// message counts by protocol primitive.

import (
	"fmt"
	"math"
	"strings"
)

// Histogram geometry: bucket 0 collects x < 1 (the "zero messages" cell);
// bucket 1+e collects 2^e <= x < 2^(e+1) for e in [0, histMaxExp), with the
// last bucket absorbing everything >= 2^(histMaxExp-1). 2^62 comfortably
// exceeds any message count the cost model can produce.
const (
	histMaxExp  = 62
	histBuckets = 1 + histMaxExp
)

// histBucket maps an observation to its bucket index.
func histBucket(x float64) int {
	if x < 1 || math.IsNaN(x) {
		return 0
	}
	e := math.Ilogb(x)
	if e > histMaxExp-1 {
		e = histMaxExp - 1
	}
	return 1 + e
}

// Hist is a bounded log2-bucketed histogram. The zero value is empty and
// ready to use. Hist is not safe for concurrent use.
type Hist struct {
	buckets [histBuckets]int64
	total   int64
}

// Add folds one observation into the histogram. Negative and NaN values
// land in bucket 0 alongside zero (the cost model never produces them, but
// the histogram must not lose count if a caller does).
func (h *Hist) Add(x float64) {
	h.buckets[histBucket(x)]++
	h.total++
}

// Merge folds another histogram's counts into this one without mutating
// it. Merge is exact: merging sharded sub-histograms in any order is
// byte-identical to accumulating the concatenated stream directly.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.total += o.total
}

// N returns the observation count.
func (h *Hist) N() int64 { return h.total }

// Bucket returns the count in bucket i (0 <= i < 63).
func (h *Hist) Bucket(i int) int64 { return h.buckets[i] }

// BucketLower returns the lower bound of bucket i: 0 for bucket 0 (which
// collects every observation below 1), else 2^(i-1).
func BucketLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Ldexp(1, i-1)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// exclusive upper edge of the bucket holding the observation of that rank
// (NaN when empty). Rank is exact; the value is located to within one
// power of two — a factor-2 relative error bound, the price of exact
// mergeability at O(1) memory.
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The ceiling matches Sample's convention loosely: rank 1 for q=0,
	// rank total for q=1.
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return BucketLower(i + 1)
		}
	}
	return BucketLower(histBuckets)
}

// String renders the occupied buckets compactly: "[lo,hi)=count" in
// ascending order.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", h.total)
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, " [%.3g,%.3g)=%d", BucketLower(i), BucketLower(i+1), c)
	}
	return b.String()
}
