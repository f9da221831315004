package metrics

// oracle_test.go is the sketch-vs-oracle property suite: every quantile the
// harness reads off a Digest (p50/p90/p99/max) must sit within a fixed
// RANK-error envelope of the exact retained-history Sample, over the
// adversarial input shapes that break naive sketches — heavy-tailed
// power laws (per-operation message costs ARE power-law-ish under churn),
// bimodal mixtures (quiesced clusters vs a tail still absorbing churn,
// the distinction the ISSUE cares about), constant streams (all mass on
// one point), and sorted/reverse-sorted arrival orders (worst case for
// compaction schedules) — across four orders of magnitude of stream size.
//
// Rank error, not value error, is the right metric: a t-digest guarantees
// the estimate's position in the sorted data, while its value can be
// arbitrarily far off in a heavy tail where neighboring ranks are far
// apart.

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"

	"nowover/internal/xrand"
)

// Sample retains all observations so exact quantiles can be computed: it
// is the oracle the Digest sketch is tested against. Memory is O(N), the
// cost the sketch exists to avoid, so only tests use it.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Merge appends another sample's current history. Quantile results after
// any merge order are identical to single-stream accumulation (exact
// quantiles depend only on the multiset). Byte-identity — including the
// float summation order inside Mean — additionally requires the source
// not to have been queried yet: Quantile/Max sort xs in place, so a
// queried source appends in sorted rather than arrival order. Merging
// unqueried sub-samples in submission order is byte-identical to
// single-stream accumulation — the exact face of the determinism contract
// the Digest sketch keeps approximately.
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Footprint reports the retained history's memory in bytes — O(N), the
// quantity the sketch exists to avoid.
func (s *Sample) Footprint() int {
	return int(unsafe.Sizeof(*s)) + 8*cap(s.xs)
}

// Mean returns the sample mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var total float64
	for _, x := range s.xs {
		total += x
	}
	return total / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation on
// the sorted sample. It returns NaN when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Max returns the maximum observation (NaN when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// oracleDist generates observation streams with adversarial shapes.
type oracleDist struct {
	name string
	gen  func(r *xrand.Rand, n int) []float64
}

func oracleDists() []oracleDist {
	return []oracleDist{
		{"power-law", func(r *xrand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				// Pareto with alpha = 1.2: infinite variance, the tail
				// shape of leave-cascade costs.
				xs[i] = math.Pow(1-r.Float64(), -1/1.2)
			}
			return xs
		}},
		{"bimodal", func(r *xrand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if r.Bool(0.7) {
					xs[i] = 100 + 10*r.Float64() // quiesced mode
				} else {
					xs[i] = 1e6 + 1e5*r.Float64() // churn-absorbing tail
				}
			}
			return xs
		}},
		{"constant", func(r *xrand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42
			}
			return xs
		}},
		{"sorted", func(r *xrand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"reverse-sorted", func(r *xrand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
	}
}

// rankBounds returns how many sorted observations are strictly below /
// at-or-below v — the rank interval the value v occupies in the data.
func rankBounds(sorted []float64, v float64) (lo, hi int) {
	lo = sort.SearchFloat64s(sorted, v)
	hi = sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return lo, hi
}

// checkQuantileRank asserts that the digest's q-estimate lands within
// epsRank*n ranks of the target rank in the exact data.
func checkQuantileRank(t *testing.T, sorted []float64, d *Digest, q, epsRank float64) {
	t.Helper()
	n := len(sorted)
	est := d.Quantile(q)
	lo, hi := rankBounds(sorted, est)
	target := q * float64(n)
	slack := epsRank*float64(n) + 1 // +1 forgives integer rank rounding at tiny n
	if target < float64(lo)-slack || target > float64(hi)+slack {
		t.Errorf("q=%v: estimate %v occupies ranks [%d,%d] of %d, target rank %.1f (allowed slack %.1f)",
			q, est, lo, hi, n, target, slack)
	}
}

// TestDigestMatchesOracle is the oracle property test: p50/p90/p99 within
// rank-error bounds of the exact Sample, and max exact, over every
// adversarial shape at sizes 10..10^6 (the top size runs only outside
// -short). The bounds reflect the k1 scale function at the default
// compression: tight at the tails, loosest at the median.
func TestDigestMatchesOracle(t *testing.T) {
	sizes := []int{10, 100, 1000, 10000, 100000}
	if !testing.Short() {
		sizes = append(sizes, 1000000)
	}
	quantiles := []struct {
		q   float64
		eps float64
	}{
		{0.5, 0.02},
		{0.9, 0.015},
		{0.99, 0.005},
	}
	for _, dist := range oracleDists() {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", dist.name, n), func(t *testing.T) {
				xs := dist.gen(xrand.New(uint64(n)^0x0A11CE), n)
				var exact Sample
				d := NewDigest(0)
				for _, x := range xs {
					exact.Add(x)
					d.Add(x)
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for _, qe := range quantiles {
					checkQuantileRank(t, sorted, d, qe.q, qe.eps)
				}
				// Extremes, count and mean are exact in the sketch, full stop.
				if got, want := d.Max(), exact.Max(); got != want {
					t.Errorf("Max: sketch %v, oracle %v", got, want)
				}
				if got, want := d.Quantile(0), sorted[0]; got != want {
					t.Errorf("Quantile(0): sketch %v, oracle min %v", got, want)
				}
				if got, want := d.N(), int64(exact.N()); got != want {
					t.Errorf("N: sketch %d, oracle %d", got, want)
				}
				if got, want := d.Mean(), exact.Mean(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("Mean: sketch %v, oracle %v", got, want)
				}
				// The memory side of the bargain: bounded centroids and
				// footprint no matter the stream length.
				if c := d.Centroids(); c > 2*DigestCompression {
					t.Errorf("centroid count %d exceeds 2x compression", c)
				}
				if n >= 10000 && d.Footprint() >= exact.Footprint()/4 {
					t.Errorf("sketch footprint %dB not clearly below exact %dB at n=%d",
						d.Footprint(), exact.Footprint(), n)
				}
			})
		}
	}
}

// TestDigestQuantileMonotone: estimates must be non-decreasing in q — an
// interpolation bug between centroids would violate it long before the
// rank bounds notice.
func TestDigestQuantileMonotone(t *testing.T) {
	for _, dist := range oracleDists() {
		xs := dist.gen(xrand.New(0xB0B), 20000)
		d := NewDigest(0)
		for _, x := range xs {
			d.Add(x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := d.Quantile(q)
			if v < prev {
				t.Fatalf("%s: Quantile(%v) = %v < previous %v", dist.name, q, v, prev)
			}
			prev = v
		}
	}
}
