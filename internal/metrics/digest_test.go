package metrics

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"nowover/internal/xrand"
)

// TestDigestMergeRawShardsByteIdentical pins the strongest form of the
// merge-equivalence contract: folding sub-digests that have NOT yet
// compacted (fewer observations than the compaction threshold) replays
// their raw observations in arrival order, so merging them in submission
// order leaves the accumulator bit-for-bit identical to single-stream
// accumulation — including every intermediate compaction the combined
// stream triggers.
func TestDigestMergeRawShardsByteIdentical(t *testing.T) {
	r := xrand.New(7)
	const shardLen = 400 // below the threshold (5*compression = 500)
	const shards = 8     // combined stream compacts several times
	stream := make([]float64, 0, shards*shardLen)
	subs := make([]*Digest, shards)
	for s := 0; s < shards; s++ {
		subs[s] = NewDigest(0)
		for i := 0; i < shardLen; i++ {
			x := r.Exp(1) * 1000
			stream = append(stream, x)
			subs[s].Add(x)
		}
		if got := len(subs[s].centroids); got != 0 {
			t.Fatalf("shard %d compacted (%d centroids); shrink shardLen", s, got)
		}
	}
	single := NewDigest(0)
	for _, x := range stream {
		single.Add(x)
	}
	merged := NewDigest(0)
	for _, sub := range subs {
		merged.Merge(sub)
	}
	if !reflect.DeepEqual(single, merged) {
		t.Errorf("merged raw shards diverge from single-stream state:\nsingle: %+v\nmerged: %+v", single, merged)
	}
}

// TestDigestMergeDeterministic: the same sub-digests merged in the same
// submission order always yield bit-identical state — the property that
// keeps rendered tables byte-identical at any parallelism. Compacted
// sources exercise the centroid-folding path.
func TestDigestMergeDeterministic(t *testing.T) {
	build := func() *Digest {
		r := xrand.New(99)
		subs := make([]*Digest, 6)
		for s := range subs {
			subs[s] = NewDigest(0)
			for i := 0; i < 2000; i++ { // > threshold: each shard compacts
				subs[s].Add(math.Pow(1-r.Float64(), -0.8))
			}
		}
		out := NewDigest(0)
		for _, sub := range subs {
			out.Merge(sub)
		}
		return out
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical merge sequences produced different sketch state")
	}
}

// TestDigestMergeKeepsRankBounds: folding compacted shards is an
// approximation of the concatenated stream, but the rank-error envelope
// must survive the merge.
func TestDigestMergeKeepsRankBounds(t *testing.T) {
	r := xrand.New(13)
	var all []float64
	merged := NewDigest(0)
	for s := 0; s < 10; s++ {
		sub := NewDigest(0)
		for i := 0; i < 5000; i++ {
			x := math.Pow(1-r.Float64(), -1/1.5)
			all = append(all, x)
			sub.Add(x)
		}
		merged.Merge(sub)
	}
	sort.Float64s(all)
	for _, qe := range []struct{ q, eps float64 }{{0.5, 0.03}, {0.9, 0.02}, {0.99, 0.01}} {
		checkQuantileRank(t, all, merged, qe.q, qe.eps)
	}
	if merged.N() != int64(len(all)) {
		t.Errorf("merged N = %d, want %d", merged.N(), len(all))
	}
	if merged.Max() != all[len(all)-1] {
		t.Errorf("merged Max = %v, want %v", merged.Max(), all[len(all)-1])
	}
}

// TestDigestMergeOrderIsPartOfTheContract documents WHY reducers must fix
// a submission order: merging compacted sketches is deterministic but not
// commutative, so a reducer that let goroutine scheduling pick the order
// would produce run-to-run different tables. (If this test ever finds the
// two orders bit-identical, the guard is vacuous — loosen the inputs.)
func TestDigestMergeOrderIsPartOfTheContract(t *testing.T) {
	mk := func(seed uint64, scale float64) *Digest {
		r := xrand.New(seed)
		d := NewDigest(0)
		for i := 0; i < 3000; i++ {
			d.Add(scale * r.Float64())
		}
		return d
	}
	ab := NewDigest(0)
	ab.Merge(mk(1, 1))
	ab.Merge(mk(2, 1e6))
	ba := NewDigest(0)
	ba.Merge(mk(2, 1e6))
	ba.Merge(mk(1, 1))
	if reflect.DeepEqual(ab, ba) {
		t.Skip("orders happened to coincide; the determinism tests above still hold")
	}
	// Both orders still honor the exact aggregates.
	if ab.N() != ba.N() || ab.Max() != ba.Max() || math.Abs(ab.Mean()-ba.Mean()) > 1e-6*ab.Mean() {
		t.Errorf("exact aggregates diverged across merge orders: %v vs %v", ab, ba)
	}
}

// TestDigestMergeChainKeepsExactSum is the regression for a subtle
// raw-replay hazard: merging a compacted sketch into an EMPTY one leaves
// the target with no centroids but weight>1 entries in its buffer; a
// later merge of that target must not mistake it for raw observations
// and recompute the sum as mean*weight (which is no longer the exact sum
// of the original stream). The whole merge chain must preserve Mean/sum
// bit-exactly.
func TestDigestMergeChainKeepsExactSum(t *testing.T) {
	r := xrand.New(31)
	d1 := NewDigest(0)
	for i := 0; i < 2000; i++ { // > threshold: d1 compacts
		d1.Add(r.Float64() * 100)
	}
	mid := NewDigest(0) // empty target: d1's centroids land in mid's buffer
	mid.Merge(d1)
	if len(mid.centroids) != 0 {
		t.Fatalf("setup: mid compacted (%d centroids); the hazard path needs a buffered-only target", len(mid.centroids))
	}
	final := NewDigest(0)
	final.Merge(mid)
	if final.sum != d1.sum {
		t.Errorf("sum drifted through the merge chain: %v vs %v (diff %g)",
			final.sum, d1.sum, final.sum-d1.sum)
	}
	if final.Mean() != d1.Mean() || final.N() != d1.N() || final.Max() != d1.Max() {
		t.Errorf("exact aggregates drifted: mean %v/%v n %d/%d max %v/%v",
			final.Mean(), d1.Mean(), final.N(), d1.N(), final.Max(), d1.Max())
	}
}

// TestDigestSelfMerge: d.Merge(d) doubles the stream instead of
// corrupting the arrays it iterates.
func TestDigestSelfMerge(t *testing.T) {
	r := xrand.New(41)
	d := NewDigest(0)
	var sum float64
	for i := 0; i < 1300; i++ { // compacted centroids AND a non-empty buffer
		x := r.Float64() * 10
		d.Add(x)
		sum += x
	}
	max := d.Max()
	d.Merge(d)
	if d.N() != 2600 {
		t.Errorf("self-merge N = %d, want 2600", d.N())
	}
	if math.Abs(d.sum-2*sum) > 1e-9*sum {
		t.Errorf("self-merge sum = %v, want %v", d.sum, 2*sum)
	}
	if d.Max() != max {
		t.Errorf("self-merge max = %v, want %v", d.Max(), max)
	}
	if c := d.Centroids(); c > 2*DigestCompression {
		t.Errorf("self-merge centroid count %d exceeds bound", c)
	}
}

// TestDigestEmptyContract: empty sketches answer NaN, never a plausible 0.
func TestDigestEmptyContract(t *testing.T) {
	d := NewDigest(0)
	for name, got := range map[string]float64{
		"Mean":     d.Mean(),
		"Min":      d.Min(),
		"Max":      d.Max(),
		"Quantile": d.Quantile(0.5),
	} {
		if !math.IsNaN(got) {
			t.Errorf("empty Digest.%s = %v, want NaN", name, got)
		}
	}
	if d.N() != 0 {
		t.Errorf("empty N = %d", d.N())
	}
	var zero Digest // zero value adopts the default compression on first use
	zero.Add(3)
	if zero.Compression() != DigestCompression {
		t.Errorf("zero-value compression = %v, want %v", zero.Compression(), DigestCompression)
	}
	if zero.Quantile(0.5) != 3 {
		t.Errorf("single-observation p50 = %v, want 3", zero.Quantile(0.5))
	}
}

// TestDigestResetMatchesFresh: a sketch that compacted and was queried,
// then Reset and fed a second stream, is bit-for-bit the sketch a fresh
// one of the same compression builds from that stream, and refilling it
// short of a compaction allocates nothing. A zero value stays a zero
// value.
func TestDigestResetMatchesFresh(t *testing.T) {
	var zero Digest
	zero.Reset()
	if !reflect.DeepEqual(zero, Digest{}) {
		t.Fatalf("Reset of a zero Digest = %+v, want the zero value", zero)
	}
	r := xrand.New(5)
	first, second := make([]float64, 1300), make([]float64, 700)
	for i := range first {
		first[i] = r.Exp(1) * 100
	}
	for i := range second {
		second[i] = r.Exp(1) * 10
	}
	for _, compression := range []float64{0, 50} {
		d := NewDigest(compression)
		for _, x := range first {
			d.Add(x)
		}
		_ = d.Quantile(0.9)
		d.Reset()
		fresh := NewDigest(compression)
		for _, x := range second {
			d.Add(x)
			fresh.Add(x)
		}
		if !reflect.DeepEqual(d, fresh) {
			t.Errorf("compression %v: reset sketch diverges from a fresh one:\nreset: %+v\nfresh: %+v", compression, d, fresh)
		}
		// The refill runs past the compaction threshold (5 * compression),
		// so a compaction that allocates shows up here too.
		if allocs := testing.AllocsPerRun(5, func() {
			d.Reset()
			for _, x := range second {
				d.Add(x)
			}
		}); allocs != 0 {
			t.Errorf("compression %v: refilling a reset sketch allocates %v times", compression, allocs)
		}
	}
}

// TestDigestRejectsNonFinite: NaN/Inf observations must panic loudly
// instead of silently poisoning every later quantile.
func TestDigestRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", bad)
				}
			}()
			NewDigest(0).Add(bad)
		}()
	}
}

// TestDigestFootprintBounded is the memory guard behind the acceptance
// criterion "peak accumulator memory O(1) per cell": a million
// observations must not grow the sketch past a few kilobytes, while the
// exact oracle's history grows linearly without bound.
func TestDigestFootprintBounded(t *testing.T) {
	n := 200000
	if !testing.Short() {
		n = 1000000
	}
	r := xrand.New(5)
	d := NewDigest(0)
	peak := 0
	for i := 0; i < n; i++ {
		d.Add(r.Exp(1) * float64(i%1000+1))
		if f := d.Footprint(); f > peak {
			peak = f
		}
	}
	// 5*compression buffered centroids + compacted list + struct: ~20KB
	// at compression 100. 64KB leaves slack without letting O(N) sneak by
	// (the exact history would be 8*n = 1.6-8 MB here).
	if peak > 64<<10 {
		t.Errorf("peak sketch footprint %dB at n=%d; want O(compression), <= 64KB", peak, n)
	}
	if d.N() != int64(n) {
		t.Errorf("N = %d, want %d", d.N(), n)
	}
}

// TestDigestQueriesDoNotChangeResults: querying mid-stream compacts the
// buffer early, which is allowed to change internal state but must keep
// every exact aggregate and the rank-error envelope intact.
func TestDigestQueriesDoNotChangeResults(t *testing.T) {
	r := xrand.New(21)
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = r.Exp(1) * 100
	}
	quiet, chatty := NewDigest(0), NewDigest(0)
	for i, x := range xs {
		quiet.Add(x)
		chatty.Add(x)
		if i%777 == 0 {
			_ = chatty.Quantile(0.5) // mid-stream query compacts early
		}
	}
	if quiet.N() != chatty.N() || quiet.Mean() != chatty.Mean() ||
		quiet.Min() != chatty.Min() || quiet.Max() != chatty.Max() {
		t.Error("mid-stream queries changed exact aggregates")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		checkQuantileRank(t, sorted, chatty, q, 0.03)
	}
}
