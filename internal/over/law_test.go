package over

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// drawLandings is one landings pass drawn from r's stream, r left where
// the pass leaves it, as Bootstrap leaves its stream.
func drawLandings(r *xrand.Rand, n int, p float64, link func(i, j int)) {
	g := newSkips(n, p)
	hi, lo := r.PCG().State()
	r.PCG().SetState(g.landings(hi, lo, link))
}

// coinPairs is the coin-per-pair G(n, p) oracle: one r.Bool(p) per pair,
// in landings' row-major order. It is the law landings must keep.
func coinPairs(r *xrand.Rand, n int, p float64, link func(i, j int)) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				link(i, j)
			}
		}
	}
}

// samplers are the two G(n, p) draws the law tests hold to the same
// bounds: landings, which Bootstrap draws with, and the coin oracle, which
// shows that the bounds pass on the law itself.
func samplers() []struct {
	name string
	draw func(r *xrand.Rand, n int, p float64, link func(i, j int))
} {
	return []struct {
		name string
		draw func(r *xrand.Rand, n int, p float64, link func(i, j int))
	}{{"skips", drawLandings}, {"coins", coinPairs}}
}

// wordsDrawn reports how many words r has drawn since xrand.New(seed),
// failing past limit.
func wordsDrawn(t *testing.T, r *xrand.Rand, seed uint64, limit int) int {
	t.Helper()
	twin := xrand.New(seed)
	hi, lo := r.PCG().State()
	for k := 0; k <= limit; k++ {
		if h, l := twin.PCG().State(); h == hi && l == lo {
			return k
		}
		twin.Uint64()
	}
	t.Fatalf("stream more than %d words past seed %d", limit, seed)
	return 0
}

// TestBootstrapPairFrequencies: over 4 000 seeds at n = 8, each of the 28
// pairs lands with frequency p, by a chi-squared test on 28 degrees of
// freedom (mean 28, sd 7.5; the bound is five sd above the mean). At
// p = 0.02 the table holds n = 8 entries against a mean gap of 50 pairs,
// so nearly every landing is reached through table overflows.
func TestBootstrapPairFrequencies(t *testing.T) {
	const n, trials = 8, 4000
	const pairs = n * (n - 1) / 2
	for _, s := range samplers() {
		for _, p := range []float64{0.02, 0.3, 0.9} {
			var counts [n][n]int
			for seed := uint64(1); seed <= trials; seed++ {
				s.draw(xrand.New(seed), n, p, func(i, j int) { counts[i][j]++ })
			}
			want, chi2 := trials*p, 0.0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					d := float64(counts[i][j]) - want
					chi2 += d * d / (want * (1 - p))
				}
			}
			if bound := pairs + 5*math.Sqrt(2*pairs); chi2 > bound {
				t.Errorf("%s p=%g: chi2 = %.1f over %d pairs, bound %.1f", s.name, p, chi2, pairs, bound)
			}
		}
	}
}

// TestBootstrapEdgeCountLaw: over 2 000 seeds at n = 64 the edge count's
// mean and variance match Binomial(C(64, 2), p) within five standard
// errors, at a sparse p and at the density NOW bootstraps at. A variance
// off the binomial's would show pairs that land together or apart.
func TestBootstrapEdgeCountLaw(t *testing.T) {
	const n, trials = 64, 2000
	const pairs = n * (n - 1) / 2
	for _, s := range samplers() {
		t.Run(s.name, func(t *testing.T) {
			for _, p := range []float64{0.01, float64(params().TargetDegree) / (n - 1)} {
				sum, sumSq := 0.0, 0.0
				for seed := uint64(1); seed <= trials; seed++ {
					edges := 0
					s.draw(xrand.New(seed), n, p, func(int, int) { edges++ })
					sum += float64(edges)
					sumSq += float64(edges) * float64(edges)
				}
				mean := sum / trials
				variance := (sumSq - sum*mean) / (trials - 1)
				wantMean, wantVar := pairs*p, pairs*p*(1-p)
				if se := math.Sqrt(wantVar / trials); math.Abs(mean-wantMean) > 5*se {
					t.Errorf("p=%g: mean %.2f edges, binomial %.2f (se %.2f)", p, mean, wantMean, se)
				}
				if se := wantVar * math.Sqrt(2.0/(trials-1)); math.Abs(variance-wantVar) > 5*se {
					t.Errorf("p=%g: variance %.2f, binomial %.2f (se %.2f)", p, variance, wantVar, se)
				}
			}
		})
	}
}

// TestBootstrapDrawsPerEdge: landings draws at most one word per edge,
// one per table length of pairs skipped and one final word, O(n + E),
// where the coins draw C(n, 2). At p = 1e-6 and n = 2 000 the table holds
// n entries against a mean gap of 10^6 pairs, so every gap crosses its
// end hundreds of times; a p that rounds q = 1-p to 1 links nothing and
// still ends.
func TestBootstrapDrawsPerEdge(t *testing.T) {
	cases := []struct {
		n        int
		p        float64
		maxEdges int
	}{
		{2000, 1e-6, 12}, // ~2 edges expected
		{2000, 1e-300, 0},
		{400, 0.05, 4400}, // ~3 990 expected; the table spans 161 pairs
		{60, 0.5, 1000},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			pairs := c.n * (c.n - 1) / 2
			size := c.n // landings' table length
			if span := 8 / c.p; span < float64(c.n) {
				size = int(span) + 1
			}
			r, edges := xrand.New(seed), 0
			drawLandings(r, c.n, c.p, func(int, int) { edges++ })
			words := wordsDrawn(t, r, seed, pairs)
			if edges > c.maxEdges {
				t.Errorf("n=%d p=%g seed %d: %d edges, want at most %d", c.n, c.p, seed, edges, c.maxEdges)
			}
			if limit := edges + pairs/size + 1; words > limit || words <= edges {
				t.Errorf("n=%d p=%g seed %d: %d words for %d edges, want (%d, %d]", c.n, c.p, seed, words, edges, edges, limit)
			}
		}
	}
}

// TestSkipsGuideMatchesBinarySearch: the guide-table search returns
// slices.BinarySearch's index over the table, the search it replaced, at
// every table value and its float64 neighbours on both sides (each read
// through the draws just below and above it), at both ends of every guide
// bucket, and on 10^6 random words. The densities run from a table of n
// values packed into a sliver below 1 (p = 1e-6) to one of nine values
// inside the first bucket (p = 0.99).
func TestSkipsGuideMatchesBinarySearch(t *testing.T) {
	const n = 4096
	r := xrand.New(52)
	for _, p := range []float64{1e-6, 0.02, 0.5, 0.99} {
		g := newSkips(n, p)
		check := func(word uint64) {
			want, _ := slices.BinarySearch(g.neg, -xrand.Float64From(word))
			if got := g.gap(word); got != want {
				t.Fatalf("p=%g word %#x: guide search %d, binary search %d", p, word, got, want)
			}
		}
		// around checks the draws m/2^53 nearest x: the largest at or
		// below it, the one before and the one after.
		around := func(x float64) {
			m := uint64(x * (1 << 53))
			check(m)
			check(m + 1)
			if m > 0 {
				check(m - 1)
			}
		}
		for _, v := range g.neg {
			around(-v)
			around(math.Nextafter(-v, 0))
			around(math.Nextafter(-v, 1))
		}
		for j := range g.guide {
			first := uint64(j) << g.shift
			check(first)
			check(first + 1<<g.shift - 1)
		}
		for range 1_000_000 {
			check(r.Uint64())
		}
	}
}

// TestBootstrapDegenerateDensities: p >= 1 links every pair and p <= 0
// (or NaN) none, the patch chain then joining the n isolated vertices;
// neither draws from the stream.
func TestBootstrapDegenerateDensities(t *testing.T) {
	const n = 12
	vs := make([]ids.ClusterID, n)
	for i := range vs {
		vs[i] = ids.ClusterID(2*i + 1)
	}
	for _, c := range []struct {
		p              float64
		edges, patches int
	}{
		{1, n * (n - 1) / 2, 0},
		{2, n * (n - 1) / 2, 0},
		{0, n - 1, n - 1},
		{-1, n - 1, n - 1},
		{math.NaN(), n - 1, n - 1},
	} {
		o, err := New(params())
		if err != nil {
			t.Fatal(err)
		}
		r, twin := xrand.New(5), xrand.New(5)
		patches, err := o.Bootstrap(r, vs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if o.NumEdges() != c.edges || patches != c.patches {
			t.Errorf("p=%g: %d edges and %d patches, want %d and %d", c.p, o.NumEdges(), patches, c.edges, c.patches)
		}
		if r.Uint64() != twin.Uint64() {
			t.Errorf("p=%g: Bootstrap drew from the stream", c.p)
		}
		if err := o.Check(); err != nil {
			t.Errorf("p=%g: %v", c.p, err)
		}
	}
}

// TestBootstrapRefusesRepeatBeforeDrawing: a vertex list that repeats a
// vertex is refused before anything is drawn.
func TestBootstrapRefusesRepeatBeforeDrawing(t *testing.T) {
	o, err := New(params())
	if err != nil {
		t.Fatal(err)
	}
	r, twin := xrand.New(7), xrand.New(7)
	if _, err := o.Bootstrap(r, []ids.ClusterID{0, 1, 2, 1}, 0.5); err == nil {
		t.Fatal("Bootstrap accepted a vertex listed twice")
	}
	if r.Uint64() != twin.Uint64() {
		t.Fatal("Bootstrap drew from the stream before refusing a repeated vertex")
	}
}

// TestBootstrapEdgeSetHash pins one overlay realisation, its edges in
// link order and the stream's next word, so that a change to the draw, or
// an architecture whose float64 table or compares differ, shows here. It
// is short, so the 386 CI step runs it too.
func TestBootstrapEdgeSetHash(t *testing.T) {
	const n = 300
	vs := make([]ids.ClusterID, n)
	for i := range vs {
		vs[i] = ids.ClusterID(3*i + 1)
	}
	o, err := New(params())
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2026)
	patches, err := o.Bootstrap(r, vs, float64(params().TargetDegree)/(n-1))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range vs {
		for _, u := range o.Adjacent(v) {
			fmt.Fprintf(h, "%d-%d,", v, u)
		}
	}
	fmt.Fprintf(h, "patches=%d next=%#x", patches, r.Uint64())
	const want, edges = 0xc43c1df276a91ba5, 867
	if got := h.Sum64(); got != want || o.NumEdges() != edges {
		t.Errorf("edge-set hash %#x with %d edges, pinned %#x with %d", got, o.NumEdges(), uint64(want), edges)
	}
}
