package walk

import (
	"fmt"
	"math"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// exactWalkLaw is the law of a walk's endpoint from start on view, as the
// package doc defines the walk: up to segs segments of duration dur of the
// CTRW with generator A − D, each followed by an acceptance coin that
// accepts at c with probability |c|/maxSize; the walk ends where the
// first accepting coin, or else the segs-th segment, leaves it. segs = 1
// is Uniform's law, since the last coin decides nothing.
//
// A segment applies e^{dur(A−D)} by uniformization: with Λ the max
// degree, e^{T(A−D)} = Σ_k Poisson(ΛT; k)(I + (A−D)/Λ)^k, summed until
// the Poisson weights past the mode fall below 1e-17.
func exactWalkLaw(view View, dur float64, maxSize, segs int, start ids.ClusterID) []float64 {
	n := len(view.Rows)
	lambda := 0
	for _, a := range view.Adj {
		lambda = max(lambda, len(a))
	}
	lt := float64(lambda) * dur
	// step returns p(I + (A−D)/Λ).
	step := func(p []float64) []float64 {
		q := make([]float64, n)
		for c := range p {
			q[c] = p[c] * (1 - float64(len(view.Adj[c]))/float64(lambda))
			for _, d := range view.Adj[c] {
				q[c] += p[d] / float64(lambda)
			}
		}
		return q
	}
	p := make([]float64, n)
	p[start] = 1
	law := make([]float64, n)
	for s := 1; ; s++ {
		seg := make([]float64, n)
		term, weight := p, math.Exp(-lt)
		for k := 0; k <= int(lt) || weight > 1e-17; k++ {
			for c := range seg {
				seg[c] += weight * term[c]
			}
			term, weight = step(term), weight*lt/float64(k+1)
		}
		if s == segs {
			for c := range law {
				law[c] += seg[c]
			}
			return law
		}
		for c := range seg {
			accept := float64(view.Rows[c].Size) / float64(maxSize)
			law[c] += seg[c] * accept
			p[c] = seg[c] * (1 - accept)
		}
	}
}

// lawCase is a fixed topology and the walk the law tests run on it.
type lawCase struct {
	name     string
	topo     *fakeTopo
	start    ids.ClusterID
	restarts int
	large    bool // skipped under -short
}

// lawCases are three fixed views with irregular degrees and mixed sizes: a
// lollipop (a 4-clique with a 4-cluster tail, one cluster degraded), 16
// clusters of degree 3 to 5 with sizes 5-20, and 32 clusters of degree 4
// to 8 with sizes 3-21.
func lawCases(t *testing.T) []lawCase {
	lollipop := &fakeTopo{View{
		Rows:        []Row{{12, 0}, {3, 0}, {20, 0}, {7, 0}, {15, 5}, {4, 0}, {9, 0}, {18, 0}},
		Adj:         [][]ids.ClusterID{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2, 4}, {3, 5}, {4, 6}, {5, 7}, {6}},
		NumClusters: 8, NumEdges: 10, MaxSize: 20,
	}}
	sixteen := newFakeTopo(t, 16, 3, 51)
	sixteen.setSizes(func(i int) int32 { return int32(5 + i) })
	thirtyTwo := newFakeTopo(t, 32, 4, 52)
	thirtyTwo.setSizes(func(i int) int32 { return int32(3 + 7*i%19) })
	return []lawCase{
		{"lollipop", lollipop, 7, 2, false},
		{"16 clusters", sixteen, 0, 32, false},
		{"32 clusters", thirtyTwo, 5, 4, true},
	}
}

// lawWalks is the number of walks each law test samples per case.
const lawWalks = 200_000

// chiSquareCritical is the chi-squared critical value at df degrees of
// freedom and upper tail 1e-4 (standard normal quantile 3.719), by the
// Wilson-Hilferty approximation, which overstates the exact value by less
// than 4% for df >= 3 (21.84 for 21.11 at df 3, 44.59 for 44.26 at 15).
func chiSquareCritical(df int) float64 {
	k := float64(df)
	v := 1 - 2/(9*k) + 3.719*math.Sqrt(2/(9*k))
	return k * v * v * v
}

// checkLaw samples lawWalks endpoints of walk on every law case at
// duration factors f = 0.05, 0.2 and 1 and compares their counts with the
// exact law by a chi-squared test, cells expecting fewer than 5 walks
// pooled into one.
func checkLaw(t *testing.T, biased bool) {
	for _, tc := range lawCases(t) {
		if tc.large && testing.Short() {
			continue
		}
		for _, f := range []float64{0.05, 0.2, 1} {
			t.Run(fmt.Sprintf("%s/f=%v", tc.name, f), func(t *testing.T) {
				cfg := defaultCfg()
				cfg.DurationFactor, cfg.MaxRestarts = f, tc.restarts
				w, err := NewWalker(cfg, tc.topo)
				if err != nil {
					t.Fatal(err)
				}
				v := tc.topo.View()
				l2 := math.Log2(float64(v.NumClusters))
				dur := f * l2 * l2 / (2 * float64(v.NumEdges) / float64(v.NumClusters))
				walk, segs := w.Uniform, 1
				if biased {
					walk, segs = w.Biased, tc.restarts
				}
				law := exactWalkLaw(v, dur, v.MaxSize, segs, tc.start)
				counts := make([]int64, len(law))
				var led metrics.Ledger
				r := xrand.New(61)
				for range lawWalks {
					out, err := walk(&led, r, tc.start)
					if err != nil {
						t.Fatal(err)
					}
					counts[out.End]++
				}
				var obs []int64
				var expect []float64
				var poolObs int64
				var poolExp float64
				for c, p := range law {
					if e := p * lawWalks; e < 5 {
						poolObs, poolExp = poolObs+counts[c], poolExp+e
					} else {
						obs, expect = append(obs, counts[c]), append(expect, e)
					}
				}
				if poolExp > 0 {
					obs, expect = append(obs, poolObs), append(expect, poolExp)
				}
				stat, crit := metrics.ChiSquare(obs, expect), chiSquareCritical(len(obs)-1)
				if stat > crit {
					t.Errorf("chi-squared %.1f over %d cells exceeds the critical value %.1f\nsampled %v\nexact   %.5f", stat, len(obs), crit, counts, law)
				}
			})
		}
	}
}

// TestBiasedMatchesExactLaw: Biased's endpoints, sampled from one fixed
// start per case, follow randCl's exact law, the restart cap's mass
// included.
func TestBiasedMatchesExactLaw(t *testing.T) { checkLaw(t, true) }

// TestUniformMatchesExactLaw: Uniform's endpoints, sampled from one fixed
// start per case, follow the exact law of one CTRW segment.
func TestUniformMatchesExactLaw(t *testing.T) { checkLaw(t, false) }
