package walk

import (
	"math"
	"math/big"
	"slices"
	"testing"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/xrand"
)

// fakeTopo is a Topology holding one View literal, which tests edit
// between walks.
type fakeTopo struct{ v View }

func (f *fakeTopo) View() View { return f.v }

// newFakeTopo is n clusters of 10 honest members on a random graph of
// degree about degree.
func newFakeTopo(t *testing.T, n int, degree int, seed uint64) *fakeTopo {
	t.Helper()
	g := graph.New[ids.ClusterID]()
	vs := make([]ids.ClusterID, n)
	for i := range vs {
		vs[i] = ids.ClusterID(i)
		g.AddVertex(vs[i])
	}
	if err := graph.RandomRegularish(g, xrand.New(seed), vs, degree); err != nil {
		t.Fatal(err)
	}
	f := &fakeTopo{View{NumEdges: g.NumEdges(), MaxSize: 10}}
	for _, c := range vs {
		f.addVertex(10, 0)
		f.v.Adj[c] = g.Neighbors(c)
	}
	return f
}

// addVertex appends an isolated cluster of the given composition.
func (f *fakeTopo) addVertex(size, byz int32) {
	f.v.Rows = append(f.v.Rows, Row{Size: size, Byz: byz})
	f.v.Adj = append(f.v.Adj, nil)
	f.v.NumClusters++
}

// addEdge links a and b, each appended to the other's adjacency, unless
// they are linked already, and reports whether it added the edge.
func (f *fakeTopo) addEdge(a, b ids.ClusterID) bool {
	if slices.Contains(f.v.Adj[a], b) {
		return false
	}
	f.v.Adj[a] = append(f.v.Adj[a], b)
	f.v.Adj[b] = append(f.v.Adj[b], a)
	f.v.NumEdges++
	return true
}

// setSizes gives cluster i size size(i) and sets the max size.
func (f *fakeTopo) setSizes(size func(i int) int32) {
	f.v.MaxSize = 0
	for i := range f.v.Rows {
		f.v.Rows[i].Size = size(i)
		f.v.MaxSize = max(f.v.MaxSize, int(f.v.Rows[i].Size))
	}
}

func defaultCfg() Config {
	return Config{DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{}}
}

func TestConfigValidation(t *testing.T) {
	topo := &fakeTopo{}
	bad := []Config{
		{DurationFactor: 0, MaxRestarts: 1, Gen: randnum.Ideal{}},
		{DurationFactor: 1, MaxRestarts: 0, Gen: randnum.Ideal{}},
		{DurationFactor: 1, MaxRestarts: 1, Gen: nil},
	}
	for _, c := range bad {
		if _, err := NewWalker(c, topo); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	if _, err := NewWalker(defaultCfg(), nil); err == nil {
		t.Error("accepted nil topology")
	}
}

func TestUniformEndpointDistribution(t *testing.T) {
	// CTRW on an irregular-ish expander must land ~uniformly regardless
	// of degree differences — the property the paper uses CTRWs for.
	topo := newFakeTopo(t, 24, 4, 1)
	// Make the graph irregular: add extra edges around vertex 0.
	for i := 10; i < 20; i++ {
		topo.addEdge(0, ids.ClusterID(i))
	}
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(2)
	counts := make([]float64, 24)
	const walks = 8000
	for i := 0; i < walks; i++ {
		out, err := w.Uniform(&led, r, ids.ClusterID(i%24))
		if err != nil {
			t.Fatal(err)
		}
		counts[out.End]++
	}
	uniform := make([]float64, 24)
	for i := range uniform {
		uniform[i] = 1
	}
	if tv := metrics.TVDistance(counts, uniform); tv > 0.08 {
		t.Errorf("TV distance from uniform = %.4f", tv)
	}
}

func TestBiasedEndpointProportionalToSize(t *testing.T) {
	topo := newFakeTopo(t, 16, 4, 3)
	// Heterogeneous sizes: cluster i has size 5 + i.
	topo.setSizes(func(i int) int32 { return int32(5 + i) })
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(4)
	counts := make([]float64, 16)
	const walks = 12000
	for i := 0; i < walks; i++ {
		out, err := w.Biased(&led, r, ids.ClusterID(i%16))
		if err != nil {
			t.Fatal(err)
		}
		counts[out.End]++
	}
	want := make([]float64, 16)
	for i := range want {
		want[i] = float64(5 + i)
	}
	if tv := metrics.TVDistance(counts, want); tv > 0.08 {
		t.Errorf("TV distance from size-proportional = %.4f", tv)
	}
}

func TestBiasedUniformOverNodes(t *testing.T) {
	// The composition randCl-then-uniform-member must be uniform over
	// nodes: P(cluster)*1/|C| = 1/n for all clusters.
	topo := newFakeTopo(t, 12, 4, 5)
	topo.setSizes(func(i int) int32 { return int32(4 * (1 + i%3)) })
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(6)
	perNode := make([]float64, 12)
	const walks = 12000
	for i := 0; i < walks; i++ {
		out, err := w.Biased(&led, r, ids.ClusterID(i%12))
		if err != nil {
			t.Fatal(err)
		}
		perNode[out.End] += 1 / float64(topo.v.Rows[out.End].Size)
	}
	uniform := make([]float64, 12)
	for i := range uniform {
		uniform[i] = 1
	}
	if tv := metrics.TVDistance(perNode, uniform); tv > 0.08 {
		t.Errorf("per-node selection TV from uniform = %.4f", tv)
	}
}

func TestWalkChargesCosts(t *testing.T) {
	topo := newFakeTopo(t, 16, 4, 7)
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	out, err := w.Biased(&led, xrand.New(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hops == 0 {
		t.Fatal("walk made no hops")
	}
	if led.MessagesBy(metrics.ClassWalk) == 0 {
		t.Error("no walk handoff messages charged")
	}
	if led.MessagesBy(metrics.ClassRandNum) == 0 {
		t.Error("no randnum messages charged")
	}
	if led.Rounds() == 0 {
		t.Error("no rounds charged")
	}
}

func TestWalkHopsScale(t *testing.T) {
	// Expected hops per segment ~ DurationFactor * log2(n)^2.
	topo := newFakeTopo(t, 64, 6, 9)
	cfg := defaultCfg()
	cfg.DurationFactor = 1
	w, err := NewWalker(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(10)
	total := 0
	const walks = 300
	for i := 0; i < walks; i++ {
		out, err := w.Uniform(&led, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += out.Hops
	}
	mean := float64(total) / walks
	want := math.Pow(math.Log2(64), 2) // 36
	if mean < want/2 || mean > want*2 {
		t.Errorf("mean hops %.1f, want ~%.1f", mean, want)
	}
}

// TestSingleClusterWalkStaysPut: on a one-cluster overlay a segment has
// no duration, so a walk neither moves nor consults the Hijacker, even
// at a captured cluster; randCl still draws its coins there.
func TestSingleClusterWalkStaysPut(t *testing.T) {
	for _, byz := range []int32{0, 3} {
		topo := &fakeTopo{View{Rows: make([]Row, 7), Adj: make([][]ids.ClusterID, 7), MaxSize: 5}}
		topo.addVertex(5, byz)
		cfg := defaultCfg()
		cfg.Hijack = fixedHijacker{target: 9}
		w, err := NewWalker(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		var led metrics.Ledger
		out, err := w.Biased(&led, xrand.New(11), 7)
		if err != nil {
			t.Fatal(err)
		}
		if out.End != 7 || out.Hops != 0 || out.Hijacked {
			t.Errorf("byz=%d: single-cluster walk moved: %+v", byz, out)
		}
		if led.MessagesBy(metrics.ClassRandNum) == 0 {
			t.Errorf("byz=%d: no acceptance coin charged", byz)
		}
	}
}

type fixedHijacker struct{ target ids.ClusterID }

func (h fixedHijacker) Redirect(*xrand.Rand, ids.ClusterID) (ids.ClusterID, bool) {
	return h.target, true
}

func TestHijackFromCapturedCluster(t *testing.T) {
	topo := newFakeTopo(t, 16, 4, 12)
	captured := ids.ClusterID(3)
	topo.v.Rows[captured].Byz = 5 // 5 of 10 = captured
	cfg := defaultCfg()
	cfg.Hijack = fixedHijacker{target: 9}
	w, err := NewWalker(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	out, err := w.Biased(&led, xrand.New(13), captured)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hijacked || out.End != 9 {
		t.Errorf("walk from captured cluster not hijacked: %+v", out)
	}
	if out.WorstSecurity != randnum.Captured {
		t.Errorf("WorstSecurity = %v", out.WorstSecurity)
	}
}

// interfaceGen hides the generator it wraps from the walker's Ideal check,
// so every draw of a walker built on it goes through the interface.
type interfaceGen struct{ randnum.Generator }

// TestFusedHopChargesOnEveryExit: a walk's draws and hand-offs reach the
// ledger on each of its exits, whether its draws were made inline or out
// of line. Biased walks under the default restart cap and a cap of 1, and
// uniform walks, with and without a hijacker, leave the same outcome,
// error, ledger and next stream word under Ideal, which draws inline
// wherever it can, as through the interface, which takes every step out
// of line; a walker built on Ideal itself, and only such a walker, takes
// the inline path. The topologies take every exit and every out-of-line
// step:
//   - from every start of a graph with a captured, an empty and a degraded
//     cluster, walks end, are hijacked, and fail at the empty cluster
//     after hops at degraded clusters; without a hijacker, some Ideal
//     walks draw at the captured cluster in place and go on, and some
//     never leave the inline path;
//   - where every cluster is degraded but one captured, walks that drew at
//     the captured cluster go on to draw inline, coins included, at
//     degraded ones;
//   - where the view's adjacency table is shorter than its rows, walks
//     hop inline into clusters that have a row but no neighbour there;
//   - from an isolated vertex, secure and degraded, a segment ends where
//     it starts, and its coin is drawn inline;
//   - from an ID past the tables, the walk's coin fails there;
//   - under a max size of 0, every coin fails.
func TestFusedHopChargesOnEveryExit(t *testing.T) {
	type result struct {
		out  Outcome
		msg  string
		led  metrics.Ledger
		next uint64 // the stream's next word after the walk
	}
	all := make([]ids.ClusterID, 40)
	for i := range all {
		all[i] = ids.ClusterID(i)
	}
	var hijacked, failed, ended, inPlace, inline int
	for _, tc := range []struct {
		name   string
		edit   func(*fakeTopo)
		starts []ids.ClusterID
	}{
		{"captured, empty and degraded clusters", func(f *fakeTopo) {
			f.v.Rows[7].Byz = 5   // captured: a walk is hijacked there when a hijacker is installed
			f.v.Rows[13].Size = 0 // a draw there fails, unless the hijacker takes the walk first
			f.v.Rows[21].Byz = 4  // degraded
		}, all},
		{"degraded everywhere, one captured", func(f *fakeTopo) {
			for c := range f.v.Rows {
				f.v.Rows[c].Byz = 4
			}
			f.v.Rows[7].Byz = 5
		}, all},
		{"rows past the adjacency table", func(f *fakeTopo) { f.v.Adj = f.v.Adj[:20] }, all},
		{"isolated vertex", func(f *fakeTopo) { f.addVertex(10, 0) }, []ids.ClusterID{40}},
		{"degraded isolated vertex", func(f *fakeTopo) { f.addVertex(10, 4) }, []ids.ClusterID{40}},
		{"past the tables", func(*fakeTopo) {}, []ids.ClusterID{1000}},
		{"max size 0", func(f *fakeTopo) { f.v.MaxSize = 0 }, []ids.ClusterID{3}},
	} {
		topo := newFakeTopo(t, 40, 4, 5)
		tc.edit(topo)
		run := func(gen randnum.Generator, hijack Hijacker, restarts int, biased bool, start ids.ClusterID) result {
			cfg := defaultCfg()
			cfg.Gen = gen
			cfg.Hijack = hijack
			cfg.MaxRestarts = restarts
			w, err := NewWalker(cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			if _, ideal := gen.(randnum.Ideal); w.ideal != ideal {
				t.Fatalf("%s: walker built on %T has ideal = %v", tc.name, gen, w.ideal)
			}
			var res result
			r := xrand.New(uint64(start) + 100)
			if biased {
				res.out, err = w.Biased(&res.led, r, start)
			} else {
				res.out, err = w.Uniform(&res.led, r, start)
			}
			if err != nil {
				res.msg = err.Error()
			}
			res.next = r.Uint64()
			return res
		}
		for _, hijack := range []Hijacker{nil, fixedHijacker{target: 2}} {
			for _, walk := range []struct {
				restarts int
				biased   bool
			}{{32, true}, {1, true}, {32, false}} {
				for _, start := range tc.starts {
					fused := run(randnum.Ideal{}, hijack, walk.restarts, walk.biased, start)
					viaInterface := run(interfaceGen{randnum.Ideal{}}, hijack, walk.restarts, walk.biased, start)
					if fused != viaInterface {
						t.Fatalf("%s: walk %+v from %v: fused %+v, interface %+v", tc.name, walk, start, fused, viaInterface)
					}
					if len(tc.starts) == 1 {
						continue
					}
					switch out := fused.out; {
					case out.Hops == 0:
					case fused.msg != "":
						failed++
					case out.Hijacked:
						hijacked++
					default:
						ended++
						if hijack == nil && out.WorstSecurity == randnum.Captured {
							inPlace++
						} else if out.WorstSecurity < randnum.Captured {
							inline++
						}
					}
				}
			}
		}
	}
	if hijacked == 0 || failed == 0 || ended == 0 {
		t.Errorf("after at least one hop: %d walks hijacked, %d failed, %d ended; every exit must be taken", hijacked, failed, ended)
	}
	if inPlace == 0 || inline == 0 {
		t.Errorf("%d walks drew at the captured cluster in place and %d never left the inline path; both must happen", inPlace, inline)
	}
}

// pcgStateBefore returns the PCG state whose step is (hi, lo): the LCG
// step state*mul + inc mod 2^128, inverted.
func pcgStateBefore(hi, lo uint64) (uint64, uint64) {
	word := func(hi, lo uint64) *big.Int {
		return new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64), new(big.Int).SetUint64(lo))
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	mul := word(2549297995355413924, 4865540595714422341)
	inc := word(6364136223846793005, 1442695040888963407)
	s := new(big.Int).Sub(word(hi, lo), inc)
	s.Mul(s, new(big.Int).ModInverse(mul, mod)).Mod(s, mod)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	return new(big.Int).Rsh(s, 64).Uint64(), new(big.Int).And(s, mask).Uint64()
}

// TestFusedRejectionRedraws drives the walk loop into Reduce's rejection
// paths: the stream is set so that a walk's second draw takes word 0,
// which Lemire's reduction rejects for a range that is not a power of
// two, so the loop writes its PCG state back and IntnFrom redraws. At
// duration factor 1 that draw is the first neighbour draw (degree 3); at
// a duration factor so small that the first hold time ends the segment it
// is the first acceptance coin (max size 10). With every neighbour of the
// start captured, the redrawn hop lands on a captured cluster, so the
// loop's next step, out of line, starts right after IntnFrom's write-back
// and the reload that follows it. Each walk must match the interface
// path's, next stream word included.
func TestFusedRejectionRedraws(t *testing.T) {
	start := ids.ClusterID(0)
	// A state of high word 0 draws word 0; the first draw takes the word
	// before it.
	hi1, lo1 := pcgStateBefore(0, 12345)
	hi0, lo0 := pcgStateBefore(hi1, lo1)
	for _, tc := range []struct {
		name     string
		factor   float64
		capture  bool // capture every neighbour of the start
		biased   []bool
		wantHops bool
	}{
		{"neighbour draw", 1, false, []bool{true, false}, true},
		{"acceptance coin", 1e-9, false, []bool{true}, false}, // no hop: the second draw is the coin
		{"neighbour draw, then capture", 1, true, []bool{true, false}, true},
	} {
		topo := newFakeTopo(t, 40, 3, 43)
		if deg := len(topo.v.Adj[start]); deg&(deg-1) == 0 {
			t.Fatalf("start degree %d is a power of two; the mask rejects nothing", deg)
		}
		if tc.capture {
			for _, c := range topo.v.Adj[start] {
				topo.v.Rows[c].Byz = 5
			}
		}
		for _, biased := range tc.biased {
			run := func(gen randnum.Generator) (Outcome, metrics.Ledger, uint64) {
				cfg := defaultCfg()
				cfg.DurationFactor = tc.factor
				cfg.Gen = gen
				w, err := NewWalker(cfg, topo)
				if err != nil {
					t.Fatal(err)
				}
				r := xrand.New(0)
				r.PCG().SetState(hi0, lo0)
				var led metrics.Ledger
				walk := w.Uniform
				if biased {
					walk = w.Biased
				}
				out, err := walk(&led, r, start)
				if err != nil {
					t.Fatal(err)
				}
				return out, led, r.Uint64()
			}
			out, led, next := run(randnum.Ideal{})
			iOut, iLed, iNext := run(interfaceGen{randnum.Ideal{}})
			if (out.Hops > 0) != tc.wantHops || tc.capture && out.WorstSecurity != randnum.Captured {
				t.Fatalf("%s, biased=%v: walk %+v did not reach the crafted draw", tc.name, biased, out)
			}
			if out != iOut || led != iLed || next != iNext {
				t.Errorf("%s, biased=%v: fused %+v %+v %#x, interface %+v %+v %#x", tc.name, biased, out, led, next, iOut, iLed, iNext)
			}
		}
	}
}

// TestSegmentDurationFollowsTopology: the walker's cached segment
// duration follows both view counts it depends on. A walker warmed on one
// view and a fresh walker give the same outcomes and ledger from twin
// streams after an edge add, which keeps NumClusters, and after a vertex
// add, which keeps NumEdges, so a cache keyed on either count alone fails.
func TestSegmentDurationFollowsTopology(t *testing.T) {
	topo := newFakeTopo(t, 40, 4, 31)
	warm, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	walks := func(w *Walker) ([]Outcome, metrics.Ledger) {
		var led metrics.Ledger
		r := xrand.New(32)
		var outs []Outcome
		for start := ids.ClusterID(0); start < 40; start++ {
			out, err := w.Uniform(&led, r, start)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs, led
	}
	walks(warm)
	for _, mutate := range []struct {
		name string
		do   func()
	}{
		{"edge add", func() {
			for v := ids.ClusterID(1); !topo.addEdge(0, v); v++ {
			}
		}},
		{"vertex add", func() { topo.addVertex(10, 0) }},
	} {
		before := topo.v
		mutate.do()
		if (topo.v.NumClusters != before.NumClusters) == (topo.v.NumEdges != before.NumEdges) {
			t.Fatalf("%s: moved %d -> %d clusters and %d -> %d edges; want exactly one count moved", mutate.name, before.NumClusters, topo.v.NumClusters, before.NumEdges, topo.v.NumEdges)
		}
		fresh, err := NewWalker(defaultCfg(), topo)
		if err != nil {
			t.Fatal(err)
		}
		wOuts, wLed := walks(warm)
		fOuts, fLed := walks(fresh)
		if !slices.Equal(wOuts, fOuts) || wLed != fLed {
			t.Fatalf("after %s: the warm walker's walks differ from a fresh walker's:\nwarm  %+v %+v\nfresh %+v %+v", mutate.name, wOuts, wLed, fOuts, fLed)
		}
	}
}

func TestWorstSecurityReported(t *testing.T) {
	topo := newFakeTopo(t, 8, 3, 14)
	for i := 0; i < 8; i++ {
		topo.v.Rows[i].Byz = 4 // 4/10 >= 1/3: degraded everywhere
	}
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	out, err := w.Biased(&led, xrand.New(15), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.WorstSecurity != randnum.Degraded {
		t.Errorf("WorstSecurity = %v, want degraded", out.WorstSecurity)
	}
}

func TestSteerBiasesCommitReveal(t *testing.T) {
	// With the biasable generator and Byzantine presence everywhere, a
	// steered walk must land on the adversary's target more often than an
	// unsteered one.
	target := ids.ClusterID(5)
	run := func(steer bool) float64 {
		topo := newFakeTopo(t, 16, 4, 16)
		for i := 0; i < 16; i++ {
			topo.v.Rows[i].Byz = 3 // biasable but secure-majority
		}
		cfg := defaultCfg()
		cfg.Gen = randnum.CommitReveal{}
		if steer {
			cfg.Steer = func(c ids.ClusterID) float64 {
				if c == target {
					return 1
				}
				return 0
			}
		}
		w, err := NewWalker(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		var led metrics.Ledger
		r := xrand.New(17)
		hits := 0
		const walks = 3000
		for i := 0; i < walks; i++ {
			out, err := w.Biased(&led, r, ids.ClusterID(i%16))
			if err != nil {
				t.Fatal(err)
			}
			if out.End == target {
				hits++
			}
		}
		return float64(hits) / walks
	}
	base, steered := run(false), run(true)
	if steered <= base*1.5 {
		t.Errorf("steering ineffective: base %.4f steered %.4f", base, steered)
	}
}

func TestBiasedRestartCapRespected(t *testing.T) {
	// One giant cluster among tiny ones: acceptance for tiny endpoints is
	// rare, so restarts are consumed; the cap must bound them.
	topo := newFakeTopo(t, 12, 4, 20)
	topo.setSizes(func(i int) int32 {
		if i == 0 {
			return 1000
		}
		return 1
	})
	cfg := defaultCfg()
	cfg.MaxRestarts = 3
	w, err := NewWalker(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(21)
	for i := 0; i < 50; i++ {
		out, err := w.Biased(&led, r, ids.ClusterID(1))
		if err != nil {
			t.Fatal(err)
		}
		if out.Restarts > 3 {
			t.Fatalf("restarts %d exceed cap 3", out.Restarts)
		}
	}
}

func TestWalkOnEdgelessMultiClusterFails(t *testing.T) {
	topo := &fakeTopo{View{MaxSize: 5}}
	topo.addVertex(5, 0)
	topo.addVertex(5, 0)
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	if _, err := w.Uniform(&led, xrand.New(22), 0); err == nil {
		t.Error("edgeless multi-cluster overlay accepted")
	}
}

// TestHoldTimeTableExact pins the holding-time table to the expression the
// hop used to evaluate inline: every entry must be bit-identical, so the
// table cannot move a walk's length by even one ulp.
func TestHoldTimeTableExact(t *testing.T) {
	holdTimeOnce.Do(fillHoldTime)
	for hv := range holdTime {
		want := -math.Log(1 - (float64(hv)+0.5)/_holdGrid)
		if math.Float64bits(holdTime[hv]) != math.Float64bits(want) {
			t.Fatalf("holdTime[%d] = %v, want %v", hv, holdTime[hv], want)
		}
	}
}
