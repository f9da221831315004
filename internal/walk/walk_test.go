package walk

import (
	"math"
	"testing"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/xrand"
)

// fakeTopo is an in-memory Topology over an explicit graph with per-cluster
// sizes and Byzantine counts.
type fakeTopo struct {
	g     *graph.Graph[ids.ClusterID]
	sizes map[ids.ClusterID]int
	byz   map[ids.ClusterID]int
	maxSz int
}

func newFakeTopo(t *testing.T, n int, degree int, seed uint64) *fakeTopo {
	t.Helper()
	ft := &fakeTopo{
		g:     graph.New[ids.ClusterID](),
		sizes: make(map[ids.ClusterID]int),
		byz:   make(map[ids.ClusterID]int),
	}
	var vs []ids.ClusterID
	for i := 0; i < n; i++ {
		c := ids.ClusterID(i)
		ft.g.AddVertex(c)
		vs = append(vs, c)
		ft.sizes[c] = 10
		ft.maxSz = 10
	}
	if err := graph.RandomRegularish(ft.g, xrand.New(seed), vs, degree); err != nil {
		t.Fatal(err)
	}
	return ft
}

func (f *fakeTopo) NumClusters() int                         { return f.g.NumVertices() }
func (f *fakeTopo) NumOverlayEdges() int                     { return f.g.NumEdges() }
func (f *fakeTopo) Adjacent(c ids.ClusterID) []ids.ClusterID { return f.g.Neighbors(c) }
func (f *fakeTopo) Size(c ids.ClusterID) int                 { return f.sizes[c] }
func (f *fakeTopo) Byz(c ids.ClusterID) int                  { return f.byz[c] }
func (f *fakeTopo) MaxClusterSize() int                      { return f.maxSz }

var _ Topology = (*fakeTopo)(nil)

func defaultCfg() Config {
	return Config{DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{}}
}

func TestConfigValidation(t *testing.T) {
	topo := &fakeTopo{g: graph.New[ids.ClusterID]()}
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
		if !topo.g.HasEdge(0, ids.ClusterID(i)) {
			if err := topo.g.AddEdge(0, ids.ClusterID(i)); err != nil {
				t.Fatal(err)
			}
		}
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
	topo.maxSz = 0
	for i := 0; i < 16; i++ {
		topo.sizes[ids.ClusterID(i)] = 5 + i
		if 5+i > topo.maxSz {
			topo.maxSz = 5 + i
		}
	}
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
	for i := 0; i < 12; i++ {
		topo.sizes[ids.ClusterID(i)] = 4 * (1 + i%3)
	}
	topo.maxSz = 12
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
		perNode[out.End] += 1 / float64(topo.sizes[out.End])
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

func TestSingleClusterWalkStaysPut(t *testing.T) {
	topo := &fakeTopo{
		g:     graph.New[ids.ClusterID](),
		sizes: map[ids.ClusterID]int{7: 5},
		byz:   map[ids.ClusterID]int{},
		maxSz: 5,
	}
	topo.g.AddVertex(7)
	w, err := NewWalker(defaultCfg(), topo)
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	out, err := w.Biased(&led, xrand.New(11), 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.End != 7 || out.Hops != 0 {
		t.Errorf("single-cluster walk moved: %+v", out)
	}
}

type fixedHijacker struct{ target ids.ClusterID }

func (h fixedHijacker) Redirect(*xrand.Rand, ids.ClusterID) (ids.ClusterID, bool) {
	return h.target, true
}

func TestHijackFromCapturedCluster(t *testing.T) {
	topo := newFakeTopo(t, 16, 4, 12)
	captured := ids.ClusterID(3)
	topo.byz[captured] = 5 // 5 of 10 = captured
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

// TestFusedHopChargesOnEveryExit: a segment's tallied draws and hand-offs
// reach the ledger on each of its exits. Walks that end, that are hijacked
// at a captured cluster and whose draw fails at an empty cluster leave the
// same outcome, error and ledger under Ideal's fused hop as through the
// interface, including after hops at degraded clusters.
func TestFusedHopChargesOnEveryExit(t *testing.T) {
	topo := newFakeTopo(t, 40, 4, 5)
	topo.byz[7] = 5    // captured: a walk is hijacked there when a hijacker is installed
	topo.sizes[13] = 0 // a draw there fails, unless the hijacker takes the walk first
	topo.byz[21] = 4   // degraded
	run := func(gen randnum.Generator, hijack Hijacker, start ids.ClusterID) (Outcome, string, metrics.Ledger) {
		cfg := defaultCfg()
		cfg.Gen = gen
		cfg.Hijack = hijack
		w, err := NewWalker(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		var led metrics.Ledger
		out, err := w.Biased(&led, xrand.New(uint64(start)+100), start)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		return out, msg, led
	}
	var hijacked, failed, ended int
	for _, hijack := range []Hijacker{nil, fixedHijacker{target: 2}} {
		for start := ids.ClusterID(0); start < 40; start++ {
			out, msg, led := run(randnum.Ideal{}, hijack, start)
			iOut, iMsg, iLed := run(interfaceGen{randnum.Ideal{}}, hijack, start)
			if out != iOut || msg != iMsg || led != iLed {
				t.Fatalf("walk from %v: fused %+v %q %+v, interface %+v %q %+v", start, out, msg, led, iOut, iMsg, iLed)
			}
			switch {
			case out.Hops == 0:
			case msg != "":
				failed++
			case out.Hijacked:
				hijacked++
			default:
				ended++
			}
		}
	}
	if hijacked == 0 || failed == 0 || ended == 0 {
		t.Errorf("after at least one hop: %d walks hijacked, %d failed, %d ended; every exit must be taken", hijacked, failed, ended)
	}
}

func TestWorstSecurityReported(t *testing.T) {
	topo := newFakeTopo(t, 8, 3, 14)
	for i := 0; i < 8; i++ {
		topo.byz[ids.ClusterID(i)] = 4 // 4/10 >= 1/3: degraded everywhere
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
			topo.byz[ids.ClusterID(i)] = 3 // biasable but secure-majority
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
	for i := 1; i < 12; i++ {
		topo.sizes[ids.ClusterID(i)] = 1
	}
	topo.sizes[0] = 1000
	topo.maxSz = 1000
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
	topo := &fakeTopo{
		g:     graph.New[ids.ClusterID](),
		sizes: map[ids.ClusterID]int{0: 5, 1: 5},
		byz:   map[ids.ClusterID]int{},
		maxSz: 5,
	}
	topo.g.AddVertex(0)
	topo.g.AddVertex(1)
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
