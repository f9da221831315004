package core

import (
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/xrand"
)

// testWorld bootstraps a world at n0 nodes with a deterministic tau
// fraction of Byzantine nodes spread uniformly by the random partition.
func testWorld(t *testing.T, cfg Config, n0 int, tau float64) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byzBudget := int(tau * float64(n0))
	if err := w.Bootstrap(n0, func(slot int) bool { return slot < byzBudget }); err != nil {
		t.Fatal(err)
	}
	return w
}

func smallConfig() Config {
	cfg := DefaultConfig(1024)
	cfg.Seed = 7
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 4 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.L = 1.2 },
		func(c *Config) { c.WalkDurationFactor = 0 },
		func(c *Config) { c.Generator = nil },
		func(c *Config) { c.EdgeAttemptFactor = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1024)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig(1024).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig(1024) // log2 N = 10
	if got := cfg.TargetClusterSize(); got != 20 {
		t.Errorf("target size = %d, want 20", got)
	}
	if got := cfg.SplitThreshold(); got != 40 {
		t.Errorf("split threshold = %d, want 40", got)
	}
	if got := cfg.MergeThreshold(); got != 10 {
		t.Errorf("merge threshold = %d, want 10", got)
	}
	if cfg.TargetDegree() < 3 || cfg.DegreeCap() < cfg.TargetDegree() {
		t.Errorf("degree discipline inconsistent: %d/%d", cfg.TargetDegree(), cfg.DegreeCap())
	}
	if cfg.DegreeFloor() >= cfg.TargetDegree() {
		t.Errorf("floor %d >= target %d", cfg.DegreeFloor(), cfg.TargetDegree())
	}
}

func TestBootstrapInvariants(t *testing.T) {
	w := testWorld(t, smallConfig(), 400, 0.2)
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	a := w.Audit()
	if a.Nodes != 400 {
		t.Errorf("nodes = %d", a.Nodes)
	}
	if a.Byz != 80 {
		t.Errorf("byz = %d, want 80", a.Byz)
	}
	target := w.Config().TargetClusterSize()
	if a.Clusters != 400/target {
		t.Errorf("clusters = %d, want %d", a.Clusters, 400/target)
	}
	if a.MinSize < w.Config().MergeThreshold() || a.MaxSize > w.Config().SplitThreshold() {
		t.Errorf("size bounds violated: %v", a)
	}
	if !a.OverlayConnected {
		t.Error("overlay disconnected after bootstrap")
	}
	if a.Captured != 0 {
		t.Errorf("captured clusters at bootstrap: %d", a.Captured)
	}
}

func TestBootstrapValidation(t *testing.T) {
	w, err := NewWorld(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(5, nil); err == nil {
		t.Error("bootstrap below two clusters accepted")
	}
	if err := w.Bootstrap(4096, nil); err == nil {
		t.Error("bootstrap above N accepted")
	}
	if err := w.Bootstrap(400, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(400, nil); err == nil {
		t.Error("double bootstrap accepted")
	}
}

func TestJoinAddsNode(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0.1)
	before := w.NumNodes()
	x, err := w.JoinAuto(false)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumNodes() != before+1 {
		t.Errorf("nodes = %d, want %d", w.NumNodes(), before+1)
	}
	if !w.Contains(x) {
		t.Error("joined node missing")
	}
	if _, ok := w.ClusterOf(x); !ok {
		t.Error("joined node has no cluster")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Joins != 1 {
		t.Errorf("join stat = %d", w.Stats().Joins)
	}
}

func TestJoinByzantineTracked(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0)
	x, err := w.JoinAuto(true)
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsByzantine(x) {
		t.Error("byzantine joiner not tracked")
	}
	if w.NumByzantine() != 1 {
		t.Errorf("byz count = %d", w.NumByzantine())
	}
}

func TestLeaveRemovesNode(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0.1)
	x, ok := w.RandomHonestNode(xrand.New(99))
	if !ok {
		t.Fatal("no honest node")
	}
	before := w.NumNodes()
	if err := w.Leave(x); err != nil {
		t.Fatal(err)
	}
	if w.NumNodes() != before-1 {
		t.Errorf("nodes = %d, want %d", w.NumNodes(), before-1)
	}
	if w.Contains(x) {
		t.Error("left node still present")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveUnknownNodeFails(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0)
	if err := w.Leave(ids.NodeID(1 << 40)); err == nil {
		t.Error("leave of unknown node accepted")
	}
}

func TestJoinBeforeBootstrapFails(t *testing.T) {
	w, err := NewWorld(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.JoinAuto(false); err == nil {
		t.Error("join before bootstrap accepted")
	}
}

func TestSplitOnGrowth(t *testing.T) {
	cfg := smallConfig()
	w := testWorld(t, cfg, 300, 0)
	clustersBefore := w.NumClusters()
	// Push enough joins to force splits: average size grows to ~47,
	// beyond the split threshold of 40.
	for i := 0; i < 400; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Splits == 0 {
		t.Error("no split after 400 joins (133% growth)")
	}
	if w.NumClusters() <= clustersBefore {
		t.Errorf("clusters %d did not grow from %d", w.NumClusters(), clustersBefore)
	}
	a := w.Audit()
	if a.MaxSize > cfg.SplitThreshold() {
		t.Errorf("max size %d exceeds split threshold %d", a.MaxSize, cfg.SplitThreshold())
	}
	if !a.OverlayConnected {
		t.Error("overlay disconnected after splits")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOnShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("merge churn sweep skipped in -short mode")
	}
	cfg := smallConfig()
	w := testWorld(t, cfg, 500, 0)
	r := xrand.New(5)
	for i := 0; i < 300; i++ {
		x, ok := w.RandomNode(r)
		if !ok {
			t.Fatal("network emptied")
		}
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Merges == 0 {
		t.Error("no merge after 60% shrink")
	}
	a := w.Audit()
	if a.MinSize < cfg.MergeThreshold() {
		t.Errorf("min size %d below merge threshold %d", a.MinSize, cfg.MergeThreshold())
	}
	if !a.OverlayConnected {
		t.Error("overlay disconnected after merges")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRejoinAllStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("merge churn sweep skipped in -short mode")
	}
	cfg := smallConfig()
	cfg.MergeStrategy = MergeRejoinAll
	w := testWorld(t, cfg, 500, 0)
	r := xrand.New(6)
	for i := 0; i < 250; i++ {
		x, ok := w.RandomNode(r)
		if !ok {
			break
		}
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
		// Drain rejoins as subsequent time steps.
		for _, q := range w.PendingRejoins() {
			if err := w.Rejoin(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w.Stats().Merges == 0 {
		t.Error("no merges under rejoin-all strategy")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestExchangePreservesPopulation(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0.25)
	nodes, byz := w.NumNodes(), w.NumByzantine()
	for i := 0; i < 20; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
	}
	if w.NumNodes() != nodes+20 || w.NumByzantine() != byz {
		t.Errorf("population drifted: %d/%d -> %d/%d", nodes, byz, w.NumNodes(), w.NumByzantine())
	}
}

func TestStatsAccumulate(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0.2)
	r := xrand.New(7)
	for i := 0; i < 10; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
		x, _ := w.RandomNode(r)
		if err := w.Leave(x); err != nil {
			t.Fatal(err)
		}
	}
	s := w.Stats()
	if s.Joins != 10 || s.Leaves != 10 {
		t.Errorf("ops = %d/%d, want 10/10", s.Joins, s.Leaves)
	}
	if s.Swaps == 0 {
		t.Error("no swaps recorded despite exchanges")
	}
	if s.MaxByzFractionEver <= 0 {
		t.Error("max byz fraction never tracked")
	}
	if w.Ledger().Messages() == 0 || w.Ledger().Rounds() == 0 {
		t.Error("no costs charged")
	}
}

func TestChurnMaintainsInvariants(t *testing.T) {
	// The E1 miniature: sustained 10% Byzantine churn, every invariant
	// checked at every step. At tau=0.10 and clusters of ~20 the capture
	// probability per cluster-step is ~1e-5, so any capture in this short
	// run indicates a protocol bug rather than binomial bad luck. (The
	// tau/K tail-rate tradeoff itself is measured by experiments E1/E12.)
	cfg := smallConfig()
	cfg.Seed = 11
	w := testWorld(t, cfg, 400, 0.10)
	r := xrand.New(8)
	byzBudget := 0.10
	for step := 0; step < 120; step++ {
		wantByz := r.Bool(byzBudget)
		if r.Bool(0.5) && w.NumNodes() > 350 {
			var x ids.NodeID
			var ok bool
			if wantByz {
				x, ok = w.RandomByzantineNode(r)
			} else {
				x, ok = w.RandomHonestNode(r)
			}
			if !ok {
				continue
			}
			if err := w.Leave(x); err != nil {
				t.Fatal(err)
			}
		} else {
			canByz := float64(w.NumByzantine()+1) <= byzBudget*float64(w.NumNodes()+1)
			if _, err := w.JoinAuto(wantByz && canByz); err != nil {
				t.Fatal(err)
			}
		}
		if step%10 == 0 {
			if err := w.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		a := w.Audit()
		if a.Captured > 0 {
			t.Fatalf("step %d: cluster captured: %v", step, a)
		}
		if !a.OverlayConnected {
			t.Fatalf("step %d: overlay disconnected", step)
		}
	}
}

func TestOverlayHealthAfterChurn(t *testing.T) {
	w := testWorld(t, smallConfig(), 400, 0.1)
	for i := 0; i < 60; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
	}
	h := w.OverlayHealth(80, 40)
	if !h.Connected {
		t.Fatal("unhealthy overlay")
	}
	if h.MaxDegree > w.Config().DegreeCap() {
		t.Errorf("max degree %d above cap %d", h.MaxDegree, w.Config().DegreeCap())
	}
	if h.SpectralGap <= 0 {
		t.Errorf("spectral gap %v", h.SpectralGap)
	}
}

func TestHijackerInstallation(t *testing.T) {
	w := testWorld(t, smallConfig(), 300, 0)
	w.SetHijacker(nil) // must not panic; proxy handles nil
	if _, err := w.JoinAuto(false); err != nil {
		t.Fatal(err)
	}
}

func TestMergeStrategyString(t *testing.T) {
	if MergeAbsorbRandom.String() == "" || MergeRejoinAll.String() == "" {
		t.Error("empty merge strategy name")
	}
	if MergeStrategy(9).String() == "" {
		t.Error("unknown strategy produced empty string")
	}
}

// recordingGen draws through Ideal and records every captured draw: its
// range, whether it carried an objective, and its value.
type recordingGen struct{ captured *[]capturedDraw }

type capturedDraw struct {
	r      int64
	hasObj bool
	v      int64
}

func (g recordingGen) Draw(led *metrics.Ledger, r *xrand.Rand, p randnum.Params, obj randnum.Objective) (int64, randnum.Security, error) {
	v, sec, err := randnum.Ideal{}.Draw(led, r, p, obj)
	if sec == randnum.Captured {
		*g.captured = append(*g.captured, capturedDraw{r: p.R, hasObj: obj != nil, v: v})
	}
	return v, sec, err
}

// TestCapturedDrawsWithoutSteerHook pins what a captured cluster does to a
// walk in a world with no steer hook installed. The world always hands the
// walker a Steer (scoring 0 without a hook), so each captured next-hop and
// acceptance draw carries an all-zero objective and returns 0: the walk
// moves to Adjacent(c)[0] and the acceptance coin accepts. Only the
// holding time, drawn without an objective, stays uniform. Changing this
// re-records the golden tables.
func TestCapturedDrawsWithoutSteerHook(t *testing.T) {
	var captured []capturedDraw
	cfg := smallConfig()
	cfg.Generator = recordingGen{captured: &captured}
	w := testWorld(t, cfg, 400, 0.4)
	r := xrand.New(11)
	for i := 0; i < 40; i++ {
		c, _ := w.RandomCluster(r)
		if _, err := w.Walker().Biased(w.Ledger(), r, c); err != nil {
			t.Fatal(err)
		}
	}
	var steered, uniform int
	holdValues := map[int64]bool{}
	for _, d := range captured {
		if d.r == 1<<16 {
			if d.hasObj {
				t.Fatal("a captured holding-time draw carried an objective")
			}
			uniform++
			holdValues[d.v] = true
			continue
		}
		if !d.hasObj {
			t.Fatalf("a captured draw over [0, %d) carried no objective", d.r)
		}
		if d.v != 0 {
			t.Fatalf("a captured draw over [0, %d) returned %d, want 0", d.r, d.v)
		}
		if d.r > 1 {
			steered++
		}
	}
	if steered == 0 || uniform < 2 {
		t.Fatalf("%d steered and %d holding-time captured draws; raise the Byzantine share", steered, uniform)
	}
	if len(holdValues) < 2 {
		t.Error("every captured holding-time draw returned the same value")
	}
}
