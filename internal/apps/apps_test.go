package apps_test

import (
	"math"
	"testing"

	"nowover/internal/apps"
	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/xrand"
)

func world(t *testing.T, n0 int, tau float64) *core.World {
	t.Helper()
	cfg := core.DefaultConfig(1024)
	cfg.Seed = 31
	w, err := core.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := int(tau * float64(n0))
	if err := w.Bootstrap(n0, func(slot int) bool { return slot < budget }); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBroadcastReachesEveryone(t *testing.T) {
	w := world(t, 400, 0.1)
	var led metrics.Ledger
	src := w.Clusters()[0]
	rep, err := apps.Broadcast(&led, w, src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClustersReached != w.NumClusters() {
		t.Errorf("reached %d of %d clusters", rep.ClustersReached, w.NumClusters())
	}
	if rep.NodesReached != w.NumNodes() {
		t.Errorf("reached %d of %d nodes", rep.NodesReached, w.NumNodes())
	}
	if rep.Messages == 0 || rep.Rounds == 0 {
		t.Error("no cost recorded")
	}
	if led.MessagesBy(metrics.ClassApplication) != rep.Messages {
		t.Error("ledger and report disagree")
	}
}

func TestBroadcastBeatsFlooding(t *testing.T) {
	// The section 6 claim: clustered broadcast is O~(n) vs O(n^2); at
	// n=600 the clustered cost must be well below the flooding reference.
	w := world(t, 600, 0)
	var led metrics.Ledger
	rep, err := apps.Broadcast(&led, w, w.Clusters()[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages*3 > rep.FloodingMessages {
		t.Errorf("clustered %d not well below flooding %d", rep.Messages, rep.FloodingMessages)
	}
}

func TestBroadcastEmptySourceFails(t *testing.T) {
	w := world(t, 300, 0)
	var led metrics.Ledger
	if _, err := apps.Broadcast(&led, w, ^ids.ClusterID(0)); err == nil {
		t.Error("broadcast from nonexistent cluster accepted")
	}
}

func TestSamplerUniformity(t *testing.T) {
	w := world(t, 300, 0)
	s, err := apps.NewSampler(w, w.Walker(), w.Generator())
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(5)
	counts := make(map[ids.NodeID]int)
	const draws = 6000
	for i := 0; i < draws; i++ {
		contact, _ := w.RandomCluster(r)
		rep, err := s.Sample(&led, r, contact)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Security != randnum.Secure {
			t.Fatalf("insecure sample in honest network: %v", rep.Security)
		}
		if rep.Messages == 0 {
			t.Fatal("free sample")
		}
		counts[rep.Node]++
	}
	// Chi-square against uniform over 300 nodes: expected 20 per node.
	obs := make([]int64, 0, w.NumNodes())
	expect := make([]float64, 0, w.NumNodes())
	for _, c := range w.Clusters() {
		for i := 0; i < w.Size(c); i++ {
			obs = append(obs, int64(counts[w.MemberAt(c, i)]))
			expect = append(expect, 1)
		}
	}
	stat := metrics.ChiSquare(obs, expect)
	// dof = 299; mean 299, sd ~ sqrt(2*299) ~ 24.5; allow 5 sigma.
	if stat > 299+5*24.5 {
		t.Errorf("chi-square %.0f implausibly high for uniform sampling", stat)
	}
}

func TestSamplerCostPolylog(t *testing.T) {
	w := world(t, 500, 0)
	s, err := apps.NewSampler(w, w.Walker(), w.Generator())
	if err != nil {
		t.Fatal(err)
	}
	var led metrics.Ledger
	r := xrand.New(6)
	var total int64
	const draws = 50
	for i := 0; i < draws; i++ {
		contact, _ := w.RandomCluster(r)
		rep, err := s.Sample(&led, r, contact)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.Messages
	}
	mean := float64(total) / draws
	// Polylog budget: log2(1024)^5 = 10^5; a sample must cost far less
	// than contacting the whole network n=500 times.
	if mean > 1e5 {
		t.Errorf("mean sample cost %.0f exceeds polylog budget", mean)
	}
}

func TestSamplerValidation(t *testing.T) {
	w := world(t, 300, 0)
	if _, err := apps.NewSampler(nil, w.Walker(), w.Generator()); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := apps.NewSampler(w, nil, w.Generator()); err == nil {
		t.Error("nil walker accepted")
	}
	if _, err := apps.NewSampler(w, w.Walker(), nil); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestAggregateCountsNodes(t *testing.T) {
	w := world(t, 400, 0.15)
	var led metrics.Ledger
	root := w.Clusters()[0]
	rep, err := apps.Aggregate(&led, w, root, func(ids.ClusterID, int) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != int64(w.NumNodes()) {
		t.Errorf("aggregate = %d, want %d", rep.Value, w.NumNodes())
	}
	if rep.Value != rep.Exact {
		t.Errorf("root value %d != exact %d", rep.Value, rep.Exact)
	}
	if rep.Messages == 0 || rep.Rounds == 0 {
		t.Error("no cost recorded")
	}
}

func TestAggregateWeightedSum(t *testing.T) {
	w := world(t, 300, 0)
	var led metrics.Ledger
	rep, err := apps.Aggregate(&led, w, w.Clusters()[1], func(c ids.ClusterID, i int) int64 {
		return int64(w.MemberAt(c, i)) % 7
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, c := range w.Clusters() {
		for i := 0; i < w.Size(c); i++ {
			want += int64(w.MemberAt(c, i)) % 7
		}
	}
	if rep.Value != want {
		t.Errorf("aggregate = %d, want %d", rep.Value, want)
	}
}

func TestAgreeMajorityDecision(t *testing.T) {
	w := world(t, 400, 0.1)
	var led metrics.Ledger
	root := w.Clusters()[0]
	// Every cluster proposes 1: decision must be 1.
	rep, err := apps.Agree(&led, w, root, func(ids.ClusterID) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != 1 {
		t.Errorf("decision = %d, want 1", rep.Decision)
	}
	if !rep.RootSecure {
		t.Error("root cluster insecure in a 10% network")
	}
	// Every cluster proposes 0.
	rep0, err := apps.Agree(&led, w, root, func(ids.ClusterID) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Decision != 0 {
		t.Errorf("decision = %d, want 0", rep0.Decision)
	}
	if rep.Messages == 0 {
		t.Error("free agreement")
	}
}

func TestCostScalingNearLinear(t *testing.T) {
	// Broadcast cost across growing n should scale ~n*polylog, far from
	// quadratic: fit the power-law exponent.
	var xs, ys []float64
	for _, n0 := range []int{200, 400, 800} {
		w := world(t, n0, 0)
		var led metrics.Ledger
		rep, err := apps.Broadcast(&led, w, w.Clusters()[0])
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, float64(n0))
		ys = append(ys, float64(rep.Messages))
	}
	fit := metrics.FitPowerLaw(xs, ys)
	if fit.Slope > 1.5 {
		t.Errorf("broadcast cost exponent %.2f, want ~1 (far below 2)", fit.Slope)
	}
	if math.IsNaN(fit.Slope) {
		t.Error("degenerate fit")
	}
}
