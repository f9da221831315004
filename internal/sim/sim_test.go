package sim

import (
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/workload"
)

func baseConfig() Config {
	cc := core.DefaultConfig(1024)
	cc.Seed = 3
	return Config{
		Core:             cc,
		InitialSize:      300,
		Tau:              0.15,
		Steps:            100,
		Seed:             9,
		AuditEvery:       25,
		ConsistencyEvery: 50,
		SampleOpCosts:    true,
		TrackSizes:       true,
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.InitialSize = 0 },
		func(c *Config) { c.Steps = -1 },
		func(c *Config) { c.Tau = -0.1 },
		func(c *Config) { c.Tau = 1.0 },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSteadyRun(t *testing.T) {
	res, err := mustRun(t, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 100 {
		t.Errorf("steps = %d", res.Steps)
	}
	if res.Final.Nodes < 250 || res.Final.Nodes > 350 {
		t.Errorf("steady run drifted to %d nodes", res.Final.Nodes)
	}
	if res.Stats.Joins+res.Stats.Leaves == 0 {
		t.Error("no churn executed")
	}
	if res.TotalCost.Messages == 0 {
		t.Error("no cost recorded")
	}
	if res.OpCosts.JoinMsgs.N() == 0 || res.OpCosts.LeaveMsgs.N() == 0 {
		t.Error("no op cost samples")
	}
	if n := res.OpCosts.ClassMsgs[metrics.ClassWalk].N(); n != res.OpCosts.JoinMsgs.N()+res.OpCosts.LeaveMsgs.N() {
		t.Errorf("walk-class histogram holds %d ops, want one per sampled op", n)
	}
	if len(res.Audits) == 0 || len(res.Sizes) != 100 {
		t.Errorf("audits=%d sizes=%d", len(res.Audits), len(res.Sizes))
	}
}

func mustRun(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run()
}

func TestGrowthRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Schedule = workload.Linear{From: 300, To: 500, Steps: 250}
	cfg.Steps = 250
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Nodes < 480 {
		t.Errorf("growth run reached only %d nodes", res.Final.Nodes)
	}
	if res.Final.Clusters <= res.Initial.Clusters {
		t.Errorf("clusters did not grow: %d -> %d", res.Initial.Clusters, res.Final.Clusters)
	}
	if !res.Final.OverlayConnected {
		t.Error("overlay disconnected after growth")
	}
}

func TestShrinkRun(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink sweep skipped in -short mode")
	}
	cfg := baseConfig()
	cfg.InitialSize = 600
	cfg.Schedule = workload.Linear{From: 600, To: 300, Steps: 350}
	cfg.Steps = 350
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Nodes > 320 {
		t.Errorf("shrink run stuck at %d nodes", res.Final.Nodes)
	}
	if res.Stats.Merges == 0 {
		t.Error("no merges during 50% shrink")
	}
	if !res.Final.OverlayConnected {
		t.Error("overlay disconnected after shrink")
	}
}

func TestSizeClampedAtBounds(t *testing.T) {
	cfg := baseConfig()
	// Demand growth far beyond N; the runner must clamp at N.
	cfg.Schedule = workload.Linear{From: 300, To: 10000, Steps: 100}
	cfg.Steps = 120
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakSize > cfg.Core.N {
		t.Errorf("size %d exceeded N=%d", res.PeakSize, cfg.Core.N)
	}
}

func TestJoinLeaveAttackRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: cfg.Tau}}
	cfg.InstallHijacker = true
	cfg.Steps = 150
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Against full NOW defenses the attack must not capture anything in a
	// short run at tau=0.15.
	if res.CapturedSteps > 0 {
		t.Errorf("attack captured a cluster within %d steps at tau=0.15", cfg.Steps)
	}
	frac := float64(res.Final.Byz) / float64(res.Final.Nodes)
	if frac > cfg.Tau+0.02 {
		t.Errorf("budget exceeded: byz fraction %.3f > tau %.2f", frac, cfg.Tau)
	}
}

func TestDOSAttackRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = &adversary.DOSAttack{Budget: adversary.Budget{Tau: cfg.Tau}}
	cfg.Steps = 120
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturedSteps > 0 {
		t.Errorf("DoS attack captured a cluster at tau=0.15 in %d steps", cfg.Steps)
	}
}

func TestRejoinAllStrategyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin-all drain sweep skipped in -short mode")
	}
	cfg := baseConfig()
	cfg.Core.MergeStrategy = core.MergeRejoinAll
	cfg.InitialSize = 500
	cfg.Schedule = workload.Linear{From: 500, To: 300, Steps: 300}
	cfg.Steps = 400
	runner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Error("no merges under rejoin-all")
	}
	// Conservation: merge removals equal executed rejoins plus still-queued
	// nodes, so population = initial + fresh joins - leaves - queued,
	// where fresh joins = Joins - Rejoins.
	queued := runner.QueuedRejoins() + len(runner.World().PendingRejoins())
	want := cfg.InitialSize + int(res.Stats.Joins-res.Stats.Rejoins-res.Stats.Leaves) - queued
	if res.Final.Nodes != want {
		t.Errorf("population %d, want %d (joins=%d rejoins=%d leaves=%d queued=%d)",
			res.Final.Nodes, want, res.Stats.Joins, res.Stats.Rejoins, res.Stats.Leaves, queued)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := baseConfig()
		cfg.Steps = 60
		res, err := mustRun(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Final.Nodes != b.Final.Nodes || a.Stats.Joins != b.Stats.Joins ||
		a.TotalCost.Messages != b.TotalCost.Messages {
		t.Errorf("identical configs diverged: %+v vs %+v", a.Final, b.Final)
	}
}

func TestOscillationSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("oscillation sweep skipped in -short mode")
	}
	// One op per time step bounds the achievable slope at 1 node/step, so
	// the triangle wave must stay within that: amplitude 100 per
	// half-period of 200 steps.
	cfg := baseConfig()
	cfg.InitialSize = 300
	cfg.Schedule = workload.Oscillate{Lo: 250, Hi: 420, Period: 400}
	cfg.Steps = 400
	cfg.ConsistencyEvery = 100
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakSize < 390 || res.TroughSize > 280 {
		t.Errorf("oscillation amplitude not realized: [%d, %d]", res.TroughSize, res.PeakSize)
	}
	if !res.Final.OverlayConnected {
		t.Error("overlay disconnected after oscillation")
	}
}
