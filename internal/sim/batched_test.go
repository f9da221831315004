package sim

import (
	"fmt"
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/workload"
)

func batchedConfig(opsPerStep int, seed uint64) Config {
	cfg := Config{
		Core:        core.DefaultConfig(2048),
		InitialSize: 512,
		Tau:         0.15,
		Steps:       60,
		Seed:        seed,
		OpsPerStep:  opsPerStep,
	}
	cfg.Core.Seed = seed
	return cfg
}

func TestBatchedDriverRuns(t *testing.T) {
	cfg := batchedConfig(8, 1)
	if testing.Short() {
		cfg.Core = core.DefaultConfig(1024)
		cfg.Core.Seed = 1
		cfg.InitialSize = 256
		cfg.Steps = 25
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != cfg.Steps {
		t.Fatalf("ran %d steps, want %d", res.Steps, cfg.Steps)
	}
	if res.BatchedOps == 0 {
		t.Fatal("concurrent driver issued no batched ops")
	}
	if res.Stats.Joins == 0 || res.Stats.Leaves == 0 {
		t.Fatalf("no churn recorded: %+v", res.Stats)
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

// replayOps runs ops through the world's public one-op calls in op order,
// driving h's batch lifecycle around them the way ExecBatch does when h
// is non-nil.
func replayOps(w *core.World, h core.BatchHook, ops []core.Op) []core.OpResult {
	if h != nil {
		h.BeginBatch()
	}
	res := make([]core.OpResult, len(ops))
	hijacked := make([]int64, len(ops))
	for i, op := range ops {
		before := w.Stats().HijackedWalks
		switch op.Kind {
		case core.OpJoin:
			if op.HasContact {
				res[i].Node, res[i].Err = w.Join(op.Byz, op.Contact)
			} else {
				res[i].Node, res[i].Err = w.JoinAuto(op.Byz)
			}
		case core.OpLeave:
			res[i].Err = w.Leave(op.Victim)
		case core.OpExchange:
			res[i].Err = w.ForceExchange(op.Target)
		}
		hijacked[i] = w.Stats().HijackedWalks - before
	}
	if h != nil {
		for i := range res {
			h.CommitOp(i, res[i].Err == nil, hijacked[i])
		}
	}
	return res
}

// unsettledFingerprint is exactFingerprint without the three Stats fields
// settleSecurity counts, which ExecBatch counts at batch boundaries only.
func unsettledFingerprint(w *core.World) string {
	st := w.Stats()
	st.DegradedEvents, st.CapturedEvents, st.MaxByzFractionEver = 0, 0, 0
	return fingerprintWithStats(w, st)
}

// driveAgainstReplay runs the batched driver of cfg step by step and, after
// every step, replays that step's batch through the one-op calls on a twin
// world built from the same config: every op's outcome and the twin's
// state must match (apart from the settle-counted Stats fields), and both
// worlds must keep every invariant. It returns the batched runner and the
// replay world.
func driveAgainstReplay(t *testing.T, cfg Config, steer bool) (*Runner, *core.World) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := twin.World()
	var hook core.BatchHook
	if h := twin.Hijacker(); h != nil {
		hook = h
		if steer {
			r.World().SetSteerHook(r.Hijacker())
			replay.SetSteerHook(h)
		}
	}
	res := &Result{}
	minSize := r.minimumSize()
	for step := 0; step < cfg.Steps; step++ {
		if err := r.stepBatch(step, minSize, res); err != nil {
			t.Fatal(err)
		}
		rr := replayOps(replay, hook, r.ops)
		for i := range rr {
			got := r.results[i]
			if fmt.Sprint(got.Err) != fmt.Sprint(rr[i].Err) || (got.Err == nil && got.Node != rr[i].Node) {
				t.Fatalf("step %d op %d: batched %+v, replay %+v", step, i, got, rr[i])
			}
		}
		if a, b := unsettledFingerprint(r.World()), unsettledFingerprint(replay); a != b {
			t.Fatalf("step %d: states diverged:\n batched %s\n  replay %s", step, a, b)
		}
	}
	if res.BatchedOps == 0 {
		t.Fatal("batched driver issued no ops")
	}
	for _, w := range []*core.World{r.World(), replay} {
		if err := core.CheckInvariants(w); err != nil {
			t.Fatal(err)
		}
	}
	return r, replay
}

// TestBatchedDriverMatchesClassicReplay: every batch the driver issues
// leaves the world exactly as the same ops replayed one by one through
// the classic API leave a twin world.
func TestBatchedDriverMatchesClassicReplay(t *testing.T) {
	cfg := batchedConfig(8, 7)
	if testing.Short() {
		cfg.Steps = 20
	}
	driveAgainstReplay(t, cfg, false)
}

func TestBatchedValidation(t *testing.T) {
	cfg := batchedConfig(-1, 1)
	if _, err := New(cfg); err == nil {
		t.Fatal("negative OpsPerStep accepted")
	}
	cfg = batchedConfig(4, 1)
	cfg.InstallHijacker = true
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("OpsPerStep>1 with InstallHijacker rejected: %v", err)
	}
	if r.Hijacker() == nil {
		t.Fatal("hijacker requested but not installed on the batched driver")
	}
	cfg.InstallHijacker = false
	if _, err := New(cfg); err != nil {
		t.Fatalf("attack strategy without hijacker rejected: %v", err)
	}
}

// TestBatchedHookedDriverMatchesClassicReplay is the driver-level
// contract with the adversary hooked in — the hijacker redirecting walks
// AND the same hook object steering randCl draws: each batch matches its
// classic replay, the twin's hook (driven through the same lifecycle)
// ends with the same bookkeeping, and the hook's commit-folded tally
// equals the world's.
func TestBatchedHookedDriverMatchesClassicReplay(t *testing.T) {
	cfg := batchedConfig(8, 11)
	if testing.Short() {
		cfg.Core = core.DefaultConfig(1024)
		cfg.Core.Seed = 11
		cfg.InitialSize = 256
		cfg.Steps = 30
	}
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
	cfg.InstallHijacker = true
	r, replay := driveAgainstReplay(t, cfg, true)
	h := r.Hijacker()
	st := r.World().Stats()
	if st.HijackedWalks == 0 {
		t.Fatal("hooked run hijacked no walks: the redirect path never ran")
	}
	if h.Hijacked != st.HijackedWalks {
		t.Fatalf("commit fold lost walks: hook saw %d, world recorded %d", h.Hijacked, st.HijackedWalks)
	}
	if hr := replay.Stats().HijackedWalks; hr != st.HijackedWalks {
		t.Fatalf("replay hijacked %d walks, batched %d", hr, st.HijackedWalks)
	}
}

func TestBatchedGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase batched run skipped in -short mode")
	}
	cfg := batchedConfig(6, 3)
	cfg.Steps = 80
	cfg.Schedule = workload.Linear{From: 512, To: 1400, Steps: 80}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	grown := r.World().NumNodes()
	if grown <= 512 {
		t.Fatalf("population %d did not grow", grown)
	}
	if res.Stats.Splits == 0 {
		t.Fatal("growth produced no splits")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
	res2, err := r.Continue(workload.Linear{From: grown, To: 512, Steps: 80}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if r.World().NumNodes() >= grown {
		t.Fatalf("population %d did not shrink from %d", r.World().NumNodes(), grown)
	}
	if res2.Stats.Merges == 0 {
		t.Fatal("shrink produced no merges")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedRejoinAllDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin-all batched shrink skipped in -short mode")
	}
	cfg := batchedConfig(6, 9)
	cfg.Core.MergeStrategy = core.MergeRejoinAll
	cfg.Steps = 120
	cfg.Schedule = workload.Linear{From: 512, To: 200, Steps: 100}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Fatal("rejoin-all shrink produced no merges")
	}
	if res.Stats.Rejoins == 0 {
		t.Fatal("merges displaced nodes but none rejoined")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAttackStrategySurvivesMerges is the regression for the
// vanished-contact hazard: JoinLeaveAttack emits HasContact joins at a
// fixated target cluster, and under shrink pressure an earlier leave of
// the same batch can merge that exact cluster away before the join runs.
// The driver must skip such ops (ErrUnknownCluster / ErrUnknownNode), not
// abort the run.
func TestBatchedAttackStrategySurvivesMerges(t *testing.T) {
	if testing.Short() {
		t.Skip("attack-strategy batched shrink skipped in -short mode")
	}
	cfg := batchedConfig(8, 5)
	cfg.Strategy = &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.15}}
	cfg.Steps = 120
	cfg.Schedule = workload.Linear{From: 512, To: 200, Steps: 100}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Fatal("shrink produced no merges: the hazard path never ran")
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		t.Fatal(err)
	}
}
