package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/workload"
)

// exactConfig is one churn_large-shaped world (the benchmark's workload
// at N = 2048): steady churn, driven through Runner.Continue in units of
// 8 steps.
func exactConfig(grouped bool, opsPerStep int) Config {
	cfg := Config{
		Core:          core.DefaultConfig(2048),
		InitialSize:   1024,
		Tau:           0.15,
		SampleOpCosts: true,
		Seed:          1,
		OpsPerStep:    opsPerStep,
	}
	cfg.Core.Seed = 1
	if !grouped {
		cfg.Core.Shuffle = core.ShufflePerReceiver
	}
	return cfg
}

// exactRun runs units Continue calls of unitSteps steps each and
// fingerprints the world.
func exactRun(t *testing.T, cfg Config, units, unitSteps int) string {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for unit := 0; unit < units; unit++ {
		if _, err := r.Continue(nil, unitSteps); err != nil {
			t.Fatal(err)
		}
	}
	w := r.World()
	if err := core.CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
	return exactFingerprint(w)
}

// resizeConfig swings a small world between 64 and 384 nodes, the
// churn_resize shape: splits on the way up, merges on the way down.
func resizeConfig(grouped bool) Config {
	cfg := exactConfig(grouped, 0)
	cfg.Core.N = 512
	cfg.InitialSize = 64
	cfg.Schedule = workload.Oscillate{Lo: 64, Hi: 384, Period: 640}
	return cfg
}

// defaultConfig is the churn_large-shaped world with core.DefaultConfig's
// leave cascade left as it is.
func defaultConfig(t *testing.T) Config {
	cfg := exactConfig(false, 0)
	cfg.Core = core.DefaultConfig(2048)
	cfg.Core.Seed = 1
	if cfg.Core.Shuffle != core.ShuffleGrouped {
		t.Fatal("core.DefaultConfig no longer runs the grouped leave cascade")
	}
	return cfg
}

// exactFingerprint renders everything a moved draw or charge would change:
// per-class messages, rounds, lifetime stats and a hash of the membership
// (clusters in overlay order, members in list order, with allegiance).
func exactFingerprint(w *core.World) string {
	return fingerprintWithStats(w, w.Stats())
}

func fingerprintWithStats(w *core.World, st core.Stats) string {
	var b strings.Builder
	led := w.Ledger()
	for c := metrics.Class(0); int(c) < metrics.NumClasses; c++ {
		fmt.Fprintf(&b, "%v=%d ", c, led.MessagesBy(c))
	}
	fmt.Fprintf(&b, "rounds=%d stats=%+v", led.Rounds(), st)
	h := fnv.New64a()
	for _, c := range w.Clusters() {
		fmt.Fprintf(h, "c%d:", c)
		for _, x := range w.Members(c) {
			fmt.Fprintf(h, "%d/%v,", x, w.IsByzantine(x))
		}
	}
	fmt.Fprintf(&b, " members=%#x", h.Sum64())
	return b.String()
}

// TestHotPathExactness pins the walk/exchange/core hot path to the draws
// and charges it made before any of its reads were restructured: every
// RNG draw in the same order, every ledger charge to the same class. Any
// change that moves one shows up here as a different ledger, stats line or
// membership hash. The constants are a record, not a target: a change that
// means to alter the protocol's randomness or cost model re-captures them
// and says so.
func TestHotPathExactness(t *testing.T) {
	cases := []struct {
		name             string
		cfg              Config
		units, unitSteps int
		want             string
	}{
		{"per-receiver", exactConfig(false, 0), 8, 8,
			"intra-cluster=1380 inter-cluster=252418078 walk=107118579 randnum=450054672 exchange=12008156 discovery=5242880 agreement=225355016 application=0 cascade=0 transport=0 rounds=55732 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:25178 HijackedWalks:0 DegradedEvents:22 CapturedEvents:0 MaxByzFractionEver:0.4166666666666667} members=0x2947c88eec678d11"},
		{"grouped", exactConfig(true, 0), 8, 8,
			"intra-cluster=1374 inter-cluster=38943332 walk=11515525 randnum=49816148 exchange=1309077 discovery=5242880 agreement=25235754 application=0 cascade=492336 transport=0 rounds=32457 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:3780 HijackedWalks:0 DegradedEvents:11 CapturedEvents:1 MaxByzFractionEver:0.5} members=0x6849823d9a3019ef"},
		// OpsPerStep 0 and 1 are the same one-op-per-step driver.
		{"ops-1", exactConfig(false, 1), 8, 8,
			"intra-cluster=1380 inter-cluster=252418078 walk=107118579 randnum=450054672 exchange=12008156 discovery=5242880 agreement=225355016 application=0 cascade=0 transport=0 rounds=55732 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:25178 HijackedWalks:0 DegradedEvents:22 CapturedEvents:0 MaxByzFractionEver:0.4166666666666667} members=0x2947c88eec678d11"},
		{"batched", exactConfig(false, 8), 8, 8,
			"intra-cluster=11287 inter-cluster=2153829464 walk=1073513929 randnum=4589814816 exchange=99663535 discovery=5242880 agreement=2295235088 application=0 cascade=0 transport=0 rounds=623228 stats={Joins:256 Leaves:256 Splits:0 Merges:1 Rejoins:0 Swaps:208934 HijackedWalks:0 DegradedEvents:44 CapturedEvents:1 MaxByzFractionEver:0.5} members=0x4661a7f0c4f54753"},
		// The steady cases never split or merge; a size wave does both, so
		// the structural charges (split, merge announcements) are pinned too.
		// One Continue: the wave is indexed by the step within a call.
		{"resize", resizeConfig(false), 1, 640,
			"intra-cluster=13760 inter-cluster=604664362 walk=260652481 randnum=1257369604 exchange=30049606 discovery=12288 agreement=628687874 application=0 cascade=0 transport=0 rounds=398209 stats={Joins:321 Leaves:319 Splits:12 Merges:11 Rejoins:0 Swaps:115530 HijackedWalks:0 DegradedEvents:46 CapturedEvents:0 MaxByzFractionEver:0.46153846153846156} members=0xd1e37ef9454485c7"},
		{"resize-grouped", resizeConfig(true), 1, 640,
			"intra-cluster=13558 inter-cluster=150540272 walk=55452133 randnum=279650856 exchange=5807025 discovery=12288 agreement=139828500 application=0 cascade=1330284 transport=0 rounds=214577 stats={Joins:321 Leaves:319 Splits:11 Merges:11 Rejoins:0 Swaps:29766 HijackedWalks:0 DegradedEvents:19 CapturedEvents:0 MaxByzFractionEver:0.4444444444444444} members=0xc42562903120733a"},
		// The default arm pins what core.DefaultConfig runs: the grouped
		// cascade, so it must match the grouped arm above.
		{"default", defaultConfig(t), 8, 8,
			"intra-cluster=1374 inter-cluster=38943332 walk=11515525 randnum=49816148 exchange=1309077 discovery=5242880 agreement=25235754 application=0 cascade=492336 transport=0 rounds=32457 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:3780 HijackedWalks:0 DegradedEvents:11 CapturedEvents:1 MaxByzFractionEver:0.5} members=0x6849823d9a3019ef"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exactRun(t, tc.cfg, tc.units, tc.unitSteps); got != tc.want {
				t.Errorf("fingerprint moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
