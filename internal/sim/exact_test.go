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
func exactConfig(grouped bool, shards, opsPerStep int) Config {
	cfg := Config{
		Core:          core.DefaultConfig(2048),
		InitialSize:   1024,
		Tau:           0.15,
		SampleOpCosts: true,
		Seed:          1,
		OpsPerStep:    opsPerStep,
	}
	cfg.Core.Seed = 1
	cfg.Core.Shards = shards
	cfg.Core.GroupedCascade = grouped
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
func resizeConfig() Config {
	cfg := exactConfig(false, 1, 0)
	cfg.Core = core.DefaultConfig(512)
	cfg.Core.Seed = 1
	cfg.InitialSize = 64
	cfg.Schedule = workload.Oscillate{Lo: 64, Hi: 384, Period: 640}
	return cfg
}

// exactFingerprint renders everything a moved draw or charge would change:
// per-class messages, rounds, lifetime stats and a hash of the membership
// (clusters in overlay order, members in list order, with allegiance).
func exactFingerprint(w *core.World) string {
	var b strings.Builder
	led := w.Ledger()
	for c := metrics.Class(0); int(c) < metrics.NumClasses; c++ {
		fmt.Fprintf(&b, "%v=%d ", c, led.MessagesBy(c))
	}
	fmt.Fprintf(&b, "rounds=%d stats=%+v", led.Rounds(), w.Stats())
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
		{"per-receiver", exactConfig(false, 1, 0), 8, 8,
			"intra-cluster=1375 inter-cluster=234058222 walk=102676202 randnum=431970212 exchange=11178939 discovery=5242880 agreement=216312786 application=0 cascade=0 transport=0 rounds=2616893 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:25340 HijackedWalks:0 DegradedEvents:19 CapturedEvents:0 MaxByzFractionEver:0.45454545454545453} members=0x5b6e1c5b67b123ab"},
		{"grouped", exactConfig(true, 1, 0), 8, 8,
			"intra-cluster=1373 inter-cluster=35407449 walk=11293518 randnum=48856448 exchange=1192464 discovery=5242880 agreement=24755904 application=0 cascade=460008 transport=0 rounds=294859 stats={Joins:32 Leaves:32 Splits:0 Merges:0 Rejoins:0 Swaps:3780 HijackedWalks:0 DegradedEvents:7 CapturedEvents:1 MaxByzFractionEver:0.5} members=0xdc8fa30ef2524d6f"},
		{"batched", exactConfig(false, 4, 8), 8, 8,
			"intra-cluster=11193 inter-cluster=1927017701 walk=953708531 randnum=4058224272 exchange=90995518 discovery=5242880 agreement=2029439816 application=0 cascade=0 transport=0 rounds=24346163 stats={Joins:256 Leaves:256 Splits:0 Merges:0 Rejoins:0 Swaps:208022 HijackedWalks:0 DegradedEvents:52 CapturedEvents:1 MaxByzFractionEver:0.5} members=0x210a14c99b060c66"},
		// The steady cases never split or merge; a size wave does both, so
		// the structural charges (split, merge announcements) are pinned too.
		// One Continue: the wave is indexed by the step within a call.
		{"resize", resizeConfig(), 1, 640,
			"intra-cluster=13760 inter-cluster=604664362 walk=260652481 randnum=1257369604 exchange=30049606 discovery=12288 agreement=628687874 application=0 cascade=0 transport=0 rounds=8606678 stats={Joins:321 Leaves:319 Splits:12 Merges:11 Rejoins:0 Swaps:115530 HijackedWalks:0 DegradedEvents:46 CapturedEvents:0 MaxByzFractionEver:0.46153846153846156} members=0xd1e37ef9454485c7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exactRun(t, tc.cfg, tc.units, tc.unitSteps); got != tc.want {
				t.Errorf("fingerprint moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
