package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/sim"
)

// squareWave is the churn_resize size schedule: hi for half steps (joins
// only), then lo for half steps (leaves only).
type squareWave struct{ lo, hi, half int }

func (w squareWave) TargetSize(step int) int {
	if step/w.half%2 == 1 {
		return w.lo
	}
	return w.hi
}

func (w squareWave) Name() string {
	return fmt.Sprintf("square(%d..%d,half=%d)", w.lo, w.hi, w.half)
}

// TestNowperfShapesExact pins the benchmark's three churn workloads at
// their own sizes, where the walk's tables outgrow a private cache and a
// moved draw or charge compounds over thousands of ops: churn_large
// (2^18, n0 2^17), churn_resize (4096, square wave 128 <-> 2048, half
// 1920) and churn_batched (2^14, n0 2^13, 16 ops a step), each a
// core.DefaultConfig world at tau = 0.15 built through sim.New and run for
// a fixed step count at seeds 1-3. Each run must end on the recorded hash
// of core.WorldFingerprint and the recorded per-class ledger totals. The
// values are a record of the protocol's draws and charges, not a target.
func TestNowperfShapesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^18 world per seed")
	}
	shapes := []struct {
		name       string
		n, n0      int
		opsPerStep int
		steps      int
		wave       *squareWave
		want       [3]string // seeds 1-3
	}{
		{name: "churn_large", n: 1 << 18, n0: 1 << 17, steps: 8000,
			want: [3]string{
				"world=0xbdcb0f883133e309 intra-cluster=284319 inter-cluster=41388799857 walk=30262898687 randnum=121266568704 exchange=783946284 discovery=146028888064 agreement=61439987609 application=0 cascade=379577973 transport=0 rounds=19823734",
				"world=0x256e4576a606f8df intra-cluster=284256 inter-cluster=41882762753 walk=29541559098 randnum=118415358100 exchange=792984147 discovery=146028888064 agreement=60014382307 application=0 cascade=384016613 transport=0 rounds=18837508",
				"world=0xae91b47d9a3ff348 intra-cluster=284247 inter-cluster=41606948792 walk=29554702794 randnum=118464670368 exchange=787932647 discovery=146028888064 agreement=60039038441 application=0 cascade=381421238 transport=0 rounds=18738698",
			}},
		{name: "churn_resize", n: 4096, n0: 128, steps: 7680, wave: &squareWave{lo: 128, hi: 2048, half: 1920},
			want: [3]string{
				"world=0x806c71cee892eb24 intra-cluster=222546 inter-cluster=14085366116 walk=4084819370 randnum=18618569892 exchange=360709108 discovery=57344 agreement=9309295083 application=0 cascade=95861950 transport=0 rounds=6467646",
				"world=0x3ec8a2396900689f intra-cluster=222637 inter-cluster=14035349562 walk=4115108674 randnum=18737277620 exchange=359407799 discovery=57344 agreement=9368648947 application=0 cascade=96548931 transport=0 rounds=6581900",
				"world=0x27940cd718e6a28f intra-cluster=224712 inter-cluster=14594850370 walk=4194398872 randnum=19114698944 exchange=368340606 discovery=57344 agreement=9557359609 application=0 cascade=99381273 transport=0 rounds=6469086",
			}},
		{name: "churn_batched", n: 1 << 14, n0: 1 << 13, opsPerStep: 16, steps: 1000,
			want: [3]string{
				"world=0xbe58cb0ccecd9bb4 intra-cluster=456855 inter-cluster=30530723124 walk=19926422093 randnum=84170317620 exchange=729017498 discovery=436207616 agreement=42094797727 application=0 cascade=333841164 transport=0 rounds=32237299",
				"world=0x378f337932283302 intra-cluster=457478 inter-cluster=30284426040 walk=20957859381 randnum=88492872276 exchange=723318339 discovery=436207616 agreement=44256075055 application=0 cascade=332123133 transport=0 rounds=34588896",
				"world=0x320b5f3537b295fd intra-cluster=458216 inter-cluster=30680031914 walk=20626405601 randnum=87336876112 exchange=731010219 discovery=436207616 agreement=43678076973 application=0 cascade=334901833 transport=0 rounds=33683759",
			}},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				cfg := sim.Config{
					Core:          core.DefaultConfig(sh.n),
					InitialSize:   sh.n0,
					Tau:           0.15,
					SampleOpCosts: true,
					Seed:          seed,
					OpsPerStep:    sh.opsPerStep,
				}
				cfg.Core.Seed = seed
				if sh.wave != nil {
					cfg.Schedule = *sh.wave
				}
				r, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Continue(nil, sh.steps); err != nil {
					t.Fatal(err)
				}
				w := r.World()
				h := fnv.New64a()
				h.Write([]byte(core.WorldFingerprint(w)))
				lt := totalsOf(w.Ledger())
				got := fmt.Sprintf("world=%#x", h.Sum64())
				for c, m := range lt.msgs {
					got += fmt.Sprintf(" %v=%d", metrics.Class(c), m)
				}
				got += fmt.Sprintf(" rounds=%d", lt.rounds)
				if want := sh.want[seed-1]; got != want {
					t.Errorf("moved:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
