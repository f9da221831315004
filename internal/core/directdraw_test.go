package core_test

import (
	"fmt"
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/sim"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// delegatingGen forwards every draw through the Generator interface, the
// shape of a counting or tracing wrapper. The walker does not recognise it
// as randnum.Ideal, so a world built on it makes every draw through the
// interface call.
type delegatingGen struct{ inner randnum.Generator }

func (g delegatingGen) Draw(led *metrics.Ledger, r *xrand.Rand, p randnum.Params, obj randnum.Objective) (int64, randnum.Security, error) {
	return g.inner.Draw(led, r, p, obj)
}

// ledgerTotals is a ledger's per-class messages and its rounds.
type ledgerTotals struct {
	msgs   [metrics.NumClasses]int64
	rounds int64
}

func totalsOf(led *metrics.Ledger) ledgerTotals {
	var lt ledgerTotals
	for c := range lt.msgs {
		lt.msgs[c] = led.MessagesBy(metrics.Class(c))
	}
	lt.rounds = led.Rounds()
	return lt
}

// TestDirectDrawMatchesInterfaceDraw: the walker's fused Ideal hop (both
// draws through a randnum.Tally, hand-offs summed and charged once per
// segment) and the interface call are the same function. Seeded biased
// walks and forced exchanges in a world Byzantine enough to draw at every
// security level, then a join-leave churn with hijacking installed in both
// cascade modes, end with identical outcomes, per-class ledger totals,
// rounds, Stats and world state either way.
func TestDirectDrawMatchesInterfaceDraw(t *testing.T) {
	t.Run("walks", func(t *testing.T) {
		type trace struct {
			walks       []walk.Outcome
			led         ledgerTotals
			fingerprint string
		}
		run := func(gen randnum.Generator) trace {
			cfg := core.DefaultConfig(1024)
			cfg.Seed = 7
			cfg.Generator = gen
			w, err := core.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bootstrap(400, func(slot int) bool { return slot < 120 }); err != nil {
				t.Fatal(err)
			}
			r := xrand.New(11)
			var tr trace
			for i := 0; i < 40; i++ {
				c, _ := w.RandomCluster(r)
				out, err := w.Walker().Biased(w.Ledger(), r, c)
				if err != nil {
					t.Fatal(err)
				}
				tr.walks = append(tr.walks, out)
				if err := w.ForceExchange(c); err != nil {
					t.Fatal(err)
				}
			}
			tr.led = totalsOf(w.Ledger())
			tr.fingerprint = core.WorldFingerprint(w)
			return tr
		}
		direct, viaInterface := run(randnum.Ideal{}), run(delegatingGen{inner: randnum.Ideal{}})
		worst := randnum.Secure
		for i, out := range direct.walks {
			if out != viaInterface.walks[i] {
				t.Fatalf("walk %d: direct %+v, interface %+v", i, out, viaInterface.walks[i])
			}
			worst = max(worst, out.WorstSecurity)
		}
		if worst == randnum.Secure {
			t.Error("no walk drew at a degraded or captured cluster; raise the Byzantine share")
		}
		if direct.led != viaInterface.led {
			t.Errorf("ledgers differ: direct %+v, interface %+v", direct.led, viaInterface.led)
		}
		if direct.led.msgs[metrics.ClassRandNum] == 0 {
			t.Error("no draws charged")
		}
		if direct.fingerprint != viaInterface.fingerprint {
			t.Error("worlds differ after the same seeded walks and exchanges")
		}
	})
	for _, grouped := range []bool{true, false} {
		t.Run(fmt.Sprintf("churn/grouped=%v", grouped), func(t *testing.T) {
			run := func(gen randnum.Generator) (ledgerTotals, core.Stats, string) {
				cfg := sim.Config{
					Core:            core.DefaultConfig(2048),
					InitialSize:     1024,
					Tau:             0.3,
					Strategy:        &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.3}},
					InstallHijacker: true,
					Steps:           300,
					Seed:            3,
				}
				cfg.Core.Seed = 3
				cfg.Core.GroupedCascade = grouped
				cfg.Core.Generator = gen
				r, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Run(); err != nil {
					t.Fatal(err)
				}
				w := r.World()
				return totalsOf(w.Ledger()), w.Stats(), core.WorldFingerprint(w)
			}
			dLed, dStats, dPrint := run(randnum.Ideal{})
			iLed, iStats, iPrint := run(delegatingGen{inner: randnum.Ideal{}})
			if dStats.DegradedEvents+dStats.CapturedEvents == 0 || dStats.HijackedWalks == 0 {
				t.Errorf("stats %+v: the churn never drew at a degraded or captured cluster, or never hijacked a walk; raise the Byzantine share", dStats)
			}
			if dLed != iLed {
				t.Errorf("ledgers differ: direct %+v, interface %+v", dLed, iLed)
			}
			if dStats != iStats {
				t.Errorf("stats differ: direct %+v, interface %+v", dStats, iStats)
			}
			if dPrint != iPrint {
				t.Error("worlds differ after the same seeded churn")
			}
		})
	}
}
