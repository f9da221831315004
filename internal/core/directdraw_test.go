package core_test

import (
	"fmt"
	"slices"
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/ids"
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

// TestDirectDrawMatchesInterfaceDraw: an Ideal walk, whose steps below
// capture the walk loop takes inline and charges once, and the same walk
// under a wrapper, whose every step the loop takes out of line through
// the Generator interface, are the same function. Seeded biased walks, a
// restart cap of 1 and uniform walks, with forced exchanges and leaves
// between them, end with identical outcomes, stream words after every
// walk, per-class ledger totals, rounds, Stats and world state either
// way: in a world Byzantine enough to draw at every security level, and
// in worlds corrupted into captured clusters, where Ideal walks step out
// of line mid-walk and go on inline, in both cascade modes. Then a
// join-leave churn with hijacking installed, in both cascade modes, does
// the same.
func TestDirectDrawMatchesInterfaceDraw(t *testing.T) {
	type trace struct {
		walks       []walk.Outcome
		next        []uint64 // the stream's next word after each walk
		midCapture  int      // walks from below capture that met a captured cluster
		led         ledgerTotals
		stats       core.Stats
		fingerprint string
	}
	run := func(t *testing.T, gen randnum.Generator, grouped, capture bool) trace {
		cfg := core.DefaultConfig(1024)
		cfg.Seed = 7
		if !grouped {
			cfg.Shuffle = core.ShufflePerReceiver
		}
		cfg.Generator = gen
		w, err := core.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(400, func(slot int) bool { return slot < 120 }); err != nil {
			t.Fatal(err)
		}
		if capture {
			// Corrupt every fourth cluster into capture.
			for i, c := range w.Clusters() {
				if i%4 != 0 {
					continue
				}
				for _, x := range slices.Clone(w.Members(c)) {
					if 2*w.Byz(c) >= w.Size(c) {
						break
					}
					if err := w.SetCorrupted(x, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, captured := w.CurrentInsecure(); captured == 0 {
				t.Fatal("no cluster captured")
			}
		}
		// A restart cap of 1, as core's own walker would run it.
		capped, err := walk.NewWalker(walk.Config{
			DurationFactor: cfg.WalkDurationFactor,
			MaxRestarts:    1,
			Gen:            gen,
			Steer:          func(ids.ClusterID) float64 { return 0 },
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(11)
		var tr trace
		walkers := []func(c ids.ClusterID) (walk.Outcome, error){
			func(c ids.ClusterID) (walk.Outcome, error) { return w.Walker().Biased(w.Ledger(), r, c) },
			func(c ids.ClusterID) (walk.Outcome, error) { return capped.Biased(w.Ledger(), r, c) },
			func(c ids.ClusterID) (walk.Outcome, error) { return w.Walker().Uniform(w.Ledger(), r, c) },
		}
		for i := 0; i < 60; i++ {
			c, _ := w.RandomCluster(r)
			startCaptured := 2*w.Byz(c) >= w.Size(c)
			out, err := walkers[i%len(walkers)](c)
			if err != nil {
				t.Fatal(err)
			}
			if !startCaptured && out.WorstSecurity == randnum.Captured {
				tr.midCapture++
			}
			tr.walks = append(tr.walks, out)
			tr.next = append(tr.next, r.Uint64())
			if err := w.ForceExchange(c); err != nil {
				t.Fatal(err)
			}
			if i%6 == 5 {
				x, _ := w.RandomNode(r)
				if err := w.Leave(x); err != nil {
					t.Fatal(err)
				}
			}
		}
		tr.led = totalsOf(w.Ledger())
		tr.stats = w.Stats()
		tr.fingerprint = core.WorldFingerprint(w)
		return tr
	}
	for _, world := range []struct {
		name             string
		grouped, capture bool
	}{
		{"walks", true, false},
		{"captured/grouped=true", true, true},
		{"captured/grouped=false", false, true},
	} {
		t.Run(world.name, func(t *testing.T) {
			direct := run(t, randnum.Ideal{}, world.grouped, world.capture)
			viaInterface := run(t, delegatingGen{inner: randnum.Ideal{}}, world.grouped, world.capture)
			worst := randnum.Secure
			for i, out := range direct.walks {
				if out != viaInterface.walks[i] || direct.next[i] != viaInterface.next[i] {
					t.Fatalf("walk %d: direct %+v then word %#x, interface %+v then word %#x", i, out, direct.next[i], viaInterface.walks[i], viaInterface.next[i])
				}
				worst = max(worst, out.WorstSecurity)
			}
			if worst == randnum.Secure {
				t.Error("no walk drew at a degraded or captured cluster; raise the Byzantine share")
			}
			if world.capture && direct.midCapture == 0 {
				t.Error("no walk from below capture met a captured cluster; capture more clusters")
			}
			if direct.led != viaInterface.led {
				t.Errorf("ledgers differ: direct %+v, interface %+v", direct.led, viaInterface.led)
			}
			if direct.led.msgs[metrics.ClassRandNum] == 0 {
				t.Error("no draws charged")
			}
			if direct.stats != viaInterface.stats {
				t.Errorf("stats differ: direct %+v, interface %+v", direct.stats, viaInterface.stats)
			}
			if direct.fingerprint != viaInterface.fingerprint {
				t.Error("worlds differ after the same seeded walks, exchanges and leaves")
			}
		})
	}
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
				if !grouped {
					cfg.Core.Shuffle = core.ShufflePerReceiver
				}
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
