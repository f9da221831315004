package core

import (
	"testing"

	"nowover/internal/adversary"
)

// FuzzWorldOps feeds fuzzer-chosen operation scripts through the
// classic-replay oracle in every Shuffle mode: in each mode one world
// runs every queued batch through ExecBatch and a twin replays the same
// ops through the public one-op calls. After every batch
// requireReplayMatch asserts that both worlds satisfy the full invariant
// layer and are identical apart from the settle-counted Stats fields.
// The modes legitimately diverge from EACH OTHER (each shuffles
// differently), so cross-mode equality is not asserted;
// an op that targets a node/cluster present only in one mode's state
// fails the same way on both sides of that mode. The script drives joins,
// leaves, forced exchanges and allegiance flips; splits, merges and
// transfers are exercised through the operations that trigger them (see
// seed-cascade-into-merge).
//
// Script encoding (one byte per instruction, wrapping reads for params):
//
//	b%6 == 0,1  queue a join (Byzantine iff b&0x40)
//	b%6 == 2    queue a leave of the (next byte)-indexed node
//	b%6 == 3    queue an exchange of the (next byte)-indexed cluster
//	b%6 == 4    flush the queued batch through ExecBatch
//	b%6 == 5    classic SetCorrupted flip of the (next byte)-indexed node
func FuzzWorldOps(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 4, 2, 1, 4})
	f.Add(uint64(7), []byte{0, 2, 0, 3, 5, 4, 2, 2, 2, 3, 4})
	f.Add(uint64(42), []byte{2, 9, 2, 17, 2, 33, 4, 0, 0, 0, 0, 4, 5, 8, 4})
	f.Add(uint64(0xC0FFEE), []byte{3, 1, 3, 2, 4, 2, 250, 0, 64, 4, 2, 7, 2, 8, 2, 9, 4})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		// 128 bytes is enough churn to force merges from the bootstrap
		// population (see seed-cascade-into-merge) while keeping one
		// input's eight-world replay cheap.
		if len(script) > 128 {
			script = script[:128]
		}
		mk := func(mode Shuffle) *World {
			cfg := DefaultConfig(256)
			cfg.Seed = seed
			cfg.Shuffle = mode
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bootstrap(96, func(slot int) bool { return slot%5 == 0 }); err != nil {
				t.Fatal(err)
			}
			return w
		}
		type twins struct {
			name            string
			batched, replay *World
		}
		var pairs []twins
		for _, mode := range []Shuffle{ShufflePerReceiver, ShuffleGrouped, ShuffleNoCascade, ShuffleOff} {
			pairs = append(pairs, twins{mode.String(), mk(mode), mk(mode)})
		}
		w1 := pairs[0].batched // the script's reference state
		minPop := 2 * w1.Config().TargetClusterSize()

		var pending []Op
		victims := make(map[uint64]bool)
		next := func(i *int) byte {
			if *i >= len(script) {
				return 0
			}
			b := script[*i]
			*i++
			return b
		}
		flush := func() {
			if len(pending) == 0 {
				return
			}
			for _, p := range pairs {
				rb := p.batched.ExecBatch(pending)
				for j := range rb {
					if rb[j].Err != nil && !IsUnknownNode(rb[j].Err) && !IsUnknownCluster(rb[j].Err) {
						t.Fatalf("%s op %d: %v", p.name, j, rb[j].Err)
					}
				}
				rr := replayClassic(p.replay, nil, pending)
				requireReplayMatch(t, p.name, p.batched, p.replay, rb, rr)
			}
			pending = pending[:0]
			victims = make(map[uint64]bool)
		}

		projN := w1.NumNodes()
		for i := 0; i < len(script); {
			b := next(&i)
			switch b % 6 {
			case 0, 1:
				if projN >= w1.Config().N-1 || len(pending) >= 8 {
					continue
				}
				pending = append(pending, Op{Kind: OpJoin, Byz: b&0x40 != 0})
				projN++
			case 2:
				if projN <= minPop || len(pending) >= 8 || w1.NumNodes() == 0 {
					continue
				}
				idx := int(next(&i)) % w1.NumNodes()
				x := w1.allNodes[idx]
				if victims[uint64(x)] {
					continue
				}
				victims[uint64(x)] = true
				pending = append(pending, Op{Kind: OpLeave, Victim: x})
				projN--
			case 3:
				cs := w1.Clusters()
				if len(cs) == 0 || len(pending) >= 8 {
					continue
				}
				c := cs[int(next(&i))%len(cs)]
				pending = append(pending, Op{Kind: OpExchange, Target: c})
			case 4:
				flush()
			case 5:
				flush() // classic ops require a quiescent batch queue
				if w1.NumNodes() == 0 {
					continue
				}
				idx := int(next(&i)) % w1.NumNodes()
				x := w1.allNodes[idx]
				for _, p := range pairs {
					// The node may have already departed the other mode's
					// state; both worlds of a pair agree, so the flip is
					// applied or skipped pair-consistently.
					if !p.batched.Contains(x) {
						continue
					}
					corrupted := !p.batched.IsByzantine(x)
					// Keep the tau regime: never corrupt past ~1/3.
					if corrupted && 3*(p.batched.NumByzantine()+1) > p.batched.NumNodes() {
						continue
					}
					if err := p.batched.SetCorrupted(x, corrupted); err != nil {
						t.Fatal(err)
					}
					if err := p.replay.SetCorrupted(x, corrupted); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		flush()
	})
}

// FuzzHookedWorldOps is the hooked sibling of FuzzWorldOps: the same
// script encoding drives an ExecBatch world and its classic-replay twin,
// each carrying a live JoinLeaveAttack fixation through a
// CapturedHijacker registered as BOTH walk hijacker and steer hook. The
// replay drives its hook's lifecycle around the one-op calls the way
// ExecBatch does (replayClassic), so the pair must pass requireReplayMatch
// after every batch with equal hook bookkeeping; on the batched side each
// batch must drive the lifecycle in order (requireLifecycle) and the
// hook's commit-folded tallies must equal the world's Stats. The
// bootstrap concentrates corruption in the low slots so captured clusters
// exist from the start and the fixation has something to bite on; seed
// bit 0 selects the cascade mode. The checked-in seeds
// (seed-tail-hijack-*) hijack walks in each cascade mode.
func FuzzHookedWorldOps(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 4, 2, 1, 4})
	f.Add(uint64(7), []byte{0, 2, 0, 3, 5, 4, 2, 2, 2, 3, 4})
	f.Add(uint64(42), []byte{2, 9, 2, 17, 2, 33, 4, 0, 0, 0, 0, 4, 5, 8, 4})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		runHookedScript(t, seed, script)
	})
}

func runHookedScript(t *testing.T, seed uint64, script []byte) {
	if len(script) > 128 {
		script = script[:128]
	}
	grouped := seed&1 == 1
	mk := func() (*World, *adversary.CapturedHijacker) {
		cfg := DefaultConfig(256)
		cfg.Seed = seed
		cfg.Shuffle = cascadeMode(grouped)
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Concentrated corruption: the low slots are all Byzantine, so the
		// bootstrap yields captured clusters for the attack to fixate on.
		if err := w.Bootstrap(96, func(slot int) bool { return slot < 24 }); err != nil {
			t.Fatal(err)
		}
		h := &adversary.CapturedHijacker{
			View:     w,
			Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
		}
		w.SetHijacker(h)
		w.SetSteerHook(h)
		return w, h
	}
	w1, h := mk()
	h1 := &loggedHook{CapturedHijacker: h}
	w1.SetHijacker(h1)
	w1.SetSteerHook(h1)
	w2, h2 := mk()
	minPop := 2 * w1.Config().TargetClusterSize()
	var ops int64

	var pending []Op
	victims := make(map[uint64]bool)
	next := func(i *int) byte {
		if *i >= len(script) {
			return 0
		}
		b := script[*i]
		*i++
		return b
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		rb := w1.ExecBatch(pending)
		for j := range rb {
			if rb[j].Err != nil && !IsUnknownNode(rb[j].Err) && !IsUnknownCluster(rb[j].Err) {
				t.Fatalf("op %d: %v", j, rb[j].Err)
			}
		}
		requireLifecycle(t, "batched", h1, rb)
		ops += int64(len(pending))
		rr := replayClassic(w2, h2, pending)
		requireReplayMatch(t, "hooked", w1, w2, rb, rr)
		if h1.Hijacked != h2.Hijacked || h1.CommittedOps != h2.CommittedOps {
			t.Fatalf("hook bookkeeping diverged: hijacked %d/%d ops %d/%d",
				h1.Hijacked, h2.Hijacked, h1.CommittedOps, h2.CommittedOps)
		}
		if st := w1.Stats(); h1.Hijacked != st.HijackedWalks || h1.CommittedOps != ops {
			t.Fatalf("commit fold saw %d hijacked walks over %d ops, world recorded %d over %d",
				h1.Hijacked, h1.CommittedOps, st.HijackedWalks, ops)
		}
		pending = pending[:0]
		victims = make(map[uint64]bool)
	}

	projN := w1.NumNodes()
	for i := 0; i < len(script); {
		b := next(&i)
		switch b % 6 {
		case 0, 1:
			if projN >= w1.Config().N-1 || len(pending) >= 8 {
				continue
			}
			pending = append(pending, Op{Kind: OpJoin, Byz: b&0x40 != 0})
			projN++
		case 2:
			if projN <= minPop || len(pending) >= 8 || w1.NumNodes() == 0 {
				continue
			}
			idx := int(next(&i)) % w1.NumNodes()
			x := w1.allNodes[idx]
			if victims[uint64(x)] {
				continue
			}
			victims[uint64(x)] = true
			pending = append(pending, Op{Kind: OpLeave, Victim: x})
			projN--
		case 3:
			cs := w1.Clusters()
			if len(cs) == 0 || len(pending) >= 8 {
				continue
			}
			c := cs[int(next(&i))%len(cs)]
			pending = append(pending, Op{Kind: OpExchange, Target: c})
		case 4:
			flush()
		case 5:
			flush() // classic ops require a quiescent batch queue
			if w1.NumNodes() == 0 {
				continue
			}
			idx := int(next(&i)) % w1.NumNodes()
			x := w1.allNodes[idx]
			if !w1.Contains(x) {
				continue
			}
			corrupted := !w1.IsByzantine(x)
			if corrupted && 3*(w1.NumByzantine()+1) > w1.NumNodes() {
				continue
			}
			if err := w1.SetCorrupted(x, corrupted); err != nil {
				t.Fatal(err)
			}
			if err := w2.SetCorrupted(x, corrupted); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
}
