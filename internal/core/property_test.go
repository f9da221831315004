package core

import (
	"testing"
	"testing/quick"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// TestRandomOpScriptsPreserveConsistency drives worlds through random
// operation scripts derived from quick-check inputs and asserts full
// bookkeeping consistency plus structural invariants after every script.
func TestRandomOpScriptsPreserveConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	check := func(seed uint64, script []byte) bool {
		cfg := DefaultConfig(512)
		cfg.Seed = seed
		w, err := NewWorld(cfg)
		if err != nil {
			return false
		}
		if err := w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 }); err != nil {
			return false
		}
		r := xrand.New(seed ^ 0xF00D)
		if len(script) > 60 {
			script = script[:60]
		}
		for _, op := range script {
			switch op % 4 {
			case 0, 1: // join (honest or byzantine by op parity)
				if w.NumNodes() >= cfg.N {
					continue
				}
				if _, err := w.JoinAuto(op&8 != 0); err != nil {
					t.Logf("join failed: %v", err)
					return false
				}
			case 2: // leave a random node
				if w.NumNodes() <= 2*cfg.TargetClusterSize() {
					continue
				}
				x, ok := w.RandomNode(r)
				if !ok {
					continue
				}
				if err := w.Leave(x); err != nil {
					t.Logf("leave failed: %v", err)
					return false
				}
			case 3: // force-exchange a random cluster
				c, ok := w.RandomCluster(r)
				if !ok {
					continue
				}
				if err := w.ForceExchange(c); err != nil {
					t.Logf("exchange failed: %v", err)
					return false
				}
			}
		}
		if err := w.CheckConsistency(); err != nil {
			t.Logf("consistency: %v", err)
			return false
		}
		a := w.Audit()
		if a.MaxSize > cfg.SplitThreshold() || (a.Clusters > 1 && a.MinSize < a.SizeLo && a.MinSize > 0) {
			t.Logf("size bounds violated: %+v", a)
			return false
		}
		return a.OverlayConnected
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedCascadePreservesBounds is the cascade-equivalence property
// test: over randomized join/leave/exchange sequences, post-cascade
// cluster compositions under grouped shuffling must still satisfy the
// structural bounds the Lemma 1-3 analysis rests on — every node in
// exactly one cluster, Byzantine counters exact, sizes inside the
// [merge, split] window, overlay == cluster set — as checked by
// core.CheckInvariants, in BOTH execution modes: the classic one-op API
// on one world and ExecBatch on another, seeded differently and fed
// independently drawn ops, so the property is checked per mode rather
// than by fingerprint equality; the replay regression is
// TestGroupedCascadeMatchesSerial.
func TestGroupedCascadePreservesBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	mk := func(seed uint64) (*World, error) {
		cfg := DefaultConfig(512)
		cfg.Seed = seed
		cfg.Shuffle = ShuffleGrouped
		w, err := NewWorld(cfg)
		if err != nil {
			return nil, err
		}
		return w, w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 })
	}
	check := func(seed uint64, script []byte) bool {
		classic, err := mk(seed)
		if err != nil {
			return false
		}
		batched, err := mk(seed ^ 0xCA5CADE)
		if err != nil {
			return false
		}
		r := xrand.New(seed ^ 0xF00D)
		if len(script) > 48 {
			script = script[:48]
		}
		minPop := 2 * classic.Config().TargetClusterSize()
		var pending []Op
		victims := make(ids.NodeSet)
		for _, op := range script {
			// Classic mode: one classic op per script byte.
			switch op % 4 {
			case 0, 1:
				if classic.NumNodes() < classic.Config().N {
					if _, err := classic.JoinAuto(op&8 != 0); err != nil {
						t.Logf("classic join: %v", err)
						return false
					}
				}
			case 2:
				if classic.NumNodes() > minPop {
					if x, ok := classic.RandomNode(r); ok {
						if err := classic.Leave(x); err != nil {
							t.Logf("classic leave: %v", err)
							return false
						}
					}
				}
			case 3:
				if c, ok := classic.RandomCluster(r); ok {
					if err := classic.ForceExchange(c); err != nil {
						t.Logf("classic exchange: %v", err)
						return false
					}
				}
			}
			if err := CheckInvariants(classic); err != nil {
				t.Logf("classic invariants: %v", err)
				return false
			}
			// Batched mode: the same script byte queues a batch op;
			// every fourth byte flushes the batch.
			switch op % 4 {
			case 0, 1:
				pending = append(pending, Op{Kind: OpJoin, Byz: op&8 != 0})
			case 2:
				if batched.NumNodes()-len(pending) > minPop {
					if x, ok := batched.RandomNode(r); ok && victims.Add(x) {
						pending = append(pending, Op{Kind: OpLeave, Victim: x})
					}
				}
			case 3:
				if c, ok := batched.RandomCluster(r); ok {
					pending = append(pending, Op{Kind: OpExchange, Target: c})
				}
			}
			if len(pending) >= 4 {
				for _, rr := range batched.ExecBatch(pending) {
					if rr.Err != nil && !IsUnknownNode(rr.Err) && !IsUnknownCluster(rr.Err) {
						t.Logf("batched op: %v", rr.Err)
						return false
					}
				}
				pending = pending[:0]
				victims = make(ids.NodeSet)
				if err := CheckInvariants(batched); err != nil {
					t.Logf("batched invariants: %v", err)
					return false
				}
			}
		}
		for _, w := range []*World{classic, batched} {
			a := w.Audit()
			if a.MaxSize > w.Config().SplitThreshold() {
				t.Logf("size bound violated: %+v", a)
				return false
			}
			if !a.OverlayConnected {
				t.Logf("overlay disconnected: %+v", a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeIsPopulationPermutation: any number of forced exchanges is a
// permutation of the node population — nothing created, lost, or
// duplicated, and Byzantine count invariant.
func TestExchangeIsPopulationPermutation(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.Seed = 77
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(400, func(slot int) bool { return slot < 100 }); err != nil {
		t.Fatal(err)
	}
	before := make(map[ids.NodeID]bool, 400)
	for _, c := range w.Clusters() {
		for _, x := range w.Members(c) {
			if before[x] {
				t.Fatalf("node %v in two clusters", x)
			}
			before[x] = true
		}
	}
	for i := 0; i < 10; i++ {
		c, _ := w.RandomCluster(w.Rng())
		if err := w.ForceExchange(c); err != nil {
			t.Fatal(err)
		}
	}
	after := 0
	for _, c := range w.Clusters() {
		for _, x := range w.Members(c) {
			if !before[x] {
				t.Fatalf("unknown node %v appeared", x)
			}
			after++
		}
	}
	if after != 400 {
		t.Fatalf("population %d after exchanges, want 400", after)
	}
	if w.NumByzantine() != 100 {
		t.Fatalf("byzantine count %d, want 100", w.NumByzantine())
	}
}

// TestSetCorruptedRoundTrip exercises the experiment hook's bookkeeping.
func TestSetCorruptedRoundTrip(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, nil); err != nil {
		t.Fatal(err)
	}
	x, _ := w.RandomNode(xrand.New(1))
	c, _ := w.ClusterOf(x)
	byzBefore := w.Byz(c)
	if err := w.SetCorrupted(x, true); err != nil {
		t.Fatal(err)
	}
	if !w.IsByzantine(x) || w.Byz(c) != byzBefore+1 || w.NumByzantine() != 1 {
		t.Fatal("corruption bookkeeping broken")
	}
	if err := w.SetCorrupted(x, true); err != nil { // idempotent
		t.Fatal(err)
	}
	if w.NumByzantine() != 1 {
		t.Fatal("double corruption double-counted")
	}
	if err := w.SetCorrupted(x, false); err != nil {
		t.Fatal(err)
	}
	if w.IsByzantine(x) || w.Byz(c) != byzBefore || w.NumByzantine() != 0 {
		t.Fatal("un-corruption bookkeeping broken")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := w.SetCorrupted(ids.NodeID(1<<40), true); err == nil {
		t.Fatal("corrupting unknown node accepted")
	}
}

// TestLedgerMonotone: operation costs only ever accumulate.
func TestLedgerMonotone(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 9
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, nil); err != nil {
		t.Fatal(err)
	}
	prev := w.Ledger().Messages()
	for i := 0; i < 10; i++ {
		if _, err := w.JoinAuto(false); err != nil {
			t.Fatal(err)
		}
		cur := w.Ledger().Messages()
		if cur <= prev {
			t.Fatalf("ledger did not grow: %d -> %d", prev, cur)
		}
		prev = cur
	}
}
