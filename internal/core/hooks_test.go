package core

import (
	"fmt"
	"runtime"
	"testing"

	"nowover/internal/adversary"
	"nowover/internal/xrand"
)

// newHookedWorld wires the full adversary stack onto a test world: a
// JoinLeaveAttack fixation feeding a CapturedHijacker that both redirects
// walks (SetHijacker) and steers randCl scoring (SetSteerHook) — one hook
// object, both roles, one batch lifecycle.
func newHookedWorld(t testing.TB, seed uint64, grouped bool) (*World, *adversary.CapturedHijacker) {
	t.Helper()
	w := newModeWorld(t, seed, grouped)
	h := &adversary.CapturedHijacker{
		View:     w,
		Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
	}
	w.SetHijacker(h)
	w.SetSteerHook(h)
	return w, h
}

// hookCall is one BatchHook call: op -1 is BeginBatch, op >= 0 a CommitOp
// of that op index with its outcome.
type hookCall struct {
	op int
	ok bool
}

// loggedHook is a CapturedHijacker that records the lifecycle calls
// ExecBatch makes on it.
type loggedHook struct {
	*adversary.CapturedHijacker
	calls []hookCall
}

func (h *loggedHook) BeginBatch() {
	h.calls = append(h.calls, hookCall{op: -1})
	h.CapturedHijacker.BeginBatch()
}

func (h *loggedHook) CommitOp(i int, ok bool, hijacked int64) {
	h.calls = append(h.calls, hookCall{op: i, ok: ok})
	h.CapturedHijacker.CommitOp(i, ok, hijacked)
}

// requireLifecycle checks that one batch drove h through exactly one
// BeginBatch followed by one CommitOp per op, in op order, each carrying
// the op's outcome; it then clears the log.
func requireLifecycle(t testing.TB, label string, h *loggedHook, res []OpResult) {
	t.Helper()
	want := []hookCall{{op: -1}}
	for i, r := range res {
		want = append(want, hookCall{op: i, ok: r.Err == nil})
	}
	if fmt.Sprint(h.calls) != fmt.Sprint(want) {
		t.Fatalf("%s: lifecycle calls %v, want %v", label, h.calls, want)
	}
	h.calls = h.calls[:0]
}

// newLoggedHookedWorld is newHookedWorld with the hook wrapped in a
// loggedHook.
func newLoggedHookedWorld(t testing.TB, seed uint64, grouped bool) (*World, *loggedHook) {
	t.Helper()
	w, h := newHookedWorld(t, seed, grouped)
	lh := &loggedHook{CapturedHijacker: h}
	w.SetHijacker(lh)
	w.SetSteerHook(lh)
	return w, lh
}

// TestHookedBatchMatchesClassicReplay is the classic-replay oracle with
// the adversary hooked in: a hijacker redirecting walks AND the same
// object steering randCl draws. The replay world drives its own hook's
// lifecycle around the one-op calls the way ExecBatch does, so both sides
// must stay identical apart from the settle-counted Stats fields, with
// equal hook bookkeeping. On the batched side every batch must drive the
// lifecycle in order (requireLifecycle), and the hook's commit-folded
// tallies must equal the world's Stats.
func TestHookedBatchMatchesClassicReplay(t *testing.T) {
	var hijacked int64
	for _, grouped := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("grouped=%v seed=%d", grouped, seed)
			batched, hb := newLoggedHookedWorld(t, seed, grouped)
			replay, hr := newHookedWorld(t, seed, grouped)
			r := xrand.New(seed ^ 0x400C)
			ops := 0
			for i := 0; i < replayBatches(); i++ {
				batch := randomBatch(batched, r, 8)
				ops += len(batch)
				rb := batched.ExecBatch(batch)
				requireLifecycle(t, label, hb, rb)
				rr := replayClassic(replay, hr, batch)
				requireReplayMatch(t, fmt.Sprintf("%s batch %d", label, i), batched, replay, rb, rr)
				if hb.Hijacked != hr.Hijacked || hb.CommittedOps != hr.CommittedOps {
					t.Fatalf("%s batch %d: hook bookkeeping diverged: hijacked %d/%d ops %d/%d",
						label, i, hb.Hijacked, hr.Hijacked, hb.CommittedOps, hr.CommittedOps)
				}
			}
			if st := batched.Stats(); hb.Hijacked != st.HijackedWalks || hb.CommittedOps != int64(ops) {
				t.Fatalf("%s: commit fold saw %d hijacked walks over %d ops, world recorded %d over %d",
					label, hb.Hijacked, hb.CommittedOps, st.HijackedWalks, ops)
			}
			hijacked += hb.Hijacked
		}
	}
	if hijacked == 0 {
		t.Fatal("hooked runs hijacked no walks: the redirect path never ran")
	}
}

// TestHookedShardedMatchesSerial: Config.Shards is kept only so old
// configurations still validate, so a hooked world (a hijacker redirecting
// walks AND a steer hook biasing randCl draws) must run byte-identically
// at Shards=1 and Shards=8, at any GOMAXPROCS, with equal hook bookkeeping
// and no op ever reported as deferred.
func TestHookedShardedMatchesSerial(t *testing.T) {
	newSharded := func(shards int) (*World, *adversary.CapturedHijacker) {
		t.Helper()
		cfg := DefaultConfig(512)
		cfg.Seed = 42
		cfg.Shards = shards
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(200, func(slot int) bool { return slot%5 == 0 }); err != nil {
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
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			serial, hs := newSharded(1)
			sharded, h8 := newSharded(8)
			if fp1, fp8 := worldFingerprint(serial), worldFingerprint(sharded); fp1 != fp8 {
				t.Fatalf("bootstrap fingerprints differ:\n%s\nvs\n%s", fp1, fp8)
			}
			rs := xrand.New(7)
			r8 := xrand.New(7)
			batches := 25
			if testing.Short() {
				batches = 8
			}
			for i := 0; i < batches; i++ {
				res1 := serial.ExecBatch(randomBatch(serial, rs, 8))
				res8 := sharded.ExecBatch(randomBatch(sharded, r8, 8))
				for j := range res1 {
					e1, e8 := fmt.Sprint(res1[j].Err), fmt.Sprint(res8[j].Err)
					if res1[j].Node != res8[j].Node || e1 != e8 || res1[j].Deferred != res8[j].Deferred {
						t.Fatalf("batch %d op %d diverged: serial=%+v sharded=%+v", i, j, res1[j], res8[j])
					}
					if res1[j].Deferred || res1[j].DeferReason != "" {
						t.Fatalf("batch %d op %d reported a deferral: %+v", i, j, res1[j])
					}
				}
				if fp1, fp8 := worldFingerprint(serial), worldFingerprint(sharded); fp1 != fp8 {
					t.Fatalf("state diverged after batch %d:\n--- serial ---\n%s\n--- sharded ---\n%s", i, fp1, fp8)
				}
				if hs.Hijacked != h8.Hijacked || hs.CommittedOps != h8.CommittedOps {
					t.Fatalf("hook bookkeeping diverged after batch %d: hijacked %d/%d ops %d/%d",
						i, hs.Hijacked, h8.Hijacked, hs.CommittedOps, h8.CommittedOps)
				}
				if err := CheckInvariants(serial); err != nil {
					t.Fatalf("serial invariants after batch %d: %v", i, err)
				}
				if err := CheckInvariants(sharded); err != nil {
					t.Fatalf("sharded invariants after batch %d: %v", i, err)
				}
			}
			if serial.Stats() != sharded.Stats() {
				t.Fatalf("final stats diverged:\n%+v\nvs\n%+v", serial.Stats(), sharded.Stats())
			}
			if serial.Stats().HijackedWalks == 0 {
				t.Fatal("hooked run hijacked no walks: the redirect path never ran")
			}
			if hs.Hijacked != serial.Stats().HijackedWalks {
				t.Fatalf("commit fold lost walks: hook saw %d, world recorded %d",
					hs.Hijacked, serial.Stats().HijackedWalks)
			}
		})
	}
}

// TestHookedRepeatableAcrossRuns guards the hook lifecycle against
// map-iteration order leaking into results (the hooked sibling of
// TestBatchRepeatableAcrossRuns).
func TestHookedRepeatableAcrossRuns(t *testing.T) {
	run := func() (string, int64, int64) {
		w, h := newHookedWorld(t, 1234, false)
		r := xrand.New(5)
		for i := 0; i < 10; i++ {
			w.ExecBatch(randomBatch(w, r, 6))
		}
		return worldFingerprint(w), h.Hijacked, h.CommittedOps
	}
	fa, hija, opsa := run()
	fb, hijb, opsb := run()
	if fa != fb || hija != hijb || opsa != opsb {
		t.Fatalf("repeat hooked runs diverged: hijacked %d/%d ops %d/%d\n%s\nvs\n%s",
			hija, hijb, opsa, opsb, fa, fb)
	}
}

// TestHookLifecycleDedup: one object registered as both hijacker and
// steerer must see exactly one BeginBatch/CommitOp stream, and replacing
// or clearing hooks must detach the lifecycle.
func TestHookLifecycleDedup(t *testing.T) {
	w := newTestWorld(t, 9)
	h := &adversary.CapturedHijacker{
		View:     w,
		Strategy: &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
	}
	w.SetHijacker(h)
	w.SetSteerHook(h)
	res := w.ExecBatch([]Op{{Kind: OpJoin}, {Kind: OpJoin}})
	for _, rr := range res {
		if rr.Err != nil {
			t.Fatal(rr.Err)
		}
	}
	if h.CommittedOps != 2 {
		t.Fatalf("dual-registered hook saw %d commits for a 2-op batch, want 2 (dedup failed)", h.CommittedOps)
	}
	w.SetHijacker(nil)
	w.SetSteerHook(nil)
	w.ExecBatch([]Op{{Kind: OpJoin}})
	if h.CommittedOps != 2 {
		t.Fatalf("cleared hook still saw commits: %d", h.CommittedOps)
	}
}

// BenchmarkExecBatchHookedExchange is the hooked hot path the gate
// enforces: the lean exchange regime with a live hijacker+steer hook. The
// hook contract is designed so steady state adds ZERO allocations over the
// unhooked path — BeginBatch revalidates the cached fixation with a Size
// probe, Redirect/Score only read, and CommitOp folds into existing
// counters.
func BenchmarkExecBatchHookedExchange(b *testing.B) {
	w, _ := newHookedWorld(b, 42, false)
	r := xrand.New(7)
	var ops []Op
	var res []OpResult
	for i := 0; i < 32; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = fillExchangeBatch(w, r, ops, 4)
		res = w.ExecBatchInto(res, ops)
	}
	_ = res
}
