package core

// The adversary hook contract.
//
// Hijack and steer hooks are consulted from inside walks. A batch is one
// paper time step, and the adversary decides against the state at the
// step boundary, so hook DECISIONS and hook BOOKKEEPING sit on opposite
// sides of the batch:
//
//   - During the batch, Redirect/Score read decision state that is fixed
//     for the whole batch, plus the random stream handed to Redirect. They
//     must not change that state; reading the live world (e.g. a target
//     liveness check) is fine, since ops run one after another.
//   - A hook that also implements BatchHook gets BeginBatch before the
//     batch's first op — the one place to re-validate or re-fixate its
//     decision state against the pre-batch world — and CommitOp once per
//     op, in op order, after the batch's last op has run. Ratchet
//     counters and budget spend belong in CommitOp.
//
// The sim runs every time step, one op or several, rejoins included,
// through ExecBatch, so it drives this lifecycle on every step. The one-op
// API (Join, JoinAuto, Leave, ForceExchange) makes no lifecycle calls: it
// stays the lifecycle-free reference that ExecBatch is replayed against.

import (
	"nowover/internal/ids"
	"nowover/internal/walk"
)

// BatchHook is the lifecycle of an adversary hook across one
// ExecBatch call (one paper time step). Implemented optionally by the
// values passed to SetHijacker / SetSteerHook; a hook without it simply
// has no per-batch state to refresh or fold.
type BatchHook interface {
	// BeginBatch runs before the batch's first op, against the pre-batch
	// world: refresh the decision state the coming batch's Redirect/Score
	// calls will read.
	BeginBatch()
	// CommitOp runs once per batch op, in op order, after the batch's last
	// op has run: op index i, whether the op succeeded, and how many of its
	// walks were hijacked. This is where hook bookkeeping (ratchets, spend,
	// counters) folds.
	CommitOp(i int, ok bool, hijacked int64)
}

// Steerer scores clusters by their value to the adversary, biasing
// last-revealer randomness (see walk.Config.Steer). Score reads the
// batch-fixed decision state described above.
type Steerer interface {
	Score(c ids.ClusterID) float64
}

// SetHijacker installs (or clears) the adversary's captured-cluster walk
// redirection hook. Redirect must follow the contract above (see also
// walk.Hijacker); if h also implements BatchHook, ExecBatch drives its
// lifecycle.
func (w *World) SetHijacker(h walk.Hijacker) {
	w.hijack.set(h)
	w.hijackHook = nil
	if bh, ok := h.(BatchHook); ok {
		w.hijackHook = bh
	}
}

// SetSteerHook installs h.Score as the steer function and, when h also
// implements BatchHook, registers its lifecycle with ExecBatch. When the
// same value is already installed as the hijacker its lifecycle runs
// once, not twice. Passing nil clears the steer hook.
func (w *World) SetSteerHook(h Steerer) {
	if h == nil {
		w.steer = nil
		w.steerHook = nil
		return
	}
	w.steer = h.Score
	w.steerHook = nil
	if bh, ok := h.(BatchHook); ok {
		w.steerHook = bh
	}
}

// hookLifecycles returns the registered batch lifecycles, hijacker first,
// deduplicated so one value serving as both hijacker and steerer commits
// once per op.
func (w *World) hookLifecycles() (hooks [2]BatchHook, n int) {
	if w.hijackHook != nil {
		hooks[n] = w.hijackHook
		n++
	}
	if w.steerHook != nil && w.steerHook != w.hijackHook {
		hooks[n] = w.steerHook
		n++
	}
	return hooks, n
}
