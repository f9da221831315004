package core

// Batched execution: one paper time step with several simultaneous
// arrivals and departures.
//
// ExecBatch runs each op of a batch through the same code the classic
// one-op-per-call API runs (joinExisting, leaveWith, forceExchangeWith),
// in op order, on the world's own ledger and random stream. It differs
// from calling JoinAuto/Join/Leave/ForceExchange on the same ops in the
// same order in one respect only: security settles once, at the end of
// the batch, instead of after every op. Membership, sampling-index order,
// the ledger and Stats are identical to that classic replay, except the
// three fields settleSecurity counts (DegradedEvents, CapturedEvents,
// MaxByzFractionEver), which see only the batch-boundary state.
// OpRejoin, which has no one-op twin, runs OpJoin's arm on the head of
// the world's displaced FIFO instead of a fresh identity.
//
// Adversary hooks keep their snapshot-scoped contract (hooks.go):
// BeginBatch fixes the decision state Redirect/Score read for the whole
// batch, and CommitOp folds each op's hijacked-walk tally in op order
// once every op has run.

import (
	"fmt"

	"nowover/internal/ids"
)

// OpKind discriminates batched operations.
type OpKind int

// Batched operation kinds.
const (
	// OpJoin inserts a new node (Algorithm 1).
	OpJoin OpKind = iota
	// OpLeave removes a node (Algorithm 2).
	OpLeave
	// OpExchange force-shuffles one cluster (section 3.1 primitive).
	OpExchange
	// OpRejoin re-inserts the oldest node MergeRejoinAll displaced, with
	// its identity and allegiance, by the Join operation (Algorithm 2's
	// "re-join individually via Join operations"). It fails, changing
	// nothing, when World.Displaced is 0.
	OpRejoin
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpExchange:
		return "exchange"
	case OpRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one batched operation.
type Op struct {
	Kind OpKind
	// Byz marks a corrupted joiner (OpJoin; a rejoiner keeps its own).
	Byz bool
	// Contact, when HasContact, is the (re)join's contact cluster; otherwise
	// a uniform cluster is drawn from the world's stream, as JoinAuto does.
	Contact    ids.ClusterID
	HasContact bool
	// Victim is the departing node (OpLeave).
	Victim ids.NodeID
	// Target is the shuffled cluster (OpExchange).
	Target ids.ClusterID
}

// OpResult reports one batched operation's outcome.
type OpResult struct {
	// Node is the joined node's ID (OpJoin and OpRejoin; assigned even
	// when the join subsequently failed, since IDs are never reused).
	Node ids.NodeID
	// Err is the operation error, if any.
	Err error
	// Deferred and DeferReason are always zero: every op runs in op order
	// on the classic path, so none is ever deferred. They remain only for
	// callers that still read them and go with Config.Shards.
	Deferred    bool
	DeferReason string
}

// ExecBatch executes a batch of operations — one paper time step with
// multiple simultaneous arrivals/departures — in op order. Results are
// positionally aligned with ops. See the comment at the top of this file
// for how the outcome relates to the classic one-op-per-call API.
func (w *World) ExecBatch(ops []Op) []OpResult {
	return w.ExecBatchInto(nil, ops)
}

// ExecBatchInto is ExecBatch writing its results into a caller-owned
// slice (grown only when too small), so steady-state batch loops reuse
// one result buffer. The returned slice is res (or its replacement),
// resized to len(ops).
func (w *World) ExecBatchInto(res []OpResult, ops []Op) []OpResult {
	if cap(res) < len(ops) {
		res = make([]OpResult, len(ops))
	}
	res = res[:len(ops)]
	if len(ops) == 0 {
		return res
	}
	if !w.bootstrapped {
		err := fmt.Errorf("core: batch before bootstrap")
		for i := range res {
			res[i] = OpResult{Err: err}
		}
		return res
	}

	hooks, nHooks := w.hookLifecycles()
	for i := 0; i < nHooks; i++ {
		hooks[i].BeginBatch()
	}
	if cap(w.hijacked) < len(ops) {
		w.hijacked = make([]int64, len(ops))
	}
	hijacked := w.hijacked[:len(ops)]

	for i, op := range ops {
		before := w.stats.HijackedWalks
		res[i] = w.execOp(op)
		hijacked[i] = w.stats.HijackedWalks - before
	}

	for i := range res {
		for h := 0; h < nHooks; h++ {
			hooks[h].CommitOp(i, res[i].Err == nil, hijacked[i])
		}
	}
	w.settleSecurity()
	return res
}

// execOp runs one batched op on the classic path without settling.
func (w *World) execOp(op Op) OpResult {
	switch op.Kind {
	case OpJoin, OpRejoin:
		d := displacedNode{byz: op.Byz}
		if op.Kind == OpJoin {
			d.node = w.nodeAlloc.NextNode()
		} else if len(w.displaced) == 0 {
			return OpResult{Err: fmt.Errorf("core: no displaced node to rejoin")}
		} else {
			d, w.displaced = w.displaced[0], w.displaced[1:]
		}
		contact := op.Contact
		if !op.HasContact {
			var ok bool
			if contact, ok = w.RandomCluster(w.rng); !ok {
				return OpResult{Node: d.node, Err: fmt.Errorf("core: no clusters to contact")}
			}
		}
		err := w.joinExisting(d.node, d.byz, contact)
		if err == nil && op.Kind == OpRejoin {
			w.stats.Rejoins++
		}
		return OpResult{Node: d.node, Err: err}
	case OpLeave:
		return OpResult{Err: w.leaveWith(op.Victim)}
	case OpExchange:
		return OpResult{Err: w.forceExchangeWith(op.Target)}
	default:
		return OpResult{Err: fmt.Errorf("core: unknown op kind %d", int(op.Kind))}
	}
}
