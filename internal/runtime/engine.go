// Package runtime executes protocol primitives as real concurrent
// message-passing code: every node is a goroutine, rounds are lockstep
// (the paper's synchronous model), and messages are delivered through
// channels at the start of the round after they were sent. It exists to
// demonstrate the protocol as running code and to cross-validate the
// counted simulator's cost model: integration tests assert that the
// messages actually sent by these implementations match the charges the
// analytic ledger applies for the same primitive.
//
// Implemented at message level: intra-cluster commit-reveal randNum with
// Byzantine equivocators, the inter-cluster majority-accept rule, and
// CTRW token handoff across clusters.
package runtime

import (
	"fmt"
	"slices"
	"sync"

	"nowover/internal/ids"
)

// Message is one point-to-point protocol message. Payload contents are
// protocol-specific; equality of payloads (==) defines "identical
// messages" for the majority-accept rule, so payloads must be comparable.
type Message struct {
	From, To ids.NodeID
	Round    int
	Payload  any
}

// Process is a node's protocol state machine: it consumes the inbox of
// round r and emits the messages to deliver in round r+1.
//
// Each side owns its buffer. The inbox is valid only during Step: the
// caller that steps the process reuses its array for a later round. The
// returned slice is valid only until the next Step on the same process,
// which may build its output in the same array. Whatever a process keeps
// of its inbox, and whatever its caller keeps of an output, it copies
// (Message values, not the slices). The Engine and nownet.RoundHost
// consume each output before the next Step; every Process in this
// package keeps inbox contents only by value.
type Process interface {
	Step(round int, inbox []Message) []Message
}

// Engine runs a set of node processes in lockstep rounds, each node on its
// own goroutine. Not safe for concurrent use by multiple callers.
type Engine struct {
	order    []ids.NodeID
	workers  map[ids.NodeID]*worker
	pending  map[ids.NodeID][]Message
	messages int64
	rounds   int
	closed   bool
	// poisoned marks an engine whose last Round aborted mid-collection (a
	// node forged a sender). The inboxes consumed by that round are gone,
	// so the round structure is broken: further Rounds are refused, but
	// Close still reclaims the goroutines.
	poisoned bool
	// observe, when set, is called for every collected message in the
	// deterministic collect order (senders sorted, emission order within a
	// sender). Trace oracles hang off this hook.
	observe func(round int, m Message)
}

// worker is one node goroutine plus its rendezvous channels.
type worker struct {
	in   chan stepReq
	out  chan []Message
	done chan struct{}
}

type stepReq struct {
	round int
	inbox []Message
}

// NewEngine starts one goroutine per process. Callers must Close the
// engine to reclaim the goroutines.
func NewEngine(procs map[ids.NodeID]Process) *Engine {
	e := &Engine{
		workers: make(map[ids.NodeID]*worker, len(procs)),
		pending: make(map[ids.NodeID][]Message),
	}
	for id := range procs {
		e.order = append(e.order, id)
	}
	// Deterministic goroutine wiring order.
	slices.Sort(e.order)
	for _, id := range e.order {
		w := &worker{
			in:   make(chan stepReq),
			out:  make(chan []Message),
			done: make(chan struct{}),
		}
		e.workers[id] = w
		go func(p Process, w *worker) {
			defer close(w.done)
			for req := range w.in {
				w.out <- p.Step(req.round, req.inbox)
			}
		}(procs[id], w)
	}
	return e
}

// Round executes one synchronous round: delivers each node's pending
// inbox, runs all Step calls concurrently, and queues the emitted messages
// for the next round. Messages to unknown nodes are dropped (counted as
// sent — the channel exists even if the peer left).
func (e *Engine) Round() error {
	if e.closed {
		return fmt.Errorf("runtime: engine closed")
	}
	if e.poisoned {
		return fmt.Errorf("runtime: engine poisoned by an earlier failed round")
	}
	round := e.rounds
	// Fan out.
	var wg sync.WaitGroup
	results := make(map[ids.NodeID][]Message, len(e.order))
	var mu sync.Mutex
	for _, id := range e.order {
		w := e.workers[id]
		inbox := e.pending[id]
		delete(e.pending, id)
		wg.Add(1)
		go func(id ids.NodeID, w *worker) {
			defer wg.Done()
			w.in <- stepReq{round: round, inbox: inbox}
			out := <-w.out
			mu.Lock()
			results[id] = out
			mu.Unlock()
		}(id, w)
	}
	wg.Wait()
	// Validate every result before touching engine state: an error that
	// surfaced mid-collection used to leave e.pending half-queued and
	// e.rounds unincremented, so a caller that continued after the error
	// ran on a corrupted half-round. Now either the whole round commits or
	// none of it does — and a failed round poisons the engine (this round's
	// inboxes were already consumed by the Step calls, so the lockstep
	// structure cannot be resumed), while Close stays available.
	for _, id := range e.order {
		for _, m := range results[id] {
			if m.From != id {
				e.poisoned = true
				return fmt.Errorf("runtime: node %v forged sender %v", id, m.From)
			}
		}
	}
	// Collect in deterministic order.
	for _, id := range e.order {
		for _, m := range results[id] {
			e.messages++
			if e.observe != nil {
				e.observe(round, m)
			}
			if _, ok := e.workers[m.To]; ok {
				e.pending[m.To] = append(e.pending[m.To], m)
			}
		}
	}
	e.rounds++
	return nil
}

// Observe registers fn to be called once per collected message, in the
// deterministic collect order (sorted senders, emission order within each
// sender), with the round the message was emitted in. The sim-vs-runtime
// equivalence suite records the lockstep trace through this hook. Must be
// set before the first Round; a nil fn clears it.
func (e *Engine) Observe(fn func(round int, m Message)) { e.observe = fn }

// RunRounds executes n rounds.
func (e *Engine) RunRounds(n int) error {
	for i := 0; i < n; i++ {
		if err := e.Round(); err != nil {
			return err
		}
	}
	return nil
}

// Messages returns the total messages sent so far.
func (e *Engine) Messages() int64 { return e.messages }

// Rounds returns the number of rounds executed.
func (e *Engine) Rounds() int { return e.rounds }

// Close shuts down all node goroutines and waits for them to exit.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, id := range e.order {
		close(e.workers[id].in)
	}
	for _, id := range e.order {
		<-e.workers[id].done
	}
}

// MajorityPayload applies the paper's inter-cluster acceptance rule to an
// inbox: it returns the payload that more than half of the members of the
// sending cluster delivered identically, if any. senders is the expected
// membership of the sending cluster.
//
// Each expected sender contributes at most ONE vote — the first message it
// delivered, matching the paper's delivery rule. Counting raw messages
// would let a single Byzantine member repeat a payload k times and push it
// past the strict-majority threshold on its own.
func MajorityPayload(inbox []Message, senders []ids.NodeID) (any, bool) {
	expected := make(map[ids.NodeID]bool, len(senders))
	for _, s := range senders {
		expected[s] = true
	}
	counts := make(map[any]int)
	voted := make(map[ids.NodeID]bool, len(senders))
	for _, m := range inbox {
		if expected[m.From] && !voted[m.From] {
			voted[m.From] = true
			counts[m.Payload]++
		}
	}
	//nowlint:ordered a strict majority (> half the senders) is unique, so at most one iteration can satisfy the return condition — the result is order-independent
	for payload, n := range counts {
		if 2*n > len(senders) {
			return payload, true
		}
	}
	return nil, false
}
