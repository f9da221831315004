// Package nownet is the message-passing transport runtime: the gateway
// from the single-process step simulator to nodes that communicate only
// through envelopes on links with latency, loss and partitions.
//
// The layer cake, bottom up:
//
//   - Envelope is the wire format: Kind (oneway / request / response),
//     Type, From, To, MsgID, payload bytes, with a fixed binary codec
//     (every envelope crosses the transport as bytes, even in-process).
//   - Transport / Endpoint abstract the medium. The one implementation
//     here, LoopbackNet, is a deterministic in-process virtual-time
//     network: per-link latency, jitter, drop probability and partition
//     sets are driven by xrand substreams keyed on the directed link, so
//     a run is a pure function of the seed and the schedule. No wall
//     clock, no math/rand — time is a tick counter the scheduler owns.
//   - Node is the per-process runtime in the Kademlia shape: a single
//     reader goroutine drains the endpoint, routes responses to parked
//     waiter channels through an inflight map keyed by MsgID, and
//     dispatches requests to registered handlers. The reader never
//     blocks: waiter completion is a non-blocking send into a 1-buffered
//     slot, and late responses are counted, not delivered.
//   - Request retries with capped exponential backoff, so a dropped
//     envelope degrades into retransmissions instead of deadlocking the
//     round that was waiting on it.
//   - RoundHost lifts the lockstep engine's protocol state machines
//     (runtime.Process: commit-reveal randNum, phase-king, majority
//     relay) onto nownet nodes unchanged, pacing rounds with virtual
//     timers.
//
// The determinism contract survives the lift and is the package's oracle:
// under a fixed schedule (unit latency, no loss) a loopback run of any of
// the ported primitives reproduces the lockstep Engine's trace
// byte-for-byte — message counts, decisions and per-class ledger charges —
// extending the repo's serial-vs-sharded lockstep idiom to sim-vs-runtime.
package nownet

import (
	"errors"

	"nowover/internal/ids"
)

// ErrClosed is returned by operations on a closed transport or endpoint.
var ErrClosed = errors.New("nownet: transport closed")

// ErrTimeout is returned (wrapped) by Request when every attempt, retries
// included, timed out without a response.
var ErrTimeout = errors.New("nownet: request timed out")

// Transport hands out endpoints, one per node identity.
type Transport interface {
	// Open attaches a node to the transport. Each identity may be opened
	// at most once.
	Open(id ids.NodeID) (Endpoint, error)
	// Close tears the transport down; every blocked endpoint operation
	// unblocks with a closed indication.
	Close()
}

// Endpoint is one node's attachment to a transport. Send never blocks on
// the receiver; the blocking calls (Recv, Await, SleepUntil) suspend the
// calling goroutine under the transport's notion of time — virtual ticks
// for the loopback net. Blocking calls must be made from goroutines
// started through Go, so the transport can account for them.
type Endpoint interface {
	// ID returns the node identity this endpoint was opened for.
	ID() ids.NodeID
	// Send enqueues one envelope. It validates that From matches the
	// endpoint identity (links are authenticated in the paper's model)
	// and never blocks; envelopes lost to faults vanish silently, exactly
	// like a real network. Send copies what it keeps of env.Payload, so
	// the caller may reuse the payload's array once Send returns.
	Send(env Envelope) error
	// Recv blocks until an envelope arrives or the endpoint closes.
	Recv() (Envelope, bool)
	// Now returns the transport's current time in ticks.
	Now() int64
	// SleepUntil blocks until the given tick (no-op if already past).
	SleepUntil(tick int64)
	// Await blocks until the waiter is completed and woken, or the
	// deadline tick passes, whichever is first.
	Await(w *Waiter, deadline int64) (Envelope, bool)
	// Wake unblocks the goroutine parked in Await on w, if any. Callers
	// complete the waiter first, then wake.
	Wake(w *Waiter)
	// Go starts fn as a transport-scheduled goroutine.
	Go(fn func())
}

// Waiter is the response slot a requester parks on and the reader loop
// completes: the "waiter channel in the inflight map". The channel is
// buffered so completion never blocks the reader. Each request uses a
// waiter once; Node then drains it and reuses it for a later request.
type Waiter struct {
	ch chan Envelope
	// park is the transport's per-waiter state, kept across reuse: the
	// loopback net's handle for the goroutine blocked in Await (nil when
	// none), the TCP transport's deadline timer. Owned by the transport.
	park any
}

// NewWaiter returns an empty waiter.
func NewWaiter() *Waiter { return &Waiter{ch: make(chan Envelope, 1)} }

// Complete delivers the response into the waiter without blocking. It
// returns false if the slot was already filled (a duplicate response).
func (w *Waiter) Complete(env Envelope) bool {
	select {
	case w.ch <- env:
		return true
	default:
		return false
	}
}

// take drains the slot without blocking.
func (w *Waiter) take() (Envelope, bool) {
	select {
	case env := <-w.ch:
		return env, true
	default:
		return Envelope{}, false
	}
}

// RetryPolicy shapes Request's timeout and retransmission behavior: the
// first attempt waits Timeout ticks, every retry multiplies the window by
// Backoff up to Cap. Zero fields take the defaults.
type RetryPolicy struct {
	Timeout int64 // initial response window, ticks (default 8)
	Retries int   // retransmissions after the first attempt (default 3)
	Backoff int64 // window multiplier per retry (default 2)
	Cap     int64 // ceiling on the window (default 8*Timeout)
}

// normalized fills defaulted fields.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Timeout <= 0 {
		p.Timeout = 8
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Backoff < 2 {
		p.Backoff = 2
	}
	if p.Cap <= 0 {
		p.Cap = 8 * p.Timeout
	}
	if p.Cap < p.Timeout {
		p.Cap = p.Timeout
	}
	return p
}
