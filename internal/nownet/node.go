package nownet

import (
	"fmt"
	"sync"

	"nowover/internal/ids"
)

// Handler processes an inbound request or oneway envelope. Handlers run
// inline on the node's reader goroutine and must not block — reply with
// Respond, hand longer work to Go. (Blocking the reader would stall every
// response correlation on the node; "the reader never blocks" is the
// design rule inherited from the Kademlia exemplar.)
type Handler func(n *Node, env Envelope)

// NodeStats counts a node's request/response outcomes.
type NodeStats struct {
	Casts           int64 // oneway envelopes sent
	Requests        int64 // Request calls
	Retries         int64 // retransmissions beyond each first attempt
	Timeouts        int64 // attempt windows that expired
	Failed          int64 // Requests that gave up (every retry timed out, or a send error)
	Responses       int64 // responses sent by handlers
	LateResponses   int64 // responses with no parked waiter (post-timeout)
	ForgedResponses int64 // responses whose From is not the peer the request went to
	Misrouted       int64 // inbound envelopes addressed to some other node, dropped
	Unhandled       int64 // inbound envelopes with no registered handler
}

// Node is the per-process runtime over an Endpoint: one reader goroutine
// drains the transport, routes responses to parked waiters via the
// inflight map, and dispatches requests to handlers by envelope Type.
type Node struct {
	ep Endpoint

	mu       sync.Mutex
	inflight map[uint64]inflightEntry
	free     []*Waiter // drained waiters of finished requests, reused by Request
	nextID   uint64
	stats    NodeStats
	started  bool

	handlers [256]Handler
}

// inflightEntry binds a parked waiter to the peer its request was sent
// to. Correlating responses by MsgID alone would let any third node that
// observes (or guesses) the ID forge the response to a request addressed
// to someone else; the reader only completes a waiter when the response's
// authenticated From matches the recorded peer.
type inflightEntry struct {
	w    *Waiter
	peer ids.NodeID
}

// NewNode wraps an endpoint. Register handlers, then Start.
func NewNode(ep Endpoint) *Node {
	return &Node{ep: ep, inflight: make(map[uint64]inflightEntry)}
}

// ID returns the node's transport identity.
func (n *Node) ID() ids.NodeID { return n.ep.ID() }

// Endpoint returns the underlying endpoint.
func (n *Node) Endpoint() Endpoint { return n.ep }

// Handle registers the handler for one envelope type. Must be called
// before Start.
func (n *Node) Handle(typ byte, h Handler) { n.handlers[typ] = h }

// Start launches the reader loop. Idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.ep.Go(n.readLoop)
}

// Go starts a protocol goroutine on the node's transport.
func (n *Node) Go(fn func()) { n.ep.Go(fn) }

// Stats snapshots the node counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// readLoop is the reader: it never blocks on anything but Recv itself.
func (n *Node) readLoop() {
	for {
		env, ok := n.ep.Recv()
		if !ok {
			return
		}
		if env.To != n.ID() {
			// Someone else's mail. The loopback net routes by To so this
			// cannot happen there, but a real transport with a stale or
			// hostile peer table can misdeliver; processing the envelope
			// anyway would answer (or complete waiters) on another node's
			// behalf.
			n.bump(func(s *NodeStats) { s.Misrouted++ })
			continue
		}
		switch env.Kind {
		case KindResponse:
			n.complete(env)
		default:
			h := n.handlers[env.Type]
			if h == nil {
				n.bump(func(s *NodeStats) { s.Unhandled++ })
				continue
			}
			h(n, env)
		}
	}
}

// complete routes a response to its parked waiter. Complete is a
// non-blocking send into the waiter's buffered slot; a missing waiter or
// an already-filled slot means the requester gave up or a duplicate
// arrived — count it, drop it. A waiter whose recorded peer differs is a
// forgery: links are authenticated, so From is trustworthy and the
// response did not come from the node the request was sent to. Lookup,
// Complete and Wake share one critical section with Request's recycling,
// so a late response can never land in a waiter that has moved on to
// another request.
func (n *Node) complete(env Envelope) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.inflight[env.MsgID]
	switch {
	case e.w == nil:
		n.stats.LateResponses++
	case env.From != e.peer:
		n.stats.ForgedResponses++
	case !e.w.Complete(env):
		n.stats.LateResponses++
	default:
		n.ep.Wake(e.w)
	}
}

// bump applies a counter update under the lock.
func (n *Node) bump(f func(*NodeStats)) {
	n.mu.Lock()
	f(&n.stats)
	n.mu.Unlock()
}

// allocID mints a per-node-unique message ID.
func (n *Node) allocID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	return n.nextID
}

// Cast sends a fire-and-forget envelope.
func (n *Node) Cast(to ids.NodeID, typ byte, payload []byte) error {
	n.bump(func(s *NodeStats) { s.Casts++ })
	return n.ep.Send(Envelope{
		Kind: KindOneway, Type: typ,
		From: n.ID(), To: to,
		MsgID: n.allocID(), Payload: payload,
	})
}

// Respond answers a request, echoing its MsgID so the peer's reader can
// correlate it to the parked waiter.
func (n *Node) Respond(req Envelope, payload []byte) error {
	n.bump(func(s *NodeStats) { s.Responses++ })
	return n.ep.Send(Envelope{
		Kind: KindResponse, Type: req.Type,
		From: n.ID(), To: req.From,
		MsgID: req.MsgID, Payload: payload,
	})
}

// Request sends a request and blocks until its response arrives, retrying
// with capped exponential backoff per pol. Retransmissions reuse the
// original MsgID, so receivers dedupe on (From, MsgID) and a late response
// to any attempt completes the same waiter. Returns the response, the
// number of attempts made, and an error wrapping ErrTimeout when every
// attempt expired.
func (n *Node) Request(to ids.NodeID, typ byte, payload []byte, pol RetryPolicy) (Envelope, int, error) {
	pol = pol.normalized()
	n.mu.Lock()
	n.nextID++
	msgID := n.nextID
	var w *Waiter
	if k := len(n.free); k > 0 {
		w = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		w = NewWaiter()
	}
	n.stats.Requests++
	n.inflight[msgID] = inflightEntry{w: w, peer: to}
	n.mu.Unlock()
	defer func() {
		// Once the entry is gone no response can reach w; drain what one
		// may have left after the last Await, then recycle it.
		n.mu.Lock()
		delete(n.inflight, msgID)
		w.take()
		n.free = append(n.free, w)
		n.mu.Unlock()
	}()

	env := Envelope{
		Kind: KindRequest, Type: typ,
		From: n.ID(), To: to,
		MsgID: msgID, Payload: payload,
	}
	window := pol.Timeout
	attempts := 0
	for {
		attempts++
		if attempts > 1 {
			n.bump(func(s *NodeStats) { s.Retries++ })
		}
		if err := n.ep.Send(env); err != nil {
			// Every failed exit bumps Failed, retries included — a send
			// error on attempt k>1 is still a request that gave up.
			n.bump(func(s *NodeStats) { s.Failed++ })
			return Envelope{}, attempts, err
		}
		if resp, ok := n.ep.Await(w, n.ep.Now()+window); ok {
			return resp, attempts, nil
		}
		n.bump(func(s *NodeStats) { s.Timeouts++ })
		if attempts > pol.Retries {
			n.bump(func(s *NodeStats) { s.Failed++ })
			return Envelope{}, attempts, fmt.Errorf("nownet: request type %d to %v after %d attempts: %w", typ, to, attempts, ErrTimeout)
		}
		window *= pol.Backoff
		if window > pol.Cap {
			window = pol.Cap
		}
	}
}
