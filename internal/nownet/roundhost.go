package nownet

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/runtime"
)

// RoundHost lifts a lockstep protocol state machine (runtime.Process) onto
// a nownet node: rounds are paced by virtual timers instead of the
// engine's barrier, inboxes accumulate from delivered envelopes, and the
// Step outputs go back out through the transport. Two modes:
//
//   - ModeLockstep sends each protocol message as a oneway envelope over
//     unit-latency lossless links. Under that fixed schedule the host
//     reproduces the lockstep Engine byte-for-byte (the equivalence suite
//     pins it), because deliveries due at a tick are processed before the
//     round timers of that tick, in sender-sorted order.
//   - ModeReliable sends each protocol message as a request and waits for
//     the receiver's ack, retrying with capped backoff — the degradation
//     path that keeps a round from deadlocking on a dropped envelope.
//     Receivers dedupe retransmissions on (From, MsgID) and late arrivals
//     from earlier rounds are discarded, so loss converts into either a
//     recovered delivery or a cleanly missing vote, never a corrupted
//     round.
type RoundHost struct {
	node  *Node
	cfg   HostConfig
	trace *Trace
	done  chan struct{} // closed when the round loop finishes
	frame []byte        // emit's round-frame buffer, the round loop's alone

	mu  sync.Mutex
	led metrics.Ledger
	// pending and inbox are two arrays that trade places at every collect:
	// arrivals append to pending while Step reads the inbox, so each grows
	// to the largest round once and not every round.
	pending []runtime.Message
	inbox   []runtime.Message
	seen    dedupSet // ModeReliable: request keys queued so far
	stats   HostStats
}

// HostMode selects the delivery discipline.
type HostMode int

// Host modes.
const (
	ModeLockstep HostMode = iota
	ModeReliable
)

// Envelope types used by round hosts.
const (
	// TypeRound carries one protocol round message (frame: round, payload
	// tag, payload body).
	TypeRound byte = 1
)

// HostConfig describes one hosted protocol participant.
type HostConfig struct {
	// Proc is the state machine to host; it is stepped Rounds times.
	Proc runtime.Process
	// Rounds is the number of Step calls.
	Rounds int
	// RoundTicks is the virtual-time length of one round. Defaults to 1
	// in ModeLockstep and 1024 in ModeReliable (room for the retry span).
	RoundTicks int64
	// Mode selects oneway lockstep-equivalent delivery or reliable
	// request/ack delivery.
	Mode HostMode
	// Policy is the retry policy for ModeReliable.
	Policy RetryPolicy
	// Class is the ledger traffic class protocol messages are charged to
	// (acks and retransmissions go to metrics.ClassTransport).
	Class metrics.Class
}

// HostStats counts a host's delivery outcomes.
type HostStats struct {
	Emitted     int64 // protocol messages emitted by Step
	Undelivered int64 // reliable sends that exhausted every retry
	Duplicates  int64 // retransmissions deduped on arrival
	Stale       int64 // arrivals discarded for belonging to an older round
	Malformed   int64 // frames that failed to decode
}

// withDefaults resolves zero fields.
func (c HostConfig) withDefaults() HostConfig {
	if c.RoundTicks <= 0 {
		if c.Mode == ModeReliable {
			c.RoundTicks = 1024
		} else {
			c.RoundTicks = 1
		}
	}
	return c
}

// NewRoundHost attaches a host to a node and registers its handler. The
// shared trace may be nil.
func NewRoundHost(node *Node, cfg HostConfig, trace *Trace) *RoundHost {
	h := &RoundHost{node: node, cfg: cfg.withDefaults(), trace: trace, done: make(chan struct{})}
	node.Handle(TypeRound, h.onRound)
	return h
}

// Start launches the node reader and the host's round loop.
func (h *RoundHost) Start() {
	h.node.Start()
	h.node.Go(h.run)
}

// Stats snapshots the host counters.
func (h *RoundHost) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Ledger returns the host's accumulated charges.
func (h *RoundHost) Ledger() metrics.Ledger {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.led
}

// onRound is the inbound handler: decode the frame, ack and dedupe in
// reliable mode, queue the message for the round it targets.
func (h *RoundHost) onRound(n *Node, env Envelope) {
	round, payload, err := decodeRoundFrame(env.Payload)
	if err != nil {
		h.mu.Lock()
		h.stats.Malformed++
		h.mu.Unlock()
		return
	}
	if env.Kind == KindRequest {
		// Ack every copy — a retransmission means our previous ack was
		// lost — but queue only the first.
		_ = n.Respond(env, nil)
		h.mu.Lock()
		h.led.Charge(metrics.ClassTransport, 1)
		if !h.seen.add(dedupKey{from: env.From, msgID: env.MsgID}) {
			h.stats.Duplicates++
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
	}
	h.mu.Lock()
	h.pending = append(h.pending, runtime.Message{
		From: env.From, To: n.ID(), Round: round, Payload: payload,
	})
	h.mu.Unlock()
}

// run is the round loop: sleep to the boundary, collect the previous
// round's arrivals, step, emit. Round boundaries are relative to the tick
// the loop starts on: on the loopback net every host starts at tick 0, so
// this is identical to absolute pacing (the equivalence suite pins it),
// while on a wall-clock transport a host started late — a daemon whose
// control client issued START after its peers — still paces full rounds.
func (h *RoundHost) run() {
	defer close(h.done)
	ep := h.node.Endpoint()
	base := ep.Now()
	for r := 0; r < h.cfg.Rounds; r++ {
		if r > 0 {
			ep.SleepUntil(base + int64(r)*h.cfg.RoundTicks)
		}
		inbox := h.collect(r)
		for _, m := range h.cfg.Proc.Step(r, inbox) {
			h.emit(r, m)
		}
	}
}

// Wait blocks until the round loop has stepped every round. On the
// loopback net Run already implies it; on a wall-clock transport it is
// how the driver learns the protocol finished.
func (h *RoundHost) Wait() { <-h.done }

// collect drains the pending queue for round r. Lockstep mode takes
// everything (unit latency makes every arrival previous-round by
// construction); reliable mode keeps exactly the messages emitted in round
// r-1, re-queues messages from rounds we have not reached (a peer ahead of
// us in wall-clock time — daemon start skew — must not cost a vote), and
// discards older stragglers. The returned inbox is the array pending
// filled; the previous inbox, which Step is done with, takes the arrivals
// from here on.
func (h *RoundHost) collect(r int) []runtime.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	msgs := h.pending
	h.pending, h.inbox = h.inbox[:0], msgs
	if h.cfg.Mode == ModeLockstep {
		return msgs
	}
	kept := msgs[:0]
	for _, m := range msgs {
		switch {
		case m.Round == r-1:
			kept = append(kept, m)
		case m.Round > r-1:
			h.pending = append(h.pending, m)
		default:
			h.stats.Stale++
		}
	}
	return kept
}

// emit traces, charges and transmits one Step output.
func (h *RoundHost) emit(r int, m runtime.Message) {
	if h.trace != nil {
		h.trace.Record(r, m)
	}
	h.mu.Lock()
	h.stats.Emitted++
	h.led.Charge(h.cfg.Class, 1)
	h.mu.Unlock()
	var err error
	if h.frame, err = appendRoundFrame(h.frame[:0], r, m.Payload); err != nil {
		panic(fmt.Sprintf("nownet: unencodable protocol payload: %v", err))
	}
	// Send copies the frame, so the next emit may overwrite it.
	switch h.cfg.Mode {
	case ModeLockstep:
		_ = h.node.Cast(m.To, TypeRound, h.frame)
	case ModeReliable:
		if _, attempts, err := h.node.Request(m.To, TypeRound, h.frame, h.cfg.Policy); err != nil {
			h.mu.Lock()
			h.stats.Undelivered++
			h.led.Charge(metrics.ClassTransport, int64(attempts-1))
			h.mu.Unlock()
		} else if attempts > 1 {
			h.mu.Lock()
			h.led.Charge(metrics.ClassTransport, int64(attempts-1))
			h.mu.Unlock()
		}
	}
}

// Round frame: emission round (u32) | payload tag (u8) | payload body.
// appendRoundFrame appends one to dst.
func appendRoundFrame(dst []byte, round int, payload any) ([]byte, error) {
	return runtime.AppendPayload(binary.BigEndian.AppendUint32(dst, uint32(round)), payload)
}

func decodeRoundFrame(frame []byte) (round int, payload any, err error) {
	if len(frame) < 5 {
		return 0, nil, fmt.Errorf("nownet: round frame has %d bytes, want >= 5", len(frame))
	}
	payload, err = runtime.DecodePayload(frame[4], frame[5:])
	if err != nil {
		return 0, nil, err
	}
	return int(binary.BigEndian.Uint32(frame)), payload, nil
}

// Trace is an append-only record of protocol message emissions, rendered
// identically by the lockstep engine's Observe hook and by round hosts:
// byte-equal traces are the sim-vs-runtime oracle.
//
// It keeps each emission as values and formats only in String, so a run
// that never reads its trace pays one append per emission.
type Trace struct {
	mu   sync.Mutex
	recs []traceRec
}

// traceRec is one recorded emission.
type traceRec struct {
	round    int
	from, to ids.NodeID
	payload  any
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Record appends one emission.
func (t *Trace) Record(round int, m runtime.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, traceRec{round: round, from: m.From, to: m.To, payload: m.Payload})
}

// String renders the trace.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, r := range t.recs {
		fmt.Fprintf(&b, "r%03d %v->%v %#v\n", r.round, r.from, r.to, r.payload)
	}
	return b.String()
}

// Messages returns the number of recorded emissions.
func (t *Trace) Messages() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.recs))
}

// Cluster wires a set of processes onto one transport: an endpoint, node
// and round host per process, built and started in sorted ID order so the
// loopback schedule is deterministic.
type Cluster struct {
	order []ids.NodeID
	nodes map[ids.NodeID]*Node
	hosts map[ids.NodeID]*RoundHost
	trace *Trace
}

// NewCluster opens an endpoint per process and builds its host. cfg.Proc
// is ignored; each process from procs is hosted with the remaining cfg.
func NewCluster(t Transport, procs map[ids.NodeID]runtime.Process, cfg HostConfig) (*Cluster, error) {
	c := &Cluster{
		nodes: make(map[ids.NodeID]*Node, len(procs)),
		hosts: make(map[ids.NodeID]*RoundHost, len(procs)),
		trace: NewTrace(),
	}
	for id := range procs {
		c.order = append(c.order, id)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	for _, id := range c.order {
		ep, err := t.Open(id)
		if err != nil {
			return nil, err
		}
		node := NewNode(ep)
		hostCfg := cfg
		hostCfg.Proc = procs[id]
		c.nodes[id] = node
		c.hosts[id] = NewRoundHost(node, hostCfg, c.trace)
	}
	return c, nil
}

// Start launches every node and host, in sorted ID order.
func (c *Cluster) Start() {
	for _, id := range c.order {
		c.hosts[id].Start()
	}
}

// Wait blocks until every host's round loop has finished, in sorted ID
// order. Loopback drivers get this for free from Run; wall-clock drivers
// (TCP) call it to learn the committee is done.
func (c *Cluster) Wait() {
	for _, id := range c.order {
		c.hosts[id].Wait()
	}
}

// Trace returns the shared emission trace.
func (c *Cluster) Trace() *Trace { return c.trace }

// Node returns one member's node runtime.
func (c *Cluster) Node(id ids.NodeID) *Node { return c.nodes[id] }

// Ledger merges the per-host ledgers in sorted ID order.
func (c *Cluster) Ledger() metrics.Ledger {
	var led metrics.Ledger
	for _, id := range c.order {
		l := c.hosts[id].Ledger()
		led.Merge(&l)
	}
	return led
}

// Stats aggregates node and host counters across the cluster.
func (c *Cluster) Stats() (NodeStats, HostStats) {
	var ns NodeStats
	var hs HostStats
	for _, id := range c.order {
		s := c.nodes[id].Stats()
		ns.Casts += s.Casts
		ns.Requests += s.Requests
		ns.Retries += s.Retries
		ns.Timeouts += s.Timeouts
		ns.Failed += s.Failed
		ns.Responses += s.Responses
		ns.LateResponses += s.LateResponses
		ns.ForgedResponses += s.ForgedResponses
		ns.Misrouted += s.Misrouted
		ns.Unhandled += s.Unhandled
		h := c.hosts[id].Stats()
		hs.Emitted += h.Emitted
		hs.Undelivered += h.Undelivered
		hs.Duplicates += h.Duplicates
		hs.Stale += h.Stale
		hs.Malformed += h.Malformed
	}
	return ns, hs
}
