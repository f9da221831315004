package nownet

import (
	"container/heap"
	"fmt"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// LoopbackNet is the deterministic in-process transport: a discrete-event
// scheduler over virtual ticks with injectable per-link latency, jitter,
// drop probability and partition sets. Node goroutines are cooperatively
// scheduled — exactly one hosted goroutine runs at a time, and the floor
// is handed over through rendezvous channels — so every run is a pure
// function of the seed and the configured schedule: event order is the
// total order (due tick, event class, sequence number), and all fault
// draws come from xrand substreams derived per directed link.
//
// Within a tick, deliveries are processed before control events, and
// control events before timers. That ordering is load-bearing: a node
// woken by a round timer at tick t observes every envelope due at t, and
// partition changes scheduled At(t) apply to the sends of tick t.
//
// The external API (Open, SetLink, SetPartition, At, Run, Close) belongs
// to the driving goroutine — Run executes the scheduler inline on the
// caller. Hosted goroutines interact only through their Endpoint. Neither
// side is safe for concurrent use from additional goroutines.
type LoopbackNet struct {
	cfg     Config
	now     int64
	seq     uint64
	events  eventHeap
	runq    []*parker
	floor   chan struct{}
	current *parker
	live    int // hosted goroutines not yet done
	eps     map[ids.NodeID]*loopEndpoint
	order   []ids.NodeID // endpoint registration order
	links   map[linkKey]LinkConfig
	streams map[linkKey]*xrand.Rand
	groups  map[ids.NodeID]int
	stats   NetStats
	closed  bool
	running bool
}

// Config seeds a loopback network.
type Config struct {
	// Seed roots every per-link fault stream (xrand.Derive(Seed, from, to)).
	Seed uint64
	// Link is the default behavior of every link without an override.
	Link LinkConfig
}

// LinkConfig is one directed link's fault model.
type LinkConfig struct {
	// Latency is the fixed delivery delay in ticks (minimum 1: an
	// envelope is never delivered in the tick it was sent).
	Latency int64
	// Jitter adds a uniform extra delay in [0, Jitter] ticks.
	Jitter int64
	// Drop is the probability an envelope vanishes in transit.
	Drop float64
}

// NetStats counts transport-level outcomes.
type NetStats struct {
	Sent             int64 // envelopes handed to Send
	Delivered        int64 // envelopes that reached an endpoint inbox
	DroppedRandom    int64 // lost to link drop probability
	DroppedPartition int64 // blocked by the active partition
	DroppedUnknown   int64 // addressed to an unopened or closed endpoint
}

type linkKey struct{ from, to ids.NodeID }

// Event classes: the within-tick ordering (see the type comment).
const (
	classDeliver = iota
	classControl
	classTimer
)

// event is one scheduled occurrence.
type event struct {
	due   int64
	class uint8
	seq   uint64
	wire  []byte  // classDeliver: the encoded envelope
	p     *parker // classTimer: goroutine to wake
	gen   uint64  // classTimer: park session the timer belongs to
	fn    func()  // classControl: runs on the scheduler goroutine
}

// eventHeap orders events by (due, class, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// parker states.
const (
	stateRunnable = iota
	stateRunning
	stateParked
	stateDone
)

// parker is one hosted goroutine's scheduling handle.
type parker struct {
	resume chan struct{}
	state  int
	// gen counts park sessions; a timer wakes its parker only when the
	// generations match, so a goroutine woken early (response arrived)
	// cannot be re-woken by its stale timeout.
	gen uint64
}

// NewLoopback builds an empty network.
func NewLoopback(cfg Config) *LoopbackNet {
	return &LoopbackNet{
		cfg:     cfg,
		floor:   make(chan struct{}),
		eps:     make(map[ids.NodeID]*loopEndpoint),
		links:   make(map[linkKey]LinkConfig),
		streams: make(map[linkKey]*xrand.Rand),
	}
}

// Open implements Transport.
func (n *LoopbackNet) Open(id ids.NodeID) (Endpoint, error) {
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.eps[id]; dup {
		return nil, fmt.Errorf("nownet: endpoint %v already open", id)
	}
	ep := &loopEndpoint{net: n, id: id}
	n.eps[id] = ep
	n.order = append(n.order, id)
	return ep, nil
}

// SetLink overrides the fault model of one directed link. Only tests call
// it today; it is the per-link event that the fault-schedule fuzzer
// planned in ROADMAP item 8 decodes drops and latencies into.
func (n *LoopbackNet) SetLink(from, to ids.NodeID, lc LinkConfig) {
	n.links[linkKey{from, to}] = lc
}

// SetPartition installs a partition: envelopes between nodes in different
// groups are dropped at send time. Nodes absent from the map are in group
// 0. A nil map heals the network. Call from the driver between runs or
// from an At control event.
func (n *LoopbackNet) SetPartition(groups map[ids.NodeID]int) {
	if groups == nil {
		n.groups = nil
		return
	}
	cp := make(map[ids.NodeID]int, len(groups))
	for id, g := range groups {
		cp[id] = g
	}
	n.groups = cp
}

// At schedules fn to run on the scheduler goroutine at the given tick,
// after that tick's deliveries and before its timers — the fault-injection
// hook (partition, heal, link changes).
func (n *LoopbackNet) At(tick int64, fn func()) {
	if n.closed {
		return
	}
	if tick < n.now {
		tick = n.now
	}
	n.push(event{due: tick, class: classControl, fn: fn})
}

// Now returns the current virtual time.
func (n *LoopbackNet) Now() int64 { return n.now }

// Stats returns the transport counters.
func (n *LoopbackNet) Stats() NetStats { return n.stats }

// push stamps and enqueues an event.
func (n *LoopbackNet) push(e event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.events, e)
}

// Run executes the scheduler until the network is quiescent: no runnable
// goroutine and no pending event. Goroutines parked in Recv (idle readers)
// do not block quiescence — Await and SleepUntil always carry timers, so
// they resolve before Run returns.
func (n *LoopbackNet) Run() {
	if n.running {
		panic("nownet: Run is not reentrant")
	}
	n.running = true
	defer func() { n.running = false }()
	for {
		if len(n.runq) > 0 {
			n.runOne()
			continue
		}
		if n.events.Len() > 0 {
			e := heap.Pop(&n.events).(event)
			if e.due > n.now {
				n.now = e.due
			}
			n.handle(e)
			continue
		}
		return
	}
}

// runOne resumes the front runnable goroutine and waits for it to park or
// finish.
func (n *LoopbackNet) runOne() {
	p := n.runq[0]
	n.runq = n.runq[:copy(n.runq, n.runq[1:])]
	p.state = stateRunning
	n.current = p
	p.resume <- struct{}{}
	<-n.floor
	n.current = nil
	if p.state == stateDone {
		n.live--
	}
}

// handle applies one event.
func (n *LoopbackNet) handle(e event) {
	switch e.class {
	case classDeliver:
		env, _, err := DecodeEnvelope(e.wire)
		if err != nil {
			// Send validated the encoding; a decode failure here is a
			// codec bug, not a runtime condition.
			panic(fmt.Sprintf("nownet: undecodable envelope in transit: %v", err))
		}
		dst, ok := n.eps[env.To]
		if !ok || dst.closed {
			n.stats.DroppedUnknown++
			return
		}
		dst.inbox = append(dst.inbox, env)
		n.stats.Delivered++
		if dst.reader != nil {
			n.ready(dst.reader)
			dst.reader = nil
		}
	case classControl:
		e.fn()
	case classTimer:
		if e.p.state == stateParked && e.p.gen == e.gen {
			n.ready(e.p)
		}
	}
}

// ready moves a parked goroutine to the runnable queue.
func (n *LoopbackNet) ready(p *parker) {
	if p.state != stateParked {
		return
	}
	p.state = stateRunnable
	p.gen++ // invalidate the park session's timer, if it hasn't fired
	n.runq = append(n.runq, p)
}

// parkCurrent suspends the floor-holding goroutine until ready() wakes it.
// deadline >= 0 also arms a timer for this park session.
func (n *LoopbackNet) parkCurrent(deadline int64) {
	p := n.current
	p.state = stateParked
	p.gen++
	if deadline >= 0 {
		due := deadline
		if due < n.now {
			due = n.now
		}
		n.push(event{due: due, class: classTimer, p: p, gen: p.gen})
	}
	n.floor <- struct{}{}
	<-p.resume
}

// mustCurrent asserts the caller is a hosted goroutine holding the floor.
func (n *LoopbackNet) mustCurrent(op string) *parker {
	if n.current == nil {
		panic(fmt.Sprintf("nownet: %s called from a goroutine not started via Endpoint.Go", op))
	}
	return n.current
}

// spawn registers fn as a hosted goroutine, runnable on the next Run.
func (n *LoopbackNet) spawn(fn func()) {
	p := &parker{resume: make(chan struct{}), state: stateRunnable}
	n.live++
	n.runq = append(n.runq, p)
	go func() {
		<-p.resume
		fn()
		p.state = stateDone
		n.floor <- struct{}{}
	}()
}

// Close implements Transport: wakes every parked goroutine with a closed
// indication, discards pending events, and waits for all hosted goroutines
// to finish. Call after Run has returned.
func (n *LoopbackNet) Close() {
	if n.closed {
		return
	}
	if n.running {
		panic("nownet: Close during Run")
	}
	n.closed = true
	for _, id := range n.order {
		ep := n.eps[id]
		ep.closed = true
		if ep.reader != nil {
			n.ready(ep.reader)
			ep.reader = nil
		}
	}
	// Goroutines parked in Await or SleepUntil are reachable through
	// their armed timers.
	for _, e := range n.events {
		if e.class == classTimer && e.p != nil && e.p.gen == e.gen {
			n.ready(e.p)
		}
	}
	n.events = nil
	for n.live > 0 {
		if len(n.runq) == 0 {
			panic("nownet: Close: live goroutines but nothing runnable")
		}
		n.runOne()
	}
}

// linkFor resolves a directed link's fault model.
func (n *LoopbackNet) linkFor(from, to ids.NodeID) LinkConfig {
	if lc, ok := n.links[linkKey{from, to}]; ok {
		return lc
	}
	return n.cfg.Link
}

// streamFor returns the link's fault stream, derived as a pure function of
// the seed and the directed pair so lazy creation order is irrelevant.
func (n *LoopbackNet) streamFor(from, to ids.NodeID) *xrand.Rand {
	key := linkKey{from, to}
	st, ok := n.streams[key]
	if !ok {
		st = xrand.Derive(n.cfg.Seed, uint64(from), uint64(to))
		n.streams[key] = st
	}
	return st
}

// loopEndpoint is one node's attachment to a LoopbackNet.
type loopEndpoint struct {
	net    *LoopbackNet
	id     ids.NodeID
	inbox  []Envelope
	reader *parker // goroutine parked in Recv, nil when none
	closed bool
}

// ID implements Endpoint.
func (ep *loopEndpoint) ID() ids.NodeID { return ep.id }

// Now implements Endpoint.
func (ep *loopEndpoint) Now() int64 { return ep.net.now }

// Go implements Endpoint.
func (ep *loopEndpoint) Go(fn func()) { ep.net.spawn(fn) }

// Send implements Endpoint: fault draws happen here, at send time, so the
// active partition and link model at the moment of sending decide the
// envelope's fate.
func (ep *loopEndpoint) Send(env Envelope) error {
	n := ep.net
	if n.closed || ep.closed {
		return ErrClosed
	}
	if env.From != ep.id {
		return fmt.Errorf("nownet: endpoint %v cannot send as %v (links are authenticated)", ep.id, env.From)
	}
	wire, err := env.Encode(nil)
	if err != nil {
		return err
	}
	n.stats.Sent++
	if n.groups != nil && n.groups[env.From] != n.groups[env.To] {
		n.stats.DroppedPartition++
		return nil
	}
	if _, ok := n.eps[env.To]; !ok {
		n.stats.DroppedUnknown++
		return nil
	}
	lc := n.linkFor(env.From, env.To)
	lat := lc.Latency
	if lat < 1 {
		lat = 1
	}
	if lc.Drop > 0 || lc.Jitter > 0 {
		st := n.streamFor(env.From, env.To)
		if lc.Drop > 0 && st.Bool(lc.Drop) {
			n.stats.DroppedRandom++
			return nil
		}
		if lc.Jitter > 0 {
			lat += int64(st.Intn(int(lc.Jitter) + 1))
		}
	}
	n.push(event{due: n.now + lat, class: classDeliver, wire: wire})
	return nil
}

// Recv implements Endpoint.
func (ep *loopEndpoint) Recv() (Envelope, bool) {
	n := ep.net
	for {
		if len(ep.inbox) > 0 {
			env := ep.inbox[0]
			ep.inbox = ep.inbox[:copy(ep.inbox, ep.inbox[1:])]
			return env, true
		}
		if n.closed || ep.closed {
			return Envelope{}, false
		}
		ep.reader = n.mustCurrent("Recv")
		n.parkCurrent(-1)
	}
}

// Await implements Endpoint.
func (ep *loopEndpoint) Await(w *Waiter, deadline int64) (Envelope, bool) {
	n := ep.net
	if env, ok := w.take(); ok {
		return env, true
	}
	if n.closed || ep.closed {
		return Envelope{}, false
	}
	n.mustCurrent("Await")
	w.park = n.current
	n.parkCurrent(deadline)
	w.park = nil
	return w.take()
}

// Wake implements Endpoint.
func (ep *loopEndpoint) Wake(w *Waiter) {
	if p, ok := w.park.(*parker); ok && p != nil {
		ep.net.ready(p)
	}
}

// SleepUntil implements Endpoint.
func (ep *loopEndpoint) SleepUntil(tick int64) {
	n := ep.net
	if n.closed || ep.closed || tick <= n.now {
		return
	}
	n.mustCurrent("SleepUntil")
	n.parkCurrent(tick)
}
