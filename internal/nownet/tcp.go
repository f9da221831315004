package nownet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"nowover/internal/ids"
)

// TCPTransport is the wall-clock half of nownet: the same
// Transport/Endpoint contract as LoopbackNet, over real sockets. It is
// the gateway to everything the virtual-time scheduler cannot express —
// asynchrony, clock skew, kernel buffering, real stacks — and therefore
// intentionally nondeterministic: goroutines are scheduled by the Go
// runtime, time is the wall clock quantized into ticks, and delivery
// order is whatever TCP produces. Every site that reads the clock below
// carries a written //nowlint justification; the package's determinism
// oracle (sim-vs-runtime byte equality) applies to the loopback half
// only, and nothing here feeds a simulation table.
//
// Wire format: envelopes cross a connection back to back in their Encode
// framing; the receiving side reframes with StreamDecoder, so a torn or
// corrupted prefix degrades into counted resync bytes, never a wedged
// connection.
//
// Connection management: one outbound connection per destination node,
// dialed on demand at first send and serialized per peer. A send onto a
// connection the peer has torn down (daemon restart) reconnects once and
// rewrites; a second failure loses the envelope — exactly a real
// network's contract — and Node.Request's retry/backoff owns recovery.
// Inbound connections are accepted independently and only ever read;
// envelopes are routed to the local endpoint addressed by To.
type TCPTransport struct {
	cfg   TCPConfig
	start time.Time
	ln    net.Listener
	done  chan struct{}

	hostWG sync.WaitGroup // goroutines started via Endpoint.Go
	connWG sync.WaitGroup // accept loop and per-connection readers

	mu      sync.Mutex
	eps     map[ids.NodeID]*tcpEndpoint
	peers   map[ids.NodeID]string
	conns   map[ids.NodeID]*tcpConn
	inbound []net.Conn
	stats   TCPStats
	closed  bool
}

// TCPConfig shapes a TCP transport.
type TCPConfig struct {
	// Listen is the address to bind, e.g. "127.0.0.1:0" (the default).
	Listen string
	// Tick is the wall-clock duration of one transport tick — the unit
	// behind Now, Await deadlines and SleepUntil. Default 1ms, so default
	// RetryPolicy windows mean milliseconds here and virtual ticks on the
	// loopback net.
	Tick time.Duration
	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// InboxDepth is the per-endpoint receive buffer in envelopes. When an
	// inbox is full the connection reader blocks, pushing backpressure
	// into TCP itself. Default 1024.
	InboxDepth int
}

// TCPStats counts transport-level outcomes. Snapshot via Stats; all
// fields only ever increase.
type TCPStats struct {
	Dials          int64 // successful first dials to a peer address
	Redials        int64 // reconnect attempts after a dead connection
	Accepts        int64 // inbound connections accepted
	Sent           int64 // envelopes handed to a connection write, once each even if rewritten after a redial
	Delivered      int64 // envelopes routed into a local endpoint inbox
	DroppedNoRoute int64 // sends to a node with no known address
	DroppedUnknown int64 // arrivals addressed to no local endpoint
	WriteErrors    int64 // envelopes lost to a dial or write error
	ResyncBytes    int64 // garbage bytes skipped by stream reframing
}

// withDefaults resolves zero fields.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 1024
	}
	return c
}

// tcpConn serializes writes (and the dial that precedes the first one)
// to one destination node. wire is the encode buffer every send to that
// node reuses under mu, so a warm connection sends without allocating.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	wire []byte
}

// NewTCP binds the listener and starts the accept loop. Register peer
// addresses with SetPeer, attach nodes with Open.
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("nownet: tcp listen %s: %w", cfg.Listen, err)
	}
	t := &TCPTransport{
		cfg: cfg,
		//nowlint:rng the tick epoch of the wall-clock transport half; tick values pace socket timeouts and never reach a simulation table
		start: time.Now(),
		ln:    ln,
		done:  make(chan struct{}),
		eps:   make(map[ids.NodeID]*tcpEndpoint),
		peers: make(map[ids.NodeID]string),
		conns: make(map[ids.NodeID]*tcpConn),
	}
	t.connWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) the dial address for a node. Safe to
// call while traffic is flowing; the next (re)dial uses the new address.
func (t *TCPTransport) SetPeer(id ids.NodeID, addr string) {
	t.mu.Lock()
	t.peers[id] = addr
	t.mu.Unlock()
}

// Stats snapshots the transport counters.
func (t *TCPTransport) Stats() TCPStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Open implements Transport.
func (t *TCPTransport) Open(id ids.NodeID) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, dup := t.eps[id]; dup {
		return nil, fmt.Errorf("nownet: endpoint %v already open", id)
	}
	ep := &tcpEndpoint{t: t, id: id, inbox: make(chan Envelope, t.cfg.InboxDepth)}
	t.eps[id] = ep
	return ep, nil
}

// Close implements Transport: stops accepting, tears down every
// connection, and waits for connection readers and hosted goroutines to
// drain. Blocked endpoint calls (Recv, Await, SleepUntil) unblock with a
// closed indication.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	inbound := t.inbound
	t.inbound = nil
	outbound := make([]*tcpConn, 0, len(t.conns))
	//nowlint:ordered teardown: every collected conn is closed unconditionally, so the close order of dead sockets is unobservable
	for _, pc := range t.conns {
		outbound = append(outbound, pc)
	}
	t.mu.Unlock()

	close(t.done)
	t.ln.Close()
	for _, pc := range outbound {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.connWG.Wait()
	t.hostWG.Wait()
}

// nowTick converts elapsed wall-clock time into ticks.
func (t *TCPTransport) nowTick() int64 {
	//nowlint:rng the wall-clock transport's clock read: ticks here time out socket requests and pace daemon rounds, and never feed a simulation table
	return int64(time.Since(t.start) / t.cfg.Tick)
}

// untilTick converts an absolute tick deadline into a wall-clock wait.
func (t *TCPTransport) untilTick(tick int64) time.Duration {
	d := time.Duration(tick-t.nowTick()) * t.cfg.Tick
	if d < 0 {
		d = 0
	}
	return d
}

// bumpStat applies a counter update under the lock.
func (t *TCPTransport) bumpStat(f func(*TCPStats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// acceptLoop admits inbound connections until the listener closes.
func (t *TCPTransport) acceptLoop() {
	defer t.connWG.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.inbound = append(t.inbound, c)
		t.stats.Accepts++
		t.mu.Unlock()
		t.connWG.Add(1)
		go t.readConn(c)
	}
}

// readConn reframes envelopes off one inbound stream and routes each to
// the local endpoint it addresses. Any terminal stream error — peer
// hangup, reset, our own Close — simply ends the connection; the peer
// re-dials on demand.
func (t *TCPTransport) readConn(c net.Conn) {
	defer t.connWG.Done()
	defer c.Close()
	dec := NewStreamDecoder(c)
	var seenSkipped int64
	for {
		env, err := dec.Next()
		if skipped := dec.Skipped(); skipped != seenSkipped {
			delta := skipped - seenSkipped
			seenSkipped = skipped
			t.bumpStat(func(s *TCPStats) { s.ResyncBytes += delta })
		}
		if err != nil {
			return
		}
		t.deliver(env)
	}
}

// deliver routes one arrived envelope into its endpoint's inbox. A full
// inbox blocks the connection reader — backpressure flows into TCP — and
// Close unblocks it.
func (t *TCPTransport) deliver(env Envelope) {
	t.mu.Lock()
	ep := t.eps[env.To]
	if ep == nil {
		t.stats.DroppedUnknown++
		t.mu.Unlock()
		return
	}
	t.stats.Delivered++
	t.mu.Unlock()
	select {
	case ep.inbox <- env:
	case <-t.done:
	}
}

// send writes one envelope to its destination's connection, dialing on
// demand and reconnecting once over a dead connection. Losing an
// envelope (no route, unreachable peer, write error after reconnect)
// returns nil, mirroring the loopback net: transports lose messages
// silently and the node runtime's retries own recovery.
func (t *TCPTransport) send(env Envelope) error {
	if err := env.validate(); err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	addr, routed := t.peers[env.To]
	if !routed {
		t.stats.DroppedNoRoute++
		t.mu.Unlock()
		return nil
	}
	pc := t.conns[env.To]
	if pc == nil {
		pc = &tcpConn{}
		t.conns[env.To] = pc
	}
	t.mu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil && !t.dial(pc, addr, false) {
		t.bumpStat(func(s *TCPStats) { s.WriteErrors++ })
		return nil
	}
	t.bumpStat(func(s *TCPStats) { s.Sent++ })
	pc.wire = env.appendWire(pc.wire[:0])
	if _, err := pc.conn.Write(pc.wire); err == nil {
		return nil
	}
	// The connection went stale — peer restarted, socket reset. Reconnect
	// once and rewrite; envelopes written into the dead socket before the
	// error surfaced are already lost, like any network loss.
	pc.conn.Close()
	pc.conn = nil
	if !t.dial(pc, addr, true) {
		t.bumpStat(func(s *TCPStats) { s.WriteErrors++ })
		return nil
	}
	if _, err := pc.conn.Write(pc.wire); err != nil {
		pc.conn.Close()
		pc.conn = nil
		t.bumpStat(func(s *TCPStats) { s.WriteErrors++ })
	}
	return nil
}

// dial attempts one connection to addr, recording it on pc. The caller
// holds pc.mu, so concurrent senders to the same peer wait rather than
// racing dials. Every redial attempt counts; a first dial counts only
// when it yields a connection.
func (t *TCPTransport) dial(pc *tcpConn, addr string, redial bool) bool {
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	t.mu.Lock()
	closed := t.closed
	if redial {
		t.stats.Redials++
	} else if err == nil && !closed {
		t.stats.Dials++
	}
	t.mu.Unlock()
	if err != nil {
		return false
	}
	if closed {
		c.Close()
		return false
	}
	pc.conn = c
	return true
}

// tcpEndpoint is one node's attachment to a TCPTransport.
type tcpEndpoint struct {
	t     *TCPTransport
	id    ids.NodeID
	inbox chan Envelope

	// sleep is SleepUntil's timer, made at the first sleep and reset for
	// every later one by whichever goroutine holds sleepMu.
	sleepMu sync.Mutex
	sleep   *time.Timer
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() ids.NodeID { return ep.id }

// Now implements Endpoint.
func (ep *tcpEndpoint) Now() int64 { return ep.t.nowTick() }

// Send implements Endpoint: it validates the authenticated From and hands
// the envelope to the connection layer.
func (ep *tcpEndpoint) Send(env Envelope) error {
	if env.From != ep.id {
		return fmt.Errorf("nownet: endpoint %v cannot send as %v (links are authenticated)", ep.id, env.From)
	}
	return ep.t.send(env)
}

// Recv implements Endpoint.
func (ep *tcpEndpoint) Recv() (Envelope, bool) {
	select {
	case env := <-ep.inbox:
		return env, true
	case <-ep.t.done:
		return Envelope{}, false
	}
}

// Await implements Endpoint: park on the waiter's own slot until the
// reader completes it or the wall-clock deadline passes. The deadline
// timer lives in the waiter's park field and is reset, not re-made, each
// time the waiter is awaited, so a recycled waiter brings its timer along.
func (ep *tcpEndpoint) Await(w *Waiter, deadline int64) (Envelope, bool) {
	if env, ok := w.take(); ok {
		return env, true
	}
	d := ep.t.untilTick(deadline)
	timer, _ := w.park.(*time.Timer)
	if timer == nil {
		//nowlint:rng wall-clock request timeout for the TCP half: the timer realizes the caller's RetryPolicy window in real time, nothing simulation-visible depends on it
		timer = time.NewTimer(d)
		w.park = timer
	} else {
		//nowlint:rng re-arms the waiter's own request timeout for the next RetryPolicy window; a wall-clock socket timeout that nothing simulation-visible reads
		timer.Reset(d)
	}
	select {
	case env := <-w.ch:
		stopTimer(timer)
		return env, true
	case <-timer.C:
		return w.take()
	case <-ep.t.done:
		stopTimer(timer)
		return w.take()
	}
}

// stopTimer stops a timer nobody has received from and drains a fire that
// beat the Stop, so the next Reset starts from an empty channel. go.mod's
// go 1.22 keeps the buffered pre-1.23 timer channel, where a stale fire
// would otherwise end the next Await at once; the drain does not block, so
// it is also correct under the 1.23 semantics.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Wake implements Endpoint. TCP waiters park on their own channel (Await
// selects on it directly), so completion is the wakeup and there is no
// scheduler handle to prod.
func (ep *tcpEndpoint) Wake(*Waiter) {}

// SleepUntil implements Endpoint. A round loop sleeps on the endpoint's
// one timer, reset for each round; a goroutine that finds another one
// sleeping on it makes a timer of its own.
func (ep *tcpEndpoint) SleepUntil(tick int64) {
	d := ep.t.untilTick(tick)
	if d <= 0 {
		return
	}
	if !ep.sleepMu.TryLock() {
		//nowlint:rng wall-clock round pacing for the TCP half: the timer spaces protocol rounds in real time, mirroring the loopback net's virtual timers
		timer := time.NewTimer(d)
		ep.sleepOn(timer)
		return
	}
	defer ep.sleepMu.Unlock()
	if ep.sleep == nil {
		//nowlint:rng wall-clock round pacing for the TCP half: the endpoint's round timer, made once, spaces protocol rounds in real time like the loopback net's virtual timers
		ep.sleep = time.NewTimer(d)
	} else {
		//nowlint:rng re-arms the endpoint's round timer for the next wall-clock round; nothing simulation-visible reads it
		ep.sleep.Reset(d)
	}
	ep.sleepOn(ep.sleep)
}

// sleepOn waits for an armed timer or the transport's close, and leaves
// the timer stopped with an empty channel either way, ready for Reset.
func (ep *tcpEndpoint) sleepOn(timer *time.Timer) {
	select {
	case <-timer.C:
	case <-ep.t.done:
		stopTimer(timer)
	}
}

// Go implements Endpoint: hosted goroutines run on the Go scheduler, and
// Close waits for them.
func (ep *tcpEndpoint) Go(fn func()) {
	ep.t.hostWG.Add(1)
	go func() {
		defer ep.t.hostWG.Done()
		fn()
	}()
}
