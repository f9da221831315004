package nownet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nowover/internal/ids"
	"nowover/internal/metrics"
)

// newTCPOrFatal builds a transport on an ephemeral localhost port.
func newTCPOrFatal(t testing.TB, cfg TCPConfig) *TCPTransport {
	t.Helper()
	tr, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestTCPRequestResponse(t *testing.T) {
	// Two transports, two processes, one request/response over real
	// sockets: client dials on demand, server's response dials back.
	a := newTCPOrFatal(t, TCPConfig{})
	b := newTCPOrFatal(t, TCPConfig{})
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	server := NewNode(openTCPOrFatal(t, b, 2))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		_ = n.Respond(env, env.Payload)
	})
	server.Start()
	client := NewNode(openTCPOrFatal(t, a, 1))
	client.Start()

	resp, attempts, err := client.Request(2, typEcho, []byte("ping"), RetryPolicy{Timeout: 2000, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "ping" || resp.From != 2 || attempts != 1 {
		t.Errorf("resp = %+v attempts = %d", resp, attempts)
	}
	as, bs := a.Stats(), b.Stats()
	if as.Dials != 1 || as.Sent != 1 || as.Delivered != 1 {
		t.Errorf("client transport stats = %+v", as)
	}
	if bs.Accepts != 1 || bs.Dials != 1 || bs.Delivered != 1 {
		t.Errorf("server transport stats = %+v", bs)
	}
}

func openTCPOrFatal(t testing.TB, tr *TCPTransport, id ids.NodeID) Endpoint {
	t.Helper()
	ep, err := tr.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	// The reconnect path: the server's transport dies and a replacement
	// comes up on a fresh address. The client's first write after the
	// restart either fails immediately (reconnect inside the same send) or
	// vanishes into the dead socket's buffer (recovered by Request's
	// retry); either way the request must eventually succeed over a new
	// connection.
	a := newTCPOrFatal(t, TCPConfig{})
	b, err := NewTCP(TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	serverOn := func(tr *TCPTransport) {
		ep, err := tr.Open(2)
		if err != nil {
			t.Fatal(err)
		}
		s := NewNode(ep)
		s.Handle(typEcho, func(n *Node, env Envelope) { _ = n.Respond(env, env.Payload) })
		s.Start()
	}
	serverOn(b)
	client := NewNode(openTCPOrFatal(t, a, 1))
	client.Start()
	if _, _, err := client.Request(2, typEcho, []byte("one"), RetryPolicy{Timeout: 2000, Retries: 2}); err != nil {
		t.Fatal(err)
	}

	b.Close()
	b2 := newTCPOrFatal(t, TCPConfig{})
	b2.SetPeer(1, a.Addr())
	serverOn(b2)
	a.SetPeer(2, b2.Addr())

	resp, _, err := client.Request(2, typEcho, []byte("two"), RetryPolicy{Timeout: 200, Retries: 6})
	if err != nil {
		t.Fatalf("request after peer restart: %v", err)
	}
	if string(resp.Payload) != "two" {
		t.Errorf("resp = %+v", resp)
	}
	if as := a.Stats(); as.Dials+as.Redials < 2 {
		t.Errorf("client transport stats = %+v, want a second (re)dial after restart", as)
	}
}

func TestTCPNoRouteBehavesLikeLoss(t *testing.T) {
	// A destination with no registered address is silent loss, mirroring
	// the loopback net's unknown-endpoint drop: Request times out and the
	// transport counts the unroutable sends.
	a := newTCPOrFatal(t, TCPConfig{})
	client := NewNode(openTCPOrFatal(t, a, 1))
	client.Start()
	_, attempts, err := client.Request(9, typEcho, nil, RetryPolicy{Timeout: 20, Retries: 1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if as := a.Stats(); as.DroppedNoRoute != 2 {
		t.Errorf("transport stats = %+v, want DroppedNoRoute 2", as)
	}
	if cs := client.Stats(); cs.Failed != 1 || cs.Timeouts != 2 {
		t.Errorf("client stats = %+v", cs)
	}
}

func TestTCPDialFailureIsCountedLoss(t *testing.T) {
	// An address nobody listens on: every attempt's dial fails, so no
	// connection is made and nothing is written. Each lost envelope counts
	// as a WriteError; Dials and Sent stay 0.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	a := newTCPOrFatal(t, TCPConfig{DialTimeout: time.Second})
	a.SetPeer(9, dead)
	client := NewNode(openTCPOrFatal(t, a, 1))
	client.Start()
	_, attempts, err := client.Request(9, typEcho, []byte("anyone?"), RetryPolicy{Timeout: 20, Retries: 2})
	if !errors.Is(err, ErrTimeout) || attempts != 3 {
		t.Fatalf("err = %v after %d attempts, want ErrTimeout after 3", err, attempts)
	}
	if as := a.Stats(); as.Dials != 0 || as.Sent != 0 || as.WriteErrors != 3 || as.Redials != 0 {
		t.Errorf("transport stats = %+v, want Dials 0 Sent 0 WriteErrors 3 Redials 0", as)
	}
}

func TestTCPConcurrentRequestsRecycleWaiters(t *testing.T) {
	// Many requesters on one node share its waiter free list, and every
	// third request's first answer is held back past the timeout, so
	// retries race late answers while waiters and their timers are reused.
	// Each requester must get exactly its own payload back.
	a := newTCPOrFatal(t, TCPConfig{})
	b := newTCPOrFatal(t, TCPConfig{})
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	held := make(map[uint64]bool) // touched only by the server's reader
	server := NewNode(openTCPOrFatal(t, b, 2))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		if env.MsgID%3 == 0 && !held[env.MsgID] {
			held[env.MsgID] = true
			n.Go(func() {
				time.Sleep(8 * time.Millisecond)
				_ = n.Respond(env, env.Payload)
			})
			return
		}
		_ = n.Respond(env, env.Payload)
	})
	server.Start()
	client := NewNode(openTCPOrFatal(t, a, 1))
	client.Start()

	const workers, each = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("%d/%d", g, i)
				resp, _, err := client.Request(2, typEcho, []byte(want), RetryPolicy{Timeout: 5, Retries: 8})
				if err != nil {
					t.Errorf("request %s: %v", want, err)
					return
				}
				if string(resp.Payload) != want {
					t.Errorf("request %s got %q", want, resp.Payload)
				}
			}
		}(g)
	}
	wg.Wait()
	if cs := client.Stats(); cs.Requests != workers*each || cs.Failed != 0 {
		t.Errorf("client stats = %+v", cs)
	}
}

// BenchmarkTCPRequestEcho is one Node.Request round trip per op between
// two transports on localhost, connections warm. What is left per op is
// the two payload copies the decoders hand out (request and response).
func BenchmarkTCPRequestEcho(b *testing.B) {
	a := newTCPOrFatal(b, TCPConfig{})
	s := newTCPOrFatal(b, TCPConfig{})
	a.SetPeer(2, s.Addr())
	s.SetPeer(1, a.Addr())
	server := NewNode(openTCPOrFatal(b, s, 2))
	server.Handle(typEcho, func(n *Node, env Envelope) { _ = n.Respond(env, env.Payload) })
	server.Start()
	client := NewNode(openTCPOrFatal(b, a, 1))
	client.Start()
	payload := []byte("phase-king vote")
	pol := RetryPolicy{Timeout: 2000, Retries: 2}
	if _, _, err := client.Request(2, typEcho, payload, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Request(2, typEcho, payload, pol); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTCPStreamResyncAndUnknownEndpoint(t *testing.T) {
	// A raw hostile connection: garbage bytes resync and are counted, a
	// well-formed frame addressed to nobody is dropped and counted, and a
	// well-formed frame to a real endpoint still gets through afterwards.
	b := newTCPOrFatal(t, TCPConfig{})
	got := make(chan Envelope, 1)
	server := NewNode(openTCPOrFatal(t, b, 2))
	server.Handle(typEcho, func(_ *Node, env Envelope) { got <- env })
	server.Start()

	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	garbage := []byte{0x01, 0x02, 0x03, 0x04}
	orphan, _ := Envelope{Kind: KindOneway, Type: typEcho, From: 7, To: 99, MsgID: 1}.Encode(nil)
	real, _ := Envelope{Kind: KindOneway, Type: typEcho, From: 7, To: 2, MsgID: 2, Payload: []byte("through")}.Encode(nil)
	var wire []byte
	wire = append(wire, garbage...)
	wire = append(wire, orphan...)
	wire = append(wire, real...)
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}

	select {
	case env := <-got:
		if string(env.Payload) != "through" {
			t.Errorf("delivered %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame after garbage never delivered")
	}
	waitFor(t, "resync and orphan counters", func() bool {
		s := b.Stats()
		return s.ResyncBytes == int64(len(garbage)) && s.DroppedUnknown == 1
	})
}

// TestTCPPhaseKingMatchesLoopback is the cross-transport oracle from the
// acceptance criteria: the same phase-king committee — five members, one
// scripted liar, unanimous honest inputs — runs once over the
// deterministic loopback net (lockstep mode) and once over TCP on
// localhost (reliable request/ack mode, real sockets, wall-clock rounds).
// The TCP run must decide with unanimous validity on exactly the
// decisions the loopback run produced.
func TestTCPPhaseKingMatchesLoopback(t *testing.T) {
	const n, tFaults, liar = 5, 1, 2
	inputs := []int64{1, 1, 0, 1, 1} // index 2 is the liar; honest inputs unanimous
	rounds := 2*(tFaults+1) + 1

	loopProcs, loopHonest := buildPhaseKingProcs(t, n, tFaults, liar, inputs)
	runOnLoopback(t, loopProcs, rounds, metrics.ClassAgreement)

	tcpProcs, tcpHonest := buildPhaseKingProcs(t, n, tFaults, liar, inputs)
	tr := newTCPOrFatal(t, TCPConfig{})
	for i := 0; i < n; i++ {
		tr.SetPeer(ids.NodeID(i), tr.Addr())
	}
	cluster, err := NewCluster(tr, tcpProcs, HostConfig{
		Rounds:     rounds,
		RoundTicks: 100, // 100ms rounds at the default 1ms tick
		Mode:       ModeReliable,
		Policy:     RetryPolicy{Timeout: 30, Retries: 3, Backoff: 2, Cap: 100},
		Class:      metrics.ClassAgreement,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	cluster.Wait()

	var first int64
	got := false
	for id, ln := range loopHonest {
		lv, lok := ln.Decision()
		tv, tok := tcpHonest[id].Decision()
		if !lok || !tok {
			t.Fatalf("node %v undecided: loopback %v tcp %v", id, lok, tok)
		}
		if lv != tv {
			t.Errorf("node %v decisions diverge: loopback %d tcp %d", id, lv, tv)
		}
		if tv != 1 {
			t.Errorf("node %v decided %d, validity violated (honest inputs unanimous 1)", id, tv)
		}
		if got && tv != first {
			t.Errorf("tcp disagreement at %v: %d vs %d", id, tv, first)
		}
		first, got = tv, true
	}
	// Every protocol message crossed a real socket: the transport must
	// have dialed itself and delivered the committee's traffic.
	s := tr.Stats()
	if s.Dials == 0 || s.Accepts == 0 || s.Delivered == 0 {
		t.Errorf("tcp run used no sockets: %+v", s)
	}
	ns, _ := cluster.Stats()
	if ns.ForgedResponses != 0 || ns.Misrouted != 0 {
		t.Errorf("clean localhost run counted forgeries or misroutes: %+v", ns)
	}
}

// TestTCPSleepUntilReusesTimer: a round loop's sleeps share the endpoint's
// one timer and allocate nothing once it exists; goroutines that sleep
// while another holds it get timers of their own, every sleeper wakes no
// earlier than its tick, and Close wakes a sleeper at once.
func TestTCPSleepUntilReusesTimer(t *testing.T) {
	tr := newTCPOrFatal(t, TCPConfig{})
	ep := openTCPOrFatal(t, tr, 1).(*tcpEndpoint)
	ep.SleepUntil(ep.Now() + 2)
	timer := ep.sleep
	if timer == nil {
		t.Fatal("a sleep made no endpoint timer")
	}
	if n := testing.AllocsPerRun(5, func() { ep.SleepUntil(ep.Now() + 2) }); n != 0 {
		t.Errorf("a warm sleep allocated %v times", n)
	}

	var wg sync.WaitGroup
	due := ep.Now() + 20
	woke := make([]int64, 3)
	for i := range woke {
		wg.Add(1)
		ep.Go(func() {
			defer wg.Done()
			ep.SleepUntil(due)
			woke[i] = ep.Now()
		})
	}
	wg.Wait()
	for i, tick := range woke {
		if tick < due {
			t.Errorf("sleeper %d woke at tick %d, before %d", i, tick, due)
		}
	}
	if ep.sleep != timer {
		t.Error("concurrent sleeps replaced the endpoint's timer")
	}

	slept := make(chan time.Duration, 1)
	ep.Go(func() {
		t0 := time.Now()
		ep.SleepUntil(ep.Now() + 60_000)
		slept <- time.Since(t0)
	})
	time.Sleep(5 * time.Millisecond)
	tr.Close()
	if d := <-slept; d > 10*time.Second {
		t.Errorf("Close woke a minute-long sleep only after %v", d)
	}
	if !ep.sleepMu.TryLock() {
		t.Error("a sleep woken by Close still holds the endpoint's timer")
	}
}
