package nownet

import (
	"errors"
	"sync"
	"testing"

	"nowover/internal/ids"
)

const typEcho byte = 7

// newEchoNode builds a started node whose typEcho handler echoes request
// payloads back.
func newEchoNode(t *testing.T, net *LoopbackNet, id ids.NodeID) *Node {
	t.Helper()
	n := NewNode(openOrFatal(t, net, id))
	n.Handle(typEcho, func(n *Node, env Envelope) {
		_ = n.Respond(env, env.Payload)
	})
	n.Start()
	return n
}

func TestNodeRequestResponse(t *testing.T) {
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	server := newEchoNode(t, net, 1)
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	var resp Envelope
	var attempts int
	var err error
	client.Go(func() {
		resp, attempts, err = client.Request(1, typEcho, []byte("ping"), RetryPolicy{})
	})
	net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
	if string(resp.Payload) != "ping" || resp.Kind != KindResponse || resp.From != 1 {
		t.Errorf("response = %+v", resp)
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.Requests != 1 || cs.Retries != 0 || cs.Timeouts != 0 || cs.Failed != 0 {
		t.Errorf("client stats = %+v", cs)
	}
	if ss.Responses != 1 {
		t.Errorf("server stats = %+v", ss)
	}
}

func TestNodeRequestTimesOut(t *testing.T) {
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	var attempts int
	var err error
	var doneAt int64
	pol := RetryPolicy{Timeout: 4, Retries: 2, Backoff: 2, Cap: 100}
	client.Go(func() {
		_, attempts, err = client.Request(99, typEcho, nil, pol) // no such peer
		doneAt = client.Endpoint().Now()
	})
	net.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", attempts)
	}
	// Windows 4, 8, 16: the request must give up exactly at tick 28.
	if doneAt != 28 {
		t.Errorf("gave up at tick %d, want 28 (4+8+16)", doneAt)
	}
	cs := client.Stats()
	if cs.Retries != 2 || cs.Timeouts != 3 || cs.Failed != 1 {
		t.Errorf("client stats = %+v", cs)
	}
}

func TestNodeBackoffCapped(t *testing.T) {
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	var doneAt int64
	pol := RetryPolicy{Timeout: 4, Retries: 3, Backoff: 4, Cap: 8}
	client.Go(func() {
		_, _, _ = client.Request(99, typEcho, nil, pol)
		doneAt = client.Endpoint().Now()
	})
	net.Run()
	// Windows 4, then 16 capped to 8, 8, 8: give up at 28, not 4+16+64+256.
	if doneAt != 28 {
		t.Errorf("gave up at tick %d, want 28 (4+8+8+8 capped)", doneAt)
	}
}

func TestNodeRetryRecoversDrop(t *testing.T) {
	// Drop every envelope on the request link until tick 6: the first
	// attempt dies, the retransmission gets through, and the receiver sees
	// the request exactly once (same MsgID both times).
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	var serverSeen []uint64
	server := NewNode(openOrFatal(t, net, 1))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		serverSeen = append(serverSeen, env.MsgID)
		_ = n.Respond(env, nil)
	})
	server.Start()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	net.SetLink(2, 1, LinkConfig{Latency: 1, Drop: 1.0})
	net.At(6, func() { net.SetLink(2, 1, LinkConfig{Latency: 1}) })
	var attempts int
	var err error
	client.Go(func() {
		_, attempts, err = client.Request(1, typEcho, nil, RetryPolicy{Timeout: 4, Retries: 3})
	})
	net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (first send was dropped)", attempts)
	}
	if len(serverSeen) != 1 {
		t.Errorf("server saw %d requests, want 1", len(serverSeen))
	}
	if cs := client.Stats(); cs.Retries == 0 {
		t.Errorf("client stats = %+v, want retries > 0", cs)
	}
}

func TestNodeLateResponseCounted(t *testing.T) {
	// The server answers after the client's whole retry span: the response
	// finds no parked waiter and must be counted, not delivered.
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	server := NewNode(openOrFatal(t, net, 1))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		n.Go(func() {
			n.Endpoint().SleepUntil(50)
			_ = n.Respond(env, nil)
		})
	})
	server.Start()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	var err error
	client.Go(func() {
		_, _, err = client.Request(1, typEcho, nil, RetryPolicy{Timeout: 4, Retries: 1})
	})
	net.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Two handler invocations (original + retransmission) each answer late.
	if cs := client.Stats(); cs.LateResponses != 2 {
		t.Errorf("client stats = %+v, want LateResponses 2", cs)
	}
}

func TestNodeLateResponseSkipsRecycledWaiter(t *testing.T) {
	// Request 1 to a slow server times out and its waiter goes back on the
	// free list; request 2 reuses it and is still parked when request 1's
	// response arrives. The stale response must be counted late, and
	// request 2 must get its own server's answer.
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	answerAt := func(id ids.NodeID, tick int64, payload string) {
		s := NewNode(openOrFatal(t, net, id))
		s.Handle(typEcho, func(n *Node, env Envelope) {
			n.Go(func() {
				n.Endpoint().SleepUntil(tick)
				_ = n.Respond(env, []byte(payload))
			})
		})
		s.Start()
	}
	answerAt(1, 20, "stale")
	answerAt(3, 40, "fresh")
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	var err1, err2 error
	var resp Envelope
	client.Go(func() {
		_, _, err1 = client.Request(1, typEcho, nil, RetryPolicy{Timeout: 4, Retries: 0})
		resp, _, err2 = client.Request(3, typEcho, nil, RetryPolicy{Timeout: 100, Retries: 0})
	})
	net.Run()
	if !errors.Is(err1, ErrTimeout) || err2 != nil {
		t.Fatalf("errs = %v, %v; want ErrTimeout, nil", err1, err2)
	}
	if string(resp.Payload) != "fresh" || resp.From != 3 {
		t.Errorf("second request got %+v, want server 3's answer", resp)
	}
	if cs := client.Stats(); cs.LateResponses != 1 {
		t.Errorf("client stats = %+v, want LateResponses 1", cs)
	}
	if len(client.free) != 1 {
		t.Errorf("free list holds %d waiters, want the one both requests shared", len(client.free))
	}
}

func TestNodeCastAndUnhandled(t *testing.T) {
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	var got []byte
	server := NewNode(openOrFatal(t, net, 1))
	server.Handle(typEcho, func(_ *Node, env Envelope) {
		got = append(got, env.Payload...)
	})
	server.Start()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	client.Go(func() {
		_ = client.Cast(1, typEcho, []byte("one"))
		_ = client.Cast(1, 42, []byte("no handler"))
	})
	net.Run()
	if string(got) != "one" {
		t.Errorf("handler got %q", got)
	}
	if ss := server.Stats(); ss.Unhandled != 1 {
		t.Errorf("server stats = %+v, want Unhandled 1", ss)
	}
	if cs := client.Stats(); cs.Casts != 2 {
		t.Errorf("client stats = %+v, want Casts 2", cs)
	}
}

func TestNodeForgedResponseDropped(t *testing.T) {
	// The response-forgery regression: a Byzantine third node that observes
	// (or, here, guesses — per-node MsgIDs start at 1) the MsgID of a
	// request addressed to someone else races a forged response against the
	// honest one. Links are authenticated, so the forgery necessarily
	// carries From=3; correlating by MsgID alone would deliver it anyway.
	// Pre-fix the forged payload won the race and Request returned it;
	// post-fix it is counted in ForgedResponses and the honest response,
	// arriving 19 ticks later, still completes the waiter.
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	server := NewNode(openOrFatal(t, net, 1))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		n.Go(func() {
			n.Endpoint().SleepUntil(20)
			_ = n.Respond(env, []byte("honest"))
		})
	})
	server.Start()
	byz := NewNode(openOrFatal(t, net, 3))
	byz.Start()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	byz.Go(func() {
		_ = byz.Endpoint().Send(Envelope{
			Kind: KindResponse, Type: typEcho,
			From: 3, To: 2, MsgID: 1, Payload: []byte("forged"),
		})
	})
	var resp Envelope
	var err error
	client.Go(func() {
		resp, _, err = client.Request(1, typEcho, []byte("ping"), RetryPolicy{Timeout: 64})
	})
	net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resp.From != 1 || string(resp.Payload) != "honest" {
		t.Fatalf("request completed by forged response: from %v payload %q", resp.From, resp.Payload)
	}
	cs := client.Stats()
	if cs.ForgedResponses != 1 {
		t.Errorf("client stats = %+v, want ForgedResponses 1", cs)
	}
	if cs.Failed != 0 || cs.LateResponses != 0 {
		t.Errorf("client stats = %+v, want no failures or late responses", cs)
	}
}

// scriptEndpoint is a minimal Endpoint for accounting paths the loopback
// net cannot reach by construction: transport send errors mid-retry, and
// misrouted deliveries from a transport with a bad peer table (loopback
// routes by To, so it never misdelivers).
type scriptEndpoint struct {
	id      ids.NodeID
	sendErr []error // result of the k-th Send; nil beyond the script
	sends   int
	inbox   chan Envelope
	wg      sync.WaitGroup
}

func newScriptEndpoint(id ids.NodeID, sendErr ...error) *scriptEndpoint {
	return &scriptEndpoint{id: id, sendErr: sendErr, inbox: make(chan Envelope, 16)}
}

func (s *scriptEndpoint) ID() ids.NodeID { return s.id }
func (s *scriptEndpoint) Send(env Envelope) error {
	var err error
	if s.sends < len(s.sendErr) {
		err = s.sendErr[s.sends]
	}
	s.sends++
	return err
}
func (s *scriptEndpoint) Recv() (Envelope, bool) {
	env, ok := <-s.inbox
	return env, ok
}
func (s *scriptEndpoint) Now() int64       { return 0 }
func (s *scriptEndpoint) SleepUntil(int64) {}

// Await times out immediately: the waiter's slot is all there is.
func (s *scriptEndpoint) Await(w *Waiter, _ int64) (Envelope, bool) { return w.take() }
func (s *scriptEndpoint) Wake(*Waiter)                              {}
func (s *scriptEndpoint) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

func TestNodeRequestSendErrorBumpsFailed(t *testing.T) {
	// The retry-accounting regression: a transport send error must count
	// the request as Failed on every exit path, not only on retry
	// exhaustion. Attempt 1 sends fine and times out; attempt 2's Send
	// errors — pre-fix that path returned with Failed still 0.
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		script   []error
		retries  int
		failedAt int
	}{
		{name: "first attempt", script: []error{errBoom}, retries: 3, failedAt: 1},
		{name: "retry attempt", script: []error{nil, errBoom}, retries: 3, failedAt: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := newScriptEndpoint(2, tc.script...)
			n := NewNode(ep)
			_, attempts, err := n.Request(1, typEcho, nil, RetryPolicy{Timeout: 4, Retries: tc.retries})
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want %v", err, errBoom)
			}
			if attempts != tc.failedAt {
				t.Errorf("attempts = %d, want %d", attempts, tc.failedAt)
			}
			if s := n.Stats(); s.Failed != 1 {
				t.Errorf("stats = %+v, want Failed 1", s)
			}
		})
	}
}

func TestNodeMisroutedDropped(t *testing.T) {
	// An envelope whose To is some other node must be dropped and counted,
	// never dispatched to a handler or matched against a waiter — on a real
	// transport it is another node's mail, misdelivered.
	ep := newScriptEndpoint(2)
	n := NewNode(ep)
	handled := 0
	n.Handle(typEcho, func(*Node, Envelope) { handled++ })
	n.Start()
	ep.inbox <- Envelope{Kind: KindOneway, Type: typEcho, From: 1, To: 3, MsgID: 9}
	ep.inbox <- Envelope{Kind: KindResponse, Type: typEcho, From: 1, To: 3, MsgID: 9}
	ep.inbox <- Envelope{Kind: KindOneway, Type: typEcho, From: 1, To: 2, MsgID: 10}
	close(ep.inbox)
	ep.wg.Wait()
	s := n.Stats()
	if s.Misrouted != 2 {
		t.Errorf("stats = %+v, want Misrouted 2", s)
	}
	if s.LateResponses != 0 || s.Unhandled != 0 {
		t.Errorf("stats = %+v: misrouted envelopes leaked into other counters", s)
	}
	if handled != 1 {
		t.Errorf("handler ran %d times, want 1 (only the correctly-addressed envelope)", handled)
	}
}

func TestNodeConcurrentRequests(t *testing.T) {
	// Two outstanding requests from the same node: responses come back in
	// reverse order and the inflight map must route each to its own waiter.
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	defer net.Close()
	server := NewNode(openOrFatal(t, net, 1))
	server.Handle(typEcho, func(n *Node, env Envelope) {
		delay := int64(10)
		if string(env.Payload) == "slow" {
			delay = 20
		}
		n.Go(func() {
			n.Endpoint().SleepUntil(n.Endpoint().Now() + delay)
			_ = n.Respond(env, env.Payload)
		})
	})
	server.Start()
	client := NewNode(openOrFatal(t, net, 2))
	client.Start()
	results := make(map[string]string)
	for _, name := range []string{"slow", "fast"} {
		name := name
		client.Go(func() {
			resp, _, err := client.Request(1, typEcho, []byte(name), RetryPolicy{Timeout: 64})
			if err != nil {
				t.Errorf("request %q: %v", name, err)
				return
			}
			results[name] = string(resp.Payload)
		})
	}
	net.Run()
	if results["slow"] != "slow" || results["fast"] != "fast" {
		t.Errorf("responses misrouted: %v", results)
	}
}
