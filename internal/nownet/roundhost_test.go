package nownet

import (
	"bytes"
	"slices"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

// wireCommitteeProcs is the wire_tcp benchmark's committee: n = 5, t = 1,
// member 2 lies, every honest input is 1, run for the protocol's rounds
// plus the decision round.
func wireCommitteeProcs(t testing.TB) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.PhaseKingNode, int) {
	procs, honest := buildPhaseKingProcs(t, 5, 1, 2, []int64{1, 1, 1, 1, 1})
	return procs, honest, 2*(1+1) + 1
}

// TestHostStatsUnderFaults pins every host, node and transport counter of
// the wire_tcp committee run in ModeReliable on a loopback net with three
// kinds of fault and a rogue endpoint:
//
//   - node 1's envelopes to node 0 (its votes, and its acks of node 0's
//     requests) are dropped half the time, so node 0 retransmits and node
//     1 dedupes the copies whose ack was lost;
//   - node 3's envelopes to node 4 take 70 ticks, more than a 64-tick
//     round: every one arrives after node 4 has collected the round it
//     belongs to (stale), every request of node 3 to node 4 exhausts its
//     retries (undelivered), and node 4 dedupes the retransmissions;
//   - a rogue node 9 casts round frames that do not decode (malformed).
//
// The loopback schedule is a pure function of the seed, so every counter
// is exact. The values were recorded with a Go map as the dedupe, so they
// also pin the table's decisions to the map's.
func TestHostStatsUnderFaults(t *testing.T) {
	procs, honest, rounds := wireCommitteeProcs(t)
	net := NewLoopback(Config{Seed: 5, Link: LinkConfig{Latency: 1}})
	defer net.Close()
	net.SetLink(1, 0, LinkConfig{Latency: 1, Drop: 0.5})
	net.SetLink(3, 4, LinkConfig{Latency: 70})
	cluster, err := NewCluster(net, procs, HostConfig{
		Rounds:     rounds,
		RoundTicks: 64,
		Mode:       ModeReliable,
		Policy:     RetryPolicy{Timeout: 4, Retries: 3, Backoff: 2, Cap: 16},
		Class:      metrics.ClassAgreement,
	})
	if err != nil {
		t.Fatal(err)
	}
	rogue := NewNode(openOrFatal(t, net, 9))
	malformed := [][]byte{
		{0, 0, 0},             // shorter than round and tag
		{0, 0, 0, 1, 99},      // unknown payload tag
		{0, 0, 0, 1, 1, 1, 2}, // commit body of 2 bytes, not 8
		{0, 0, 0, 1, 4, 250, 0, 0, 0, 0, 0, 0, 0, 0}, // pkValue of unknown kind 250
		{0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0},      // reveal body of 8 bytes, not 16
	}
	rogue.Go(func() {
		for i, f := range malformed {
			_ = rogue.Cast(ids.NodeID(i%5), TypeRound, f)
		}
	})
	cluster.Start()
	net.Run()

	ns, hs := cluster.Stats()
	if want := (HostStats{Emitted: 48, Undelivered: 5, Duplicates: 13, Stale: 2, Malformed: 5}); hs != want {
		t.Errorf("host stats %+v, want %+v", hs, want)
	}
	if want := (NodeStats{Requests: 48, Retries: 18, Timeouts: 23, Failed: 5, Responses: 60, LateResponses: 16}); ns != want {
		t.Errorf("node stats %+v, want %+v", ns, want)
	}
	if want := (NetStats{Sent: 131, Delivered: 124, DroppedRandom: 7}); net.Stats() != want {
		t.Errorf("net stats %+v, want %+v", net.Stats(), want)
	}
	if rs := rogue.Stats(); rs.Casts != int64(len(malformed)) {
		t.Errorf("rogue stats %+v, want %d casts", rs, len(malformed))
	}
	led := cluster.Ledger()
	if got := led.MessagesBy(metrics.ClassAgreement); got != hs.Emitted {
		t.Errorf("agreement charges %d, want one per emission (%d)", got, hs.Emitted)
	}
	if got, want := led.MessagesBy(metrics.ClassTransport), ns.Responses+ns.Retries; got != want {
		t.Errorf("transport charges %d, want acks + retransmissions = %d", got, want)
	}
	for id, h := range honest {
		if v, ok := h.Decision(); !ok || v != 1 {
			t.Errorf("honest member %v decided (%d, %v), want (1, true)", id, v, ok)
		}
	}
}

// newBareHost is a ModeReliable host on node 0 of a fresh loopback net,
// for driving onRound directly: its acks go to unopened endpoints and are
// dropped.
func newBareHost(t testing.TB) (*RoundHost, *Node) {
	t.Helper()
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	t.Cleanup(net.Close)
	ep, err := net.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep)
	return NewRoundHost(node, HostConfig{Proc: runtime.SilentNode{}, Rounds: 1, Mode: ModeReliable}, nil), node
}

// TestRoundHostDedupMatchesMap drives a host with random request arrivals
// whose MsgIDs repeat within a round and across rounds, and checks every
// decision against a map keyed on (From, MsgID) alone: the first copy of a
// key is queued, with its own round and payload, and every later copy is
// a duplicate whatever round its frame names.
func TestRoundHostDedupMatchesMap(t *testing.T) {
	h, node := newBareHost(t)
	r := xrand.New(7)
	first := make(map[dedupKey]int)
	var order []int // arrival index of each queued message
	for i := 0; i < 4000; i++ {
		from := ids.NodeID(1 + r.Intn(6))
		msgID := uint64(r.Intn(96))
		if i%500 == 0 {
			msgID = r.Uint64() // now and then a key far from the others
		}
		frame, err := appendRoundFrame(nil, r.Intn(8), runtime.NewToken(uint64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		h.onRound(node, Envelope{Kind: KindRequest, Type: TypeRound, From: from, To: 0, MsgID: msgID, Payload: frame})
		k := dedupKey{from: from, msgID: msgID}
		if _, dup := first[k]; !dup {
			first[k] = i
			order = append(order, i)
		}
		if got, want := h.stats.Duplicates, int64(i+1-len(order)); got != want {
			t.Fatalf("arrival %d (%+v): %d duplicates, want %d", i, k, got, want)
		}
		if len(h.pending) != len(order) {
			t.Fatalf("arrival %d (%+v): %d queued, want %d", i, k, len(h.pending), len(order))
		}
	}
	for j, m := range h.pending {
		if want := runtime.NewToken(uint64(order[j]), 0); m.Payload != want {
			t.Fatalf("queued message %d is %#v, want the first copy %#v", j, m.Payload, want)
		}
	}
}

// TestCollectKeepsInboxApart: the inbox collect returns holds exactly the
// previous round's messages, a message for a later round (from a peer
// ahead of us) waits for its own round, and an arrival queued while Step
// reads the inbox, as the TCP reader may queue one, leaves it untouched.
func TestCollectKeepsInboxApart(t *testing.T) {
	h, node := newBareHost(t)
	arrive := func(round int, walkID uint64) {
		frame, err := appendRoundFrame(nil, round, runtime.NewToken(walkID, 0))
		if err != nil {
			t.Fatal(err)
		}
		h.onRound(node, Envelope{Kind: KindRequest, Type: TypeRound, From: 1, To: 0, MsgID: walkID, Payload: frame})
	}
	payloads := func(inbox []runtime.Message) []any {
		var got []any
		for _, m := range inbox {
			got = append(got, m.Payload)
		}
		return got
	}
	arrive(1, 11)
	arrive(0, 1)
	arrive(0, 2)
	inbox := h.collect(1)
	arrive(1, 12)
	if got, want := payloads(inbox), []any{runtime.NewToken(1, 0), runtime.NewToken(2, 0)}; !slices.Equal(got, want) {
		t.Errorf("round 1 inbox %v, want %v", got, want)
	}
	if got, want := payloads(h.collect(2)), []any{runtime.NewToken(11, 0), runtime.NewToken(12, 0)}; !slices.Equal(got, want) {
		t.Errorf("round 2 inbox %v, want %v", got, want)
	}
	if h.stats.Stale != 0 {
		t.Errorf("%d stale, want none", h.stats.Stale)
	}
}

// FuzzRoundFrame feeds arbitrary bytes to decodeRoundFrame and onRound:
// nothing panics, a frame is malformed exactly when it does not decode, a
// frame that decodes re-encodes to the same bytes, and every arrival is
// counted once, as malformed, duplicate or queued.
func FuzzRoundFrame(f *testing.F) {
	frame, err := appendRoundFrame(nil, 3, runtime.NewToken(77, 1000))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame, uint64(1), false)
	f.Add([]byte{0, 0, 0, 1, 4, 1, 0, 0, 0, 0, 0, 0, 0, 7}, uint64(9), true)
	f.Add([]byte{0, 0, 0, 1, 4, 250, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(0), false)
	f.Add([]byte{0, 0, 0}, uint64(2), true)
	f.Add([]byte{}, uint64(0), false)
	f.Fuzz(func(t *testing.T, frame []byte, msgID uint64, oneway bool) {
		h, node := newBareHost(t)
		round, payload, err := decodeRoundFrame(frame)
		if err == nil {
			again, err := appendRoundFrame(nil, round, payload)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("frame % x decoded to (%d, %#v) and re-encoded to (% x, %v)", frame, round, payload, again, err)
			}
		}
		env := Envelope{Kind: KindRequest, Type: TypeRound, From: 1, To: 0, MsgID: msgID, Payload: frame}
		if oneway {
			env.Kind = KindOneway
		}
		for arrival := int64(1); arrival <= 3; arrival++ {
			h.onRound(node, env)
			s := h.stats
			if got := s.Malformed + s.Duplicates + int64(len(h.pending)); got != arrival {
				t.Fatalf("after %d arrivals: malformed %d + duplicates %d + queued %d = %d", arrival, s.Malformed, s.Duplicates, len(h.pending), got)
			}
			switch {
			case err != nil:
				if s.Malformed != arrival {
					t.Fatalf("undecodable frame % x counted %d malformed after %d arrivals", frame, s.Malformed, arrival)
				}
			case oneway:
				if len(h.pending) != int(arrival) {
					t.Fatalf("oneway frame queued %d times after %d arrivals", len(h.pending), arrival)
				}
			case len(h.pending) != 1:
				t.Fatalf("request copies queued %d times after %d arrivals, want once", len(h.pending), arrival)
			}
		}
		if err == nil && (h.pending[0].Round != round || h.pending[0].Payload != payload) {
			t.Fatalf("queued %+v, want round %d payload %#v", h.pending[0], round, payload)
		}
	})
}

// BenchmarkRoundHostDecision is one wire_tcp committee decision per op
// (n = 5, t = 1, member 2 lies, ModeReliable, five rounds) on a lossless
// loopback net. As in the wire_tcp benchmark the transport and nodes are
// kept, and every decision builds its five processes and round hosts. What
// a decision allocates beyond that state is the payload copies and values
// it delivers, the goroutines it starts, and the loopback net's encoding
// of each envelope and boxing of each scheduled event.
func BenchmarkRoundHostDecision(b *testing.B) {
	net := NewLoopback(Config{Seed: 1, Link: LinkConfig{Latency: 1}})
	defer net.Close()
	nodes := make([]*Node, 5)
	for i := range nodes {
		ep, err := net.Open(ids.NodeID(i))
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = NewNode(ep)
	}
	decide := func() {
		procs, honest, rounds := wireCommitteeProcs(b)
		hosts := make([]*RoundHost, len(nodes))
		for i, node := range nodes {
			hosts[i] = NewRoundHost(node, HostConfig{
				Proc:       procs[node.ID()],
				Rounds:     rounds,
				RoundTicks: 100,
				Mode:       ModeReliable,
				Policy:     RetryPolicy{Timeout: 25, Retries: 3, Backoff: 2, Cap: 100},
				Class:      metrics.ClassAgreement,
			}, nil)
		}
		for _, h := range hosts {
			h.Start()
		}
		net.Run()
		for id, h := range honest {
			if v, ok := h.Decision(); !ok || v != 1 {
				b.Fatalf("honest member %v decided (%d, %v), want (1, true)", id, v, ok)
			}
		}
	}
	decide() // starts the node readers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}
