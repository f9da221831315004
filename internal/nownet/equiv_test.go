package nownet

import (
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

// The sim-vs-runtime oracle: the same protocol processes, stepped by the
// lockstep Engine and by round hosts over the loopback transport under a
// fixed schedule (unit latency, no loss), must produce byte-identical
// traces — same messages, same order, same rounds — plus equal message
// counts, per-class ledger charges, and decisions. Builders construct the
// process set twice from identical seeds so the two runs are independent
// but deterministic.

// runOnEngine executes procs on the lockstep engine, returning the trace
// and a ledger charged one message of class per emission.
func runOnEngine(t *testing.T, procs map[ids.NodeID]runtime.Process, rounds int, class metrics.Class) (*Trace, *metrics.Ledger) {
	t.Helper()
	e := runtime.NewEngine(procs)
	defer e.Close()
	trace := NewTrace()
	var led metrics.Ledger
	e.Observe(func(round int, m runtime.Message) {
		trace.Record(round, m)
		led.Charge(class, 1)
	})
	if err := e.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	return trace, &led
}

// runOnLoopback executes procs as round hosts over a lossless unit-latency
// loopback network and returns the cluster after quiescence.
func runOnLoopback(t *testing.T, procs map[ids.NodeID]runtime.Process, rounds int, class metrics.Class) *Cluster {
	t.Helper()
	net := NewLoopback(Config{Link: LinkConfig{Latency: 1}})
	t.Cleanup(net.Close)
	cluster, err := NewCluster(net, procs, HostConfig{
		Rounds: rounds,
		Mode:   ModeLockstep,
		Class:  class,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	net.Run()
	return cluster
}

// assertEquivalent compares the two runs' traces and ledgers.
func assertEquivalent(t *testing.T, engineTrace *Trace, engineLed *metrics.Ledger, cluster *Cluster, class metrics.Class) {
	t.Helper()
	et, lt := engineTrace.String(), cluster.Trace().String()
	if et != lt {
		t.Fatalf("traces diverge:\n--- engine ---\n%s--- loopback ---\n%s", et, lt)
	}
	if em, lm := engineTrace.Messages(), cluster.Trace().Messages(); em != lm {
		t.Errorf("message counts diverge: engine %d, loopback %d", em, lm)
	}
	cled := cluster.Ledger()
	if e, l := engineLed.MessagesBy(class), cled.MessagesBy(class); e != l {
		t.Errorf("class %v charges diverge: engine %d, loopback %d", class, e, l)
	}
	if tr := cled.MessagesBy(metrics.ClassTransport); tr != 0 {
		t.Errorf("lossless lockstep run charged %d transport messages, want 0", tr)
	}
}

// buildRandNumProcs mirrors the runtime test fixture: n members, seed 42,
// per-node substreams, with silent Byzantine nodes at the given indices.
func buildRandNumProcs(t *testing.T, n int, silent map[int]bool) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.RandNumNode) {
	t.Helper()
	cfg := runtime.RandNumConfig{R: 64}
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, ids.NodeID(i))
	}
	r := xrand.New(42)
	procs := make(map[ids.NodeID]runtime.Process, n)
	honest := make(map[ids.NodeID]*runtime.RandNumNode)
	for i := 0; i < n; i++ {
		id := ids.NodeID(i)
		sub := r.Split(uint64(i)) // always consume, to keep seeds aligned
		if silent[i] {
			procs[id] = runtime.SilentNode{}
			continue
		}
		node, err := runtime.NewRandNumNode(cfg, id, sub)
		if err != nil {
			t.Fatal(err)
		}
		procs[id] = node
		honest[id] = node
	}
	return procs, honest
}

// randNumFixture is TestEquivRandNum's committee: eight honest members,
// four rounds.
func randNumFixture(t *testing.T) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.RandNumNode, int) {
	procs, honest := buildRandNumProcs(t, 8, nil)
	return procs, honest, 4
}

func TestEquivRandNum(t *testing.T) {
	engineProcs, engineHonest, rounds := randNumFixture(t)
	loopProcs, loopHonest, _ := randNumFixture(t)

	engineTrace, engineLed := runOnEngine(t, engineProcs, rounds, metrics.ClassRandNum)
	cluster := runOnLoopback(t, loopProcs, rounds, metrics.ClassRandNum)
	assertEquivalent(t, engineTrace, engineLed, cluster, metrics.ClassRandNum)

	for id, en := range engineHonest {
		ev, eok := en.Output()
		lv, lok := loopHonest[id].Output()
		if eok != lok || ev != lv {
			t.Errorf("node %v outputs diverge: engine %d,%v loopback %d,%v", id, ev, eok, lv, lok)
		}
		if !lok {
			t.Errorf("node %v has no output on loopback", id)
		}
	}

	// Cross-check against the counted simulator's cost model, same as the
	// engine's own integration test: 3*s*(s-1) messages per draw.
	var led metrics.Ledger
	if _, _, err := (randnum.Ideal{}).Draw(&led, xrand.New(1), randnum.Params{Size: len(loopProcs), Byz: 0, R: 64}, nil); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Trace().Messages(); got != led.Messages() {
		t.Errorf("loopback messages %d != counted charge %d", got, led.Messages())
	}
}

func TestEquivRandNumSilentByzantine(t *testing.T) {
	const n, rounds = 9, 4
	silent := map[int]bool{3: true, 7: true}
	engineProcs, engineHonest := buildRandNumProcs(t, n, silent)
	loopProcs, loopHonest := buildRandNumProcs(t, n, silent)

	engineTrace, engineLed := runOnEngine(t, engineProcs, rounds, metrics.ClassRandNum)
	cluster := runOnLoopback(t, loopProcs, rounds, metrics.ClassRandNum)
	assertEquivalent(t, engineTrace, engineLed, cluster, metrics.ClassRandNum)

	var want int64
	var got bool
	for id, en := range engineHonest {
		ev, ok := en.Output()
		if !ok {
			t.Fatalf("engine node %v has no output", id)
		}
		lv, lok := loopHonest[id].Output()
		if !lok || lv != ev {
			t.Errorf("node %v outputs diverge: %d vs %d", id, ev, lv)
		}
		if got && ev != want {
			t.Errorf("engine nodes disagree: %d vs %d", ev, want)
		}
		want, got = ev, true
	}
}

// buildPhaseKingProcs mirrors the runtime test committee: n members, a
// scripted liar at the given index, fixed inputs.
func buildPhaseKingProcs(t testing.TB, n, maxFaults, liar int, inputs []int64) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.PhaseKingNode) {
	t.Helper()
	cfg := runtime.PhaseKingConfig{MaxFaults: maxFaults}
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, ids.NodeID(i))
	}
	procs := make(map[ids.NodeID]runtime.Process, n)
	honest := make(map[ids.NodeID]*runtime.PhaseKingNode)
	for i := 0; i < n; i++ {
		id := ids.NodeID(i)
		if i == liar {
			procs[id] = runtime.NewPKLiarNode(cfg, id)
			continue
		}
		node := runtime.NewPhaseKingNode(cfg, id, inputs[i])
		procs[id] = node
		honest[id] = node
	}
	return procs, honest
}

// phaseKingFixture is TestEquivPhaseKing's committee: n = 9, t = 2, a
// scripted liar at index 4 and fixed mixed inputs.
func phaseKingFixture(t *testing.T) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.PhaseKingNode, int) {
	const n, tFaults, liar = 9, 2, 4
	procs, honest := buildPhaseKingProcs(t, n, tFaults, liar, []int64{1, 1, 0, 1, 0, 1, 1, 0, 1})
	return procs, honest, 2*(tFaults+1) + 1 // protocol rounds plus the decision round
}

func TestEquivPhaseKing(t *testing.T) {
	engineProcs, engineHonest, rounds := phaseKingFixture(t)
	loopProcs, loopHonest, _ := phaseKingFixture(t)

	engineTrace, engineLed := runOnEngine(t, engineProcs, rounds, metrics.ClassAgreement)
	cluster := runOnLoopback(t, loopProcs, rounds, metrics.ClassAgreement)
	assertEquivalent(t, engineTrace, engineLed, cluster, metrics.ClassAgreement)

	var first int64
	got := false
	for id, en := range engineHonest {
		ev, eok := en.Decision()
		lv, lok := loopHonest[id].Decision()
		if !eok || !lok {
			t.Fatalf("node %v undecided: engine %v loopback %v", id, eok, lok)
		}
		if ev != lv {
			t.Errorf("node %v decisions diverge: engine %d loopback %d", id, ev, lv)
		}
		if got && lv != first {
			t.Errorf("loopback disagreement at %v: %d vs %d", id, lv, first)
		}
		first, got = lv, true
	}
}

// buildRelayProcs mirrors the runtime relay fixture: a chain of clusters
// with forgers at byzAt (level -> count).
func buildRelayProcs(t *testing.T, levels, size int, byzAt map[int]int) (map[ids.NodeID]runtime.Process, []*runtime.RelayNode) {
	t.Helper()
	chain := make([][]ids.NodeID, levels)
	next := ids.NodeID(0)
	for l := 0; l < levels; l++ {
		for j := 0; j < size; j++ {
			chain[l] = append(chain[l], next)
			next++
		}
	}
	tok := runtime.NewToken(77, 1000)
	forged := runtime.NewToken(666, 0)
	procs := make(map[ids.NodeID]runtime.Process)
	var lastLevel []*runtime.RelayNode
	for l := 0; l < levels; l++ {
		nByz := byzAt[l]
		for j, id := range chain[l] {
			if j < nByz {
				procs[id] = runtime.NewForgingRelayNode(id, chain, l, forged)
				continue
			}
			var origin any
			if l == 0 {
				origin = tok
			}
			node := runtime.NewRelayNode(id, chain, l, origin)
			procs[id] = node
			if l == levels-1 {
				lastLevel = append(lastLevel, node)
			}
		}
	}
	return procs, lastLevel
}

// relayFixture is TestEquivRelay's chain: four levels of seven, with
// minority forgers (three) at level 1, over five rounds.
func relayFixture(t *testing.T) (map[ids.NodeID]runtime.Process, []*runtime.RelayNode, int) {
	procs, last := buildRelayProcs(t, 4, 7, map[int]int{1: 3})
	return procs, last, 5
}

func TestEquivRelay(t *testing.T) {
	engineProcs, engineLast, rounds := relayFixture(t)
	loopProcs, loopLast, _ := relayFixture(t)

	engineTrace, engineLed := runOnEngine(t, engineProcs, rounds, metrics.ClassWalk)
	cluster := runOnLoopback(t, loopProcs, rounds, metrics.ClassWalk)
	assertEquivalent(t, engineTrace, engineLed, cluster, metrics.ClassWalk)

	want := runtime.NewToken(77, 1000)
	for i := range engineLast {
		etok, eok := engineLast[i].Accepted()
		ltok, lok := loopLast[i].Accepted()
		if !eok || !lok {
			t.Fatalf("last-level node %d missing token: engine %v loopback %v", i, eok, lok)
		}
		if any(etok) != any(ltok) {
			t.Errorf("last-level node %d tokens diverge: %+v vs %+v", i, etok, ltok)
		}
		if any(ltok) != want {
			t.Errorf("last-level node %d accepted %+v, want %+v", i, ltok, want)
		}
	}
}

// The degradation path: a phase-king committee over a lossy, temporarily
// partitioned network in reliable mode still reaches its decision —
// dropped envelopes convert into retransmissions, the partitioned member
// into a within-budget fault.
func TestLossyPhaseKingStillDecides(t *testing.T) {
	const n, tFaults = 9, 2
	rounds := 2*(tFaults+1) + 1

	cfg := runtime.PhaseKingConfig{MaxFaults: tFaults}
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, ids.NodeID(i))
	}
	procs := make(map[ids.NodeID]runtime.Process, n)
	honest := make(map[ids.NodeID]*runtime.PhaseKingNode)
	for i := 0; i < n; i++ {
		id := ids.NodeID(i)
		node := runtime.NewPhaseKingNode(cfg, id, 1) // unanimous input
		procs[id] = node
		honest[id] = node
	}

	net := NewLoopback(Config{Seed: 11, Link: LinkConfig{Latency: 1, Drop: 0.15}})
	defer net.Close()
	cluster, err := NewCluster(net, procs, HostConfig{
		Rounds:     rounds,
		RoundTicks: 1024,
		Mode:       ModeReliable,
		Policy:     RetryPolicy{Timeout: 4, Retries: 4, Backoff: 2, Cap: 32},
		Class:      metrics.ClassAgreement,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cut node 8 off for the first half of round 0, then heal.
	net.SetPartition(map[ids.NodeID]int{8: 1})
	net.At(500, func() { net.SetPartition(nil) })
	cluster.Start()
	net.Run()

	for id, node := range honest {
		v, ok := node.Decision()
		if !ok {
			t.Fatalf("node %v did not decide under loss", id)
		}
		if v != 1 {
			t.Errorf("node %v decided %d, validity violated", id, v)
		}
	}
	ns, hs := cluster.Stats()
	if ns.Retries == 0 {
		t.Error("lossy run made no retransmissions — fault injection inert?")
	}
	s := net.Stats()
	if s.DroppedRandom == 0 {
		t.Error("drop probability 0.15 dropped nothing")
	}
	if s.DroppedPartition == 0 {
		t.Error("partition dropped nothing")
	}
	// Transport overhead (acks + retransmissions) is charged to its own
	// class, never to the protocol's.
	led := cluster.Ledger()
	if led.MessagesBy(metrics.ClassTransport) == 0 {
		t.Error("reliable mode charged no transport overhead")
	}
	if em := led.MessagesBy(metrics.ClassAgreement); em != hs.Emitted {
		t.Errorf("agreement charges %d != emitted %d", em, hs.Emitted)
	}
}
