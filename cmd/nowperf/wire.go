package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"nowover/internal/ba"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/nownet"
	"nowover/internal/runtime"
)

// wire_tcp: back-to-back n > 4t phase-king committees on real sockets —
// n = 5, t = 1, member 2 lies, every honest input is 1 — in the cmd/nowd
// shape: one TCPTransport + Node + RoundHost per member on 127.0.0.1,
// ModeReliable, 1 ms ticks, five rounds. It runs no simulator code, so a
// churn change predicts no movement here. No delay is injected: latency is
// localhost's plus four round timers, CPU work shows in cpu_ms_per_op
// only, and a pacing change (early round advance) in lat_ms_p50.
const (
	wireMembers = 5
	wireFaults  = 1
	wireLiar    = 2
	wireRounds  = 2*(wireFaults+1) + 1
	wireTick    = time.Millisecond
	wireRate    = 2.4 // decisions per second of --seconds
	wireWarmup  = 3   // decisions, part of set-up
	wireVoidMax = 2   // failed decisions a run may put down to the host
)

// committee is the five members' transports and nodes, kept across
// decisions; every decision gets five new round hosts.
type committee struct {
	trs        []*nownet.TCPTransport
	nodes      []*nownet.Node
	cfg        runtime.PhaseKingConfig
	roundTicks int64
	out        io.Writer
	voided     int
}

func newCommittee(out io.Writer, roundTicks int64) (*committee, error) {
	c := &committee{out: out, roundTicks: roundTicks, cfg: runtime.PhaseKingConfig{MaxFaults: wireFaults}}
	for i := 0; i < wireMembers; i++ {
		tr, err := nownet.NewTCP(nownet.TCPConfig{Tick: wireTick})
		if err != nil {
			c.close()
			return nil, err
		}
		c.trs = append(c.trs, tr)
		c.cfg.Members = append(c.cfg.Members, ids.NodeID(i))
	}
	for i, tr := range c.trs {
		for j, peer := range c.trs {
			tr.SetPeer(ids.NodeID(j), peer.Addr())
		}
		ep, err := tr.Open(ids.NodeID(i))
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, nownet.NewNode(ep))
	}
	return c, nil
}

// committeeProcesses is one decision's state machines: member 2 lies, the
// others propose 1.
func committeeProcesses(cfg runtime.PhaseKingConfig) (map[ids.NodeID]runtime.Process, map[ids.NodeID]*runtime.PhaseKingNode) {
	procs := make(map[ids.NodeID]runtime.Process, len(cfg.Members))
	honest := make(map[ids.NodeID]*runtime.PhaseKingNode, len(cfg.Members)-1)
	for _, id := range cfg.Members {
		if id == wireLiar {
			procs[id] = runtime.NewPKLiarNode(cfg, id)
			continue
		}
		honest[id] = runtime.NewPhaseKingNode(cfg, id, 1)
		procs[id] = honest[id]
	}
	return procs, honest
}

// allDecidedOne is the correctness check of a decision: validity demands
// that every honest member decide the unanimous honest input.
func allDecidedOne(honest map[ids.NodeID]*runtime.PhaseKingNode) error {
	for id, h := range honest {
		if v, ok := h.Decision(); !ok || v != 1 {
			return fmt.Errorf("honest member %v decided (%d, %v), want (1, true)", id, v, ok)
		}
	}
	return nil
}

// hostConfig is the cmd/nowd round-host shape; the caller sets Proc.
func hostConfig(roundTicks int64) nownet.HostConfig {
	return nownet.HostConfig{
		Rounds:     wireRounds,
		RoundTicks: roundTicks,
		Mode:       nownet.ModeReliable,
		Policy:     nownet.RetryPolicy{Timeout: roundTicks / 4, Retries: 3, Backoff: 2, Cap: roundTicks},
		Class:      metrics.ClassAgreement,
	}
}

// close tears the transports down; each Close waits for the goroutines the
// transport hosts.
func (c *committee) close() {
	for _, tr := range c.trs {
		tr.Close()
	}
}

// wireCounts are the transport, node and host counters summed over the
// five members.
type wireCounts struct {
	sent, delivered, retries, stale, undelivered int64
}

func (w *wireCounts) add(o wireCounts) {
	w.sent += o.sent
	w.delivered += o.delivered
	w.retries += o.retries
	w.stale += o.stale
	w.undelivered += o.undelivered
}

func (c *committee) counts() wireCounts {
	var w wireCounts
	for i, tr := range c.trs {
		ts, ns := tr.Stats(), c.nodes[i].Stats()
		w.sent += ts.Sent
		w.delivered += ts.Delivered
		w.retries += ns.Retries
	}
	return w
}

// stepNote is what a pass learns at each Step from a delegating process:
// how late round r began against Step(0) + r x RoundTicks, how late the
// decision's latest round began against its first Start, and (traced) a
// wire.step span.
type stepNote struct {
	tr     *tracer
	parent int
	round  time.Duration

	mu      sync.Mutex
	late    []float64     // ms, every step of the pass
	started time.Time     // this decision's first Start
	behind  time.Duration // this decision's worst step against started
}

type notedProcess struct {
	inner runtime.Process
	note  *stepNote
	first time.Time
}

func (p *notedProcess) Step(round int, inbox []runtime.Message) []runtime.Message {
	now := time.Now()
	if round == 0 {
		p.first = now
	}
	due := time.Duration(round) * p.note.round
	p.note.mu.Lock()
	if round > 0 {
		p.note.late = append(p.note.late, ms(now.Sub(p.first)-due))
	}
	p.note.behind = max(p.note.behind, now.Sub(p.note.started)-due)
	p.note.mu.Unlock()
	id := p.note.tr.begin("wire.step", p.note.parent, round)
	out := p.inner.Step(round, inbox)
	p.note.tr.end(id)
	return out
}

// decide runs one committee to its decision: the timed unit, first
// RoundHost.Start to last Wait. A committee whose honest member is
// undecided or decided anything but 1 fails — unless the host stalled under
// it: the rounds are paced by five tickers, a vCPU taken away for a quarter
// of a round leaves the members' rounds apart and a vote arrives stale (one
// decision in ~3 500 on this host class, every one of them with a round
// begun 60-130 ms late). Such a decision is void and run again, at most
// wireVoidMax times a run; the line it prints says so.
func (c *committee) decide(m *meter, note *stepNote) (unit, wireCounts, error) {
	for {
		u, counts, err := c.decideOnce(m, note)
		stall := time.Duration(c.roundTicks/4) * wireTick
		if err == nil || note.behind <= stall || c.voided == wireVoidMax {
			return u, counts, err
		}
		c.voided++
		fmt.Fprintf(c.out, "decision void, run again: a round began %v late, the host stalled (%v; sent %d, retries %d, stale %d, undelivered %d)\n",
			note.behind, err, counts.sent, counts.retries, counts.stale, counts.undelivered)
	}
}

func (c *committee) decideOnce(m *meter, note *stepNote) (u unit, counts wireCounts, err error) {
	defer c.settle()
	procs, honest := committeeProcesses(c.cfg)
	hosts := make([]*nownet.RoundHost, 0, wireMembers)
	for _, node := range c.nodes {
		cfg := hostConfig(c.roundTicks)
		cfg.Proc = &notedProcess{inner: procs[node.ID()], note: note}
		// The nodes are idle between decisions (settle below), so swapping
		// the round handler races with nothing.
		hosts = append(hosts, nownet.NewRoundHost(node, cfg, nil))
	}
	before := c.counts()
	m.start()
	note.started, note.behind = m.t0, 0
	for _, h := range hosts {
		h.Start()
	}
	for _, h := range hosts {
		h.Wait()
	}
	wall, cpu, factor := m.stop()
	u = unit{wall: wall, cpu: cpu, factor: factor, ops: 1, latency: true}

	after := c.counts()
	counts = wireCounts{sent: after.sent - before.sent, retries: after.retries - before.retries}
	for _, h := range hosts {
		hs := h.Stats()
		counts.stale += hs.Stale
		counts.undelivered += hs.Undelivered
	}
	return u, counts, allDecidedOne(honest)
}

// settle waits, for at most a round, until everything sent has reached an
// inbox, so a straggling retransmission cannot reach the next decision's
// hosts. Untimed.
func (c *committee) settle() {
	for i := int64(0); i < c.roundTicks; i++ {
		if w := c.counts(); w.sent == w.delivered {
			return
		}
		time.Sleep(wireTick)
	}
}

// runWire is both passes of wire_tcp: untraced (tr nil) runs every
// decision; traced runs the first quarter with a span per decision and
// step, then the probes.
func runWire(ctx context.Context, out io.Writer, smoke bool, seconds float64, tr *tracer) (*report, error) {
	roundTicks, probeReps := int64(100), 2000
	if smoke {
		roundTicks, probeReps = 20, 200
	}
	decisions := unitCount(wireRate, seconds)
	quarter := max(1, decisions/4)
	if tr != nil {
		decisions = quarter
	}
	fmt.Fprintf(out, "committee n=%d t=%d liar=member %d, %d rounds of %d x %v, ModeReliable; %d decisions after %d warm-up decisions\n",
		wireMembers, wireFaults, wireLiar, wireRounds, roundTicks, wireTick, decisions, wireWarmup)
	fmt.Fprintf(out, "no delay is injected: latency is localhost's plus %d round timers\n", wireRounds-1)

	root := tr.begin("workload", 0, 0)
	m := newMeter()
	sinceStart := time.Since(processStart)

	// Set-up, once, as the clock reads: five listeners and nodes, and
	// three decisions that dial every connection.
	setupSpan := tr.begin("setup", root, 0)
	t0 := time.Now()
	c, err := newCommittee(out, roundTicks)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	note := &stepNote{tr: tr, parent: setupSpan, round: time.Duration(roundTicks) * wireTick}
	for i := 0; i < wireWarmup; i++ {
		if _, _, err := c.decide(m, note); err != nil {
			return nil, fmt.Errorf("warm-up decision %d: %w", i, err)
		}
	}
	setup := time.Since(t0).Seconds()
	tr.end(setupSpan)
	fmt.Fprintf(out, "set-up %.4f s as the clock read it; process start to set-up %.3f s\n", setup, sinceStart.Seconds())

	rep := &report{correct: true}
	units := make([]unit, 0, decisions)
	var total wireCounts
	note.late = note.late[:0]
	// wire_tcp has no random input: its fingerprint is how many committees
	// decided 1, and its counts are the same on every seed.
	checkpoint := func(label string) {
		fmt.Fprintf(out, "%s units=%d ops=%d fingerprint=%016x msgs_per_op=%v rounds_per_op=%v\n",
			label, rep.attempted, len(units), len(units), perOp(total.sent, int64(rep.attempted)), float64(wireRounds))
	}
	m.reread()
	allocated := totalAlloc()
	for d := 0; d < decisions; d++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("stopped after %d of %d decisions: %w", d, decisions, err)
		}
		id := tr.begin("unit", root, d)
		did := tr.begin("wire.decision", id, d)
		note.parent = did
		u, counts, err := c.decide(m, note)
		tr.end(did)
		tr.end(id)
		rep.attempted++
		total.add(counts)
		if err != nil {
			fmt.Fprintf(out, "decision %d FAILED: %v (sent %d, retries %d, stale %d, undelivered %d)\n",
				d, err, counts.sent, counts.retries, counts.stale, counts.undelivered)
			rep.failed++
		} else {
			units = append(units, u)
		}
		if d+1 == quarter {
			skip := totalAlloc()
			checkpoint("quarter")
			allocated += totalAlloc() - skip
		}
	}
	allocated = totalAlloc() - allocated
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		checkpoint("end")
	}
	fmt.Fprintf(out, "decisions void for a host stall and run again: %d (at most %d)\n", c.voided, wireVoidMax)

	rep.setTimes(units, false, setup, setup)
	rep.factors = m.factors
	rep.values["peak_rss_mb"] = rss
	rep.values["alloc_kb_per_op"] = perOp(int64(allocated), int64(rep.attempted)) / 1024
	rep.values["msgs_per_op"] = perOp(total.sent, int64(rep.attempted))
	rep.values["rounds_per_op"] = wireRounds
	if tr == nil {
		return rep, nil
	}

	// The traced pass: what phase (a) saw, then the probes.
	n := float64(rep.attempted)
	v := rep.values
	v["bench.traced_ops_per_s"] = v["ops_per_s"]
	v["nownet.step_late_ms_p90"] = quantile(note.late, 0.9)
	v["nownet.tcp_sent_per_decision"] = float64(total.sent) / n
	v["nownet.retries_per_decision"] = float64(total.retries) / n
	v["nownet.stale_per_decision"] = float64(total.stale) / n
	v["nownet.undelivered_per_decision"] = float64(total.undelivered) / n
	if err := wireProbes(tr, root, v, roundTicks, probeReps); err != nil {
		return nil, err
	}
	tr.end(root)
	harnessHealth(rep, m)
	return rep, nil
}

// wireProbes times the wire-side layers standalone.
func wireProbes(tr *tracer, root int, v map[string]float64, roundTicks int64, reps int) error {
	// Envelope codec and stream reframing, on a round frame's size.
	env := nownet.Envelope{Kind: nownet.KindRequest, Type: nownet.TypeRound, From: 1, To: 2, MsgID: 7, Payload: make([]byte, 14)}
	id := tr.begin("probe.nownet", root, 0)
	var wire []byte
	var err error
	v["nownet.encode_ns"] = perCallNS(100*reps, func() { wire, err = env.Encode(wire[:0]) })
	if err != nil {
		return err
	}
	v["nownet.decode_ns"] = perCallNS(100*reps, func() { _, _, err = nownet.DecodeEnvelope(wire) })
	if err != nil {
		return err
	}
	stream := bytes.Repeat(wire, 64)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		dec := nownet.NewStreamDecoder(bytes.NewReader(stream))
		for {
			if _, err := dec.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					return err
				}
				break
			}
		}
	}
	v["nownet.stream_mb_per_s"] = float64(reps*len(stream)) / 1e6 / time.Since(t0).Seconds()
	tr.end(id)

	// Node.Request echo between two TCP nodes: bounds how short a round
	// can be.
	id = tr.begin("probe.nownet", root, 1)
	rtt, err := requestRTT(reps)
	tr.end(id)
	if err != nil {
		return err
	}
	v["nownet.request_rtt_us_p50"] = quantile(rtt, 0.5)
	v["nownet.request_rtt_us_p90"] = quantile(rtt, 0.9)

	// The same committee on the virtual-time loopback, on the channel
	// Engine and in ba's array simulation: the last two are the oracles
	// the protocol-stack fold deletes, recorded so the deletion has a
	// before.
	cfg := runtime.PhaseKingConfig{MaxFaults: wireFaults}
	for i := 0; i < wireMembers; i++ {
		cfg.Members = append(cfg.Members, ids.NodeID(i))
	}

	id = tr.begin("probe.nownet", root, 2)
	v["nownet.loopback_decision_us"] = perCallNS(reps/10, func() {
		if err != nil {
			return
		}
		net := nownet.NewLoopback(nownet.Config{Seed: 1, Link: nownet.LinkConfig{Latency: 1}})
		defer net.Close()
		procs, honest := committeeProcesses(cfg)
		var cluster *nownet.Cluster
		if cluster, err = nownet.NewCluster(net, procs, hostConfig(roundTicks)); err != nil {
			return
		}
		cluster.Start()
		net.Run()
		err = allDecidedOne(honest)
	}) / 1e3
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("probe.runtime", root, 0)
	v["runtime.engine_decision_us"] = perCallNS(reps/10, func() {
		if err != nil {
			return
		}
		procs, honest := committeeProcesses(cfg)
		e := runtime.NewEngine(procs)
		defer e.Close()
		if _, err = runtime.RunPhaseKing(e, cfg, honest); err == nil {
			err = allDecidedOne(honest)
		}
	}) / 1e3
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("probe.ba", root, 0)
	baCfg := ba.Config{N: wireMembers, Inputs: []ba.Value{1, 1, 1, 1, 1}, Byzantine: map[int]ba.Behavior{wireLiar: ba.Liar{}}}
	v["ba.phaseking_us"] = perCallNS(reps, func() {
		if err != nil {
			return
		}
		var res ba.Result
		if res, err = ba.PhaseKing(baCfg, wireFaults); err == nil {
			if d, ok := res.Agree(baCfg.Byzantine); !ok || d != 1 {
				err = fmt.Errorf("probe ba.PhaseKing: honest members agreed (%d, %v), want (1, true)", d, ok)
			}
		}
	}) / 1e3
	tr.end(id)
	return err
}

// requestRTT is reps Node.Request echoes between two TCP nodes, in us.
func requestRTT(reps int) ([]float64, error) {
	const echo = 9
	var trs [2]*nownet.TCPTransport
	var nodes [2]*nownet.Node
	for i := range trs {
		tr, err := nownet.NewTCP(nownet.TCPConfig{Tick: wireTick})
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		trs[i] = tr
	}
	for i, tr := range trs {
		tr.SetPeer(ids.NodeID(1-i), trs[1-i].Addr())
		ep, err := tr.Open(ids.NodeID(i))
		if err != nil {
			return nil, err
		}
		nodes[i] = nownet.NewNode(ep)
	}
	nodes[1].Handle(echo, func(n *nownet.Node, env nownet.Envelope) {
		// A lost echo is the requester's timeout; nothing to do here.
		_ = n.Respond(env, env.Payload)
	})
	nodes[0].Start()
	nodes[1].Start()
	payload := make([]byte, 14)
	pol := nownet.RetryPolicy{Timeout: 25, Retries: 3, Backoff: 2, Cap: 100}
	rtt := make([]float64, 0, reps)
	for i := 0; i < reps+10; i++ {
		t0 := time.Now()
		if _, _, err := nodes[0].Request(1, echo, payload, pol); err != nil {
			return nil, err
		}
		if i >= 10 { // the first ones dial
			rtt = append(rtt, us(time.Since(t0)))
		}
	}
	return rtt, nil
}

// perCallNS times n calls of fn and returns the mean, in ns.
func perCallNS(n int, fn func()) float64 {
	n = max(1, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}
