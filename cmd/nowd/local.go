package main

import (
	"flag"
	"fmt"
	"io"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/nownet"
	"nowover/internal/runtime"
)

// localConfig is the parsed `nowd local` command line: a whole committee
// hosted in one process, every member built as START builds it.
type localConfig struct {
	proto     string
	n         int
	faults    int
	seed      uint64
	drop      float64
	cut       int64 // partitioned member id, -1 to disable
	healAt    int64
	inputs    string
	rtTicks   int64
	transport string
}

// parseLocal parses the `nowd local` flags and validates the committee
// shape against the protocol.
func parseLocal(args []string) (*localConfig, error) {
	fs := newFlagSet("nowd local")
	c := &localConfig{}
	fs.StringVar(&c.proto, "proto", "phaseking", "protocol: phaseking | randnum | relay")
	fs.IntVar(&c.n, "n", 9, "committee size")
	fs.IntVar(&c.faults, "t", 2, "faults tolerated (phaseking, needs n > 4t) or per-level cluster size (relay)")
	fs.Uint64Var(&c.seed, "seed", 11, "shared committee seed, also seeding the per-link fault streams")
	fs.Float64Var(&c.drop, "drop", 0.15, "per-envelope drop probability on every link")
	fs.Int64Var(&c.cut, "cut", -1<<62, "member to partition away at tick 0 (default: highest id; -1 disables)")
	fs.Int64Var(&c.healAt, "heal", 500, "tick at which the partition heals")
	fs.StringVar(&c.inputs, "inputs", "mixed", "honest phase-king inputs: mixed | unanimous")
	rtTicks := fs.Int64("round-ticks", 1024, "length of one protocol round (virtual ticks on loopback, milliseconds on tcp; tcp defaults to 100)")
	fs.StringVar(&c.transport, "transport", "loopback", "transport: loopback (deterministic, fault-injectable) | tcp (real sockets on localhost)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.transport != "loopback" && c.transport != "tcp" {
		return nil, fmt.Errorf("unknown -transport %q", c.transport)
	}
	c.rtTicks = *rtTicks
	if c.transport == "tcp" {
		c.rtTicks = 100
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "round-ticks" {
				c.rtTicks = *rtTicks
			}
		})
	}
	if c.inputs != "mixed" && c.inputs != "unanimous" {
		return nil, fmt.Errorf("unknown -inputs %q", c.inputs)
	}
	if _, err := newMember(c.proto, 0, c.n, c.faults, c.seed, 0, 0); err != nil {
		return nil, err
	}
	if c.cut == -1<<62 {
		c.cut = int64(c.n - 1)
	}
	return c, nil
}

// input is member i's START input: its -inputs value under phase king,
// the protocol's default otherwise.
func (c *localConfig) input(i int) int64 {
	switch {
	case c.proto != "phaseking":
		return 0
	case c.inputs == "mixed":
		return int64(i % 2)
	default:
		return 1
	}
}

// runLocal runs the committee to completion and writes the report: every
// member's outcome, the transport, runtime and ledger counters, and the
// agreement verdict.
func runLocal(c *localConfig, out io.Writer) error {
	members := make([]member, c.n)
	procs := make(map[ids.NodeID]runtime.Process, c.n)
	for i := range members {
		m, err := newMember(c.proto, uint64(i), c.n, c.faults, c.seed, 0, c.input(i))
		if err != nil {
			return err
		}
		members[i] = m
		procs[ids.NodeID(i)] = m.proc
	}
	hostCfg := tcpHostConfig(members[0], c.rtTicks)
	var cluster *nownet.Cluster
	var err error
	var transportLine string
	if c.transport == "tcp" {
		// Real sockets on localhost: one transport hosts the whole
		// committee, every member's address mapped to the shared listener,
		// so each protocol message still crosses the loopback interface.
		// Fault injection is a loopback-net feature; -drop/-cut are inert.
		tr, terr := nownet.NewTCP(nownet.TCPConfig{})
		if terr != nil {
			return terr
		}
		defer tr.Close()
		for i := 0; i < c.n; i++ {
			tr.SetPeer(ids.NodeID(i), tr.Addr())
		}
		cluster, err = nownet.NewCluster(tr, procs, hostCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "nowd local: %s, n=%d t=%d rounds=%d, transport=tcp %s (fault flags inert)\n",
			c.proto, c.n, c.faults, hostCfg.Rounds, tr.Addr())
		cluster.Start()
		cluster.Wait()
		s := tr.Stats()
		transportLine = fmt.Sprintf("transport: dials=%d accepts=%d sent=%d delivered=%d resync_bytes=%d",
			s.Dials, s.Accepts, s.Sent, s.Delivered, s.ResyncBytes)
	} else {
		// Virtual time: retries are paced in ticks, not fractions of a
		// round.
		hostCfg.Policy = nownet.RetryPolicy{Timeout: 4, Retries: 4, Backoff: 2, Cap: 32}
		net := nownet.NewLoopback(nownet.Config{
			Seed: c.seed,
			Link: nownet.LinkConfig{Latency: 1, Drop: c.drop},
		})
		defer net.Close()
		cluster, err = nownet.NewCluster(net, procs, hostCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "nowd local: %s, n=%d t=%d rounds=%d, drop=%.2f seed=%d\n",
			c.proto, c.n, c.faults, hostCfg.Rounds, c.drop, c.seed)
		if c.cut >= 0 {
			net.SetPartition(map[ids.NodeID]int{ids.NodeID(c.cut): 1})
			net.At(c.healAt, func() { net.SetPartition(nil) })
			fmt.Fprintf(out, "partition: node %d cut at tick 0, healed at tick %d\n", c.cut, c.healAt)
		}
		cluster.Start()
		net.Run()
		s := net.Stats()
		transportLine = fmt.Sprintf("transport: sent=%d delivered=%d dropped(random=%d partition=%d)",
			s.Sent, s.Delivered, s.DroppedRandom, s.DroppedPartition)
	}

	agree := true
	var first int64
	for i, m := range members {
		v, ok := m.decided()
		if !ok {
			fmt.Fprintf(out, "node %d: UNDECIDED\n", i)
			agree = false
			continue
		}
		fmt.Fprintf(out, "node %d: decided %d\n", i, v)
		if i == 0 {
			first = v
		} else if v != first {
			agree = false
		}
	}
	ns, hs := cluster.Stats()
	led := cluster.Ledger()
	fmt.Fprintln(out, transportLine)
	fmt.Fprintf(out, "runtime: emitted=%d retries=%d timeouts=%d undelivered=%d duplicates=%d stale=%d\n",
		hs.Emitted, ns.Retries, ns.Timeouts, hs.Undelivered, hs.Duplicates, hs.Stale)
	fmt.Fprintf(out, "ledger: %v=%d transport-overhead=%d\n",
		hostCfg.Class, led.MessagesBy(hostCfg.Class), led.MessagesBy(metrics.ClassTransport))
	if !agree {
		fmt.Fprintln(out, "verdict: DISAGREEMENT")
		return fmt.Errorf("committee failed to agree")
	}
	if c.transport == "tcp" {
		fmt.Fprintln(out, "verdict: AGREEMENT over real sockets")
	} else {
		fmt.Fprintln(out, "verdict: AGREEMENT despite injected faults")
	}
	return nil
}
