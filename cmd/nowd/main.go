// Command nowd runs protocol committees over the nownet transports. Its
// wall-clock half is in the shape of drand's daemon/client split: `nowd
// daemon` hosts one committee member — a nownet node behind a TCP
// transport, driven by a round host — and a control client (`nowd
// ping|peer|start|result|stats|stop`) talks to it over a local control
// connection with a one-line text protocol.
//
// A committee of daemons is wired up from the outside: start one daemon
// per member, tell each about its peers' transport addresses (`nowd
// peer`), then `nowd start` the same protocol instance on each. Daemons
// need not start rounds simultaneously — round pacing is relative to each
// host's own start and the round hosts requeue messages from peers that
// are a round ahead — and `nowd result -wait` blocks until the member has
// decided.
//
// Example (one member of a five-node phase-king committee):
//
//	nowd daemon -id 0 -listen 127.0.0.1:7000 -control 127.0.0.1:7100 &
//	nowd peer -control 127.0.0.1:7100 1=127.0.0.1:7001 2=127.0.0.1:7002 ...
//	nowd start -control 127.0.0.1:7100 -proto phaseking -n 5 -t 1 -input 1
//	nowd result -control 127.0.0.1:7100 -wait
//
// `nowd local` hosts all n members of one committee in this process, each
// built by the same protocol switch START uses. On the deterministic
// loopback network (the default) it injects link loss and a temporary
// partition, and the protocol still decides — dropped envelopes degrade
// into retransmissions with capped backoff, never into a stuck round.
// With -transport tcp every message crosses a real localhost socket and
// rounds are paced in milliseconds; the fault flags are inert there.
//
//	nowd local                          # 9 phase-king members, 15% loss, member 8 partitioned
//	nowd local -n 13 -t 3 -drop 0.3
//	nowd local -drop 0 -cut -1          # clean network, no partition
//	nowd local -proto relay -n 8 -t 2   # four levels of two
//	nowd local -transport tcp           # the same committee over real sockets
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/nownet"
	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

// daemonConfig is the parsed `nowd daemon` command line.
type daemonConfig struct {
	id      uint64
	listen  string
	control string
}

// roundState is the one protocol instance a daemon runs. Open on the
// transport is per-id, so a daemon hosts exactly one round per lifetime;
// a second START is refused rather than half-reusing endpoints.
type roundState struct {
	proto    string
	cluster  *nownet.Cluster
	decided  func() (int64, bool)
	finished chan struct{}
}

// daemon hosts one committee member and its control listener.
type daemon struct {
	cfg daemonConfig
	tr  *nownet.TCPTransport
	ctl net.Listener

	mu    sync.Mutex
	round *roundState

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// newDaemon binds the transport and the control listener; Serve runs the
// control loop until STOP or Close.
func newDaemon(cfg daemonConfig) (*daemon, error) {
	tr, err := nownet.NewTCP(nownet.TCPConfig{Listen: cfg.listen})
	if err != nil {
		return nil, err
	}
	ctl, err := net.Listen("tcp", cfg.control)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &daemon{cfg: cfg, tr: tr, ctl: ctl, stopped: make(chan struct{})}, nil
}

// Addr is the transport address peers dial.
func (d *daemon) Addr() string { return d.tr.Addr() }

// ControlAddr is the local control address clients dial.
func (d *daemon) ControlAddr() string { return d.ctl.Addr().String() }

// Serve accepts control connections until the daemon stops.
func (d *daemon) Serve() {
	for {
		conn, err := d.ctl.Accept()
		if err != nil {
			d.wg.Wait()
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handleControl(conn)
		}()
	}
}

// Close stops the control loop and tears the member down. Safe to call
// concurrently with Serve (STOP does exactly this).
func (d *daemon) Close() {
	d.stopOnce.Do(func() {
		close(d.stopped)
		d.ctl.Close()
		d.tr.Close()
	})
}

// handleControl runs the line protocol on one control connection. Every
// request line gets exactly one reply line.
func (d *daemon) handleControl(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		reply := d.dispatch(strings.Fields(sc.Text()))
		if _, err := fmt.Fprintln(conn, reply); err != nil {
			return
		}
		if strings.HasPrefix(reply, "OK stopping") {
			d.Close()
			return
		}
	}
}

// dispatch maps one control command to its reply line.
func (d *daemon) dispatch(words []string) string {
	if len(words) == 0 {
		return "ERR empty command"
	}
	switch words[0] {
	case "PING":
		return "PONG"
	case "PEER":
		if len(words) != 3 {
			return "ERR usage: PEER <id> <host:port>"
		}
		id, err := strconv.ParseUint(words[1], 10, 64)
		if err != nil {
			return "ERR bad peer id: " + err.Error()
		}
		d.tr.SetPeer(ids.NodeID(id), words[2])
		return "OK"
	case "START":
		return d.startRound(words[1:])
	case "RESULT":
		return d.result()
	case "STATS":
		return d.statsLine()
	case "STOP":
		return "OK stopping"
	default:
		return "ERR unknown command " + words[0]
	}
}

// startRound parses `START <proto> <n> <t> <seed> <rounds> <roundticks>
// <input>` and launches this member's round host. The fixed arity keeps
// the protocol trivially parseable; fields a protocol does not need are
// still present (and reused where sensible: <t> is the per-level cluster
// size for relay, <input> is the output range for randnum).
func (d *daemon) startRound(words []string) string {
	if len(words) != 7 {
		return "ERR usage: START <proto> <n> <t> <seed> <rounds> <roundticks> <input>"
	}
	proto := words[0]
	num := make([]int64, 6)
	for i, w := range words[1:] {
		v, err := strconv.ParseInt(w, 10, 64)
		if err != nil {
			return fmt.Sprintf("ERR bad %s field: %v", []string{"n", "t", "seed", "rounds", "roundticks", "input"}[i], err)
		}
		num[i] = v
	}
	n, t, seed, rounds, roundTicks, input := int(num[0]), int(num[1]), uint64(num[2]), int(num[3]), num[4], num[5]
	m, err := newMember(proto, d.cfg.id, n, t, seed, rounds, input)
	if err != nil {
		return "ERR " + err.Error()
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.round != nil {
		return "ERR round already started"
	}
	cluster, err := nownet.NewCluster(d.tr, map[ids.NodeID]runtime.Process{ids.NodeID(d.cfg.id): m.proc}, tcpHostConfig(m, roundTicks))
	if err != nil {
		return "ERR " + err.Error()
	}
	rs := &roundState{proto: proto, cluster: cluster, decided: m.decided, finished: make(chan struct{})}
	d.round = rs
	cluster.Start()
	go func() {
		cluster.Wait()
		close(rs.finished)
	}()
	return fmt.Sprintf("OK %s member %d of %d, %d rounds", proto, d.cfg.id, n, m.rounds)
}

// member is one committee member of a protocol instance: its process, how
// to read its outcome, and the instance's round count and traffic class.
type member struct {
	proc    runtime.Process
	decided func() (int64, bool)
	rounds  int
	class   metrics.Class
}

// newMember builds member id of an n-member committee running proto: the
// one protocol switch behind both START and `nowd local`. The other
// arguments are START's fields: t is the fault bound for phaseking and the
// per-level cluster size for relay; input is the member's phase-king input
// (<0 plays the liar), the randnum output range, or the relay token's walk
// length; rounds <= 0 takes the protocol's default.
func newMember(proto string, id uint64, n, t int, seed uint64, rounds int, input int64) (member, error) {
	if n <= 0 || id >= uint64(n) {
		return member{}, fmt.Errorf("member id %d outside committee of %d", id, n)
	}
	self := ids.NodeID(id)
	members := make([]ids.NodeID, n)
	for i := range members {
		members[i] = ids.NodeID(i)
	}
	m := member{rounds: rounds}
	switch proto {
	case "phaseking":
		if n <= 4*t {
			return member{}, fmt.Errorf("phase king needs n > 4t, got n=%d t=%d", n, t)
		}
		if m.rounds <= 0 {
			m.rounds = 2*(t+1) + 1
		}
		cfg := runtime.PhaseKingConfig{Members: members, MaxFaults: t}
		if input < 0 {
			m.proc, m.decided = runtime.NewPKLiarNode(cfg, self), func() (int64, bool) { return -1, true }
		} else {
			node := runtime.NewPhaseKingNode(cfg, self, input)
			m.proc, m.decided = node, node.Decision
		}
		m.class = metrics.ClassAgreement
	case "randnum":
		if m.rounds <= 0 {
			m.rounds = 4
		}
		if input <= 0 {
			input = 64
		}
		// Every member derives its share from the shared seed's
		// per-member substream, so independently started daemons stay
		// aligned with each other and with the loopback oracle.
		node, err := runtime.NewRandNumNode(runtime.RandNumConfig{Members: members, R: input}, self, xrand.New(seed).Split(id))
		if err != nil {
			return member{}, err
		}
		m.proc, m.decided = node, node.Output
		m.class = metrics.ClassRandNum
	case "relay":
		if t <= 0 || n%t != 0 {
			return member{}, fmt.Errorf("relay needs <t> to be a cluster size dividing n, got n=%d t=%d", n, t)
		}
		levels := n / t
		chain := make([][]ids.NodeID, levels)
		for k := range chain {
			chain[k] = members[k*t : (k+1)*t]
		}
		level := int(id) / t
		var origin any
		if level == 0 {
			origin = runtime.NewToken(seed, input)
		}
		node := runtime.NewRelayNode(self, chain, level, origin)
		m.proc = node
		m.decided = func() (int64, bool) {
			tk, ok := node.Accepted()
			return int64(tk.WalkID), ok
		}
		if m.rounds <= 0 {
			m.rounds = levels
		}
		m.class = metrics.ClassWalk
	default:
		return member{}, fmt.Errorf("unknown protocol %s", proto)
	}
	return m, nil
}

// tcpHostConfig is the round host every wall-clock member runs: reliable
// mode, with retries paced in fractions of a roundTicks-millisecond round.
func tcpHostConfig(m member, roundTicks int64) nownet.HostConfig {
	return nownet.HostConfig{
		Rounds:     m.rounds,
		RoundTicks: roundTicks,
		Mode:       nownet.ModeReliable,
		Policy:     nownet.RetryPolicy{Timeout: roundTicks / 4, Retries: 3, Backoff: 2, Cap: roundTicks},
		Class:      m.class,
	}
}

// result reports the member's outcome: PENDING while rounds run, DECIDED
// once the host finished and the protocol produced a value, UNDECIDED if
// it finished without one.
func (d *daemon) result() string {
	d.mu.Lock()
	rs := d.round
	d.mu.Unlock()
	if rs == nil {
		return "ERR no round started"
	}
	select {
	case <-rs.finished:
	default:
		return "PENDING"
	}
	if v, ok := rs.decided(); ok {
		return fmt.Sprintf("DECIDED %d", v)
	}
	return "UNDECIDED"
}

// statsLine renders transport plus (if a round ran) node/host counters.
func (d *daemon) statsLine() string {
	ts := d.tr.Stats()
	line := fmt.Sprintf("STATS dials=%d redials=%d accepts=%d sent=%d delivered=%d resync_bytes=%d",
		ts.Dials, ts.Redials, ts.Accepts, ts.Sent, ts.Delivered, ts.ResyncBytes)
	d.mu.Lock()
	rs := d.round
	d.mu.Unlock()
	if rs != nil {
		ns, hs := rs.cluster.Stats()
		line += fmt.Sprintf(" retries=%d timeouts=%d failed=%d forged=%d misrouted=%d stale=%d duplicates=%d",
			ns.Retries, ns.Timeouts, ns.Failed, ns.ForgedResponses, ns.Misrouted, hs.Stale, hs.Duplicates)
	}
	return line
}

// newFlagSet builds a flag set that reports errors instead of exiting.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// controlDo sends one command line over a fresh control connection and
// returns the single reply line.
func controlDo(addr, line string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	return sc.Text(), nil
}

// errDaemon marks replies the daemon itself refused.
var errDaemon = errors.New("nowd: daemon refused")

// check passes through a reply unless it is an ERR line.
func check(reply string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(reply, "ERR") {
		return "", fmt.Errorf("%w: %s", errDaemon, strings.TrimPrefix(reply, "ERR "))
	}
	return reply, nil
}

// runDaemon is the `nowd daemon` subcommand.
func runDaemon(args []string, out io.Writer) error {
	fs := newFlagSet("nowd daemon")
	id := fs.Uint64("id", 0, "committee member id this daemon hosts")
	listen := fs.String("listen", "127.0.0.1:0", "transport listen address peers dial")
	control := fs.String("control", "127.0.0.1:0", "local control address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := newDaemon(daemonConfig{id: *id, listen: *listen, control: *control})
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(out, "nowd: member %d, transport %s, control %s\n", *id, d.Addr(), d.ControlAddr())
	d.Serve()
	fmt.Fprintln(out, "nowd: stopped")
	return nil
}

// runClient is every control subcommand: it renders one command line,
// sends it, and prints the reply. `result -wait` repolls until the round
// finishes.
func runClient(sub string, args []string, out io.Writer) error {
	fs := newFlagSet("nowd " + sub)
	control := fs.String("control", "127.0.0.1:7100", "daemon control address")
	proto := fs.String("proto", "phaseking", "protocol: phaseking | randnum | relay")
	n := fs.Int("n", 5, "committee size")
	t := fs.Int("t", 1, "faults tolerated (phaseking) or per-level cluster size (relay)")
	seed := fs.Uint64("seed", 11, "shared committee seed")
	rounds := fs.Int("rounds", 0, "protocol rounds (0 = protocol default)")
	roundTicks := fs.Int64("round-ticks", 200, "round length in transport ticks (1ms each)")
	input := fs.Int64("input", 1, "member input (phaseking; <0 plays the liar), range (randnum), or walk length (relay)")
	wait := fs.Bool("wait", false, "result only: poll until the round finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var line string
	switch sub {
	case "ping":
		line = "PING"
	case "peer":
		// Positional args: id=host:port pairs, one PEER command each.
		for _, pair := range fs.Args() {
			id, addr, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("nowd peer: want id=host:port, got %q", pair)
			}
			reply, err := check(controlDo(*control, "PEER "+id+" "+addr))
			if err != nil {
				return err
			}
			fmt.Fprintln(out, reply)
		}
		return nil
	case "start":
		line = fmt.Sprintf("START %s %d %d %d %d %d %d", *proto, *n, *t, *seed, *rounds, *roundTicks, *input)
	case "result":
		for {
			reply, err := check(controlDo(*control, "RESULT"))
			if err != nil {
				return err
			}
			if !*wait || reply != "PENDING" {
				fmt.Fprintln(out, reply)
				return nil
			}
			time.Sleep(50 * time.Millisecond)
		}
	case "stats":
		line = "STATS"
	case "stop":
		line = "STOP"
	default:
		return fmt.Errorf("nowd: unknown subcommand %q", sub)
	}
	reply, err := check(controlDo(*control, line))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, reply)
	return nil
}

func usage(out io.Writer) {
	fmt.Fprintln(out, "usage: nowd daemon|local|ping|peer|start|result|stats|stop [flags]")
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return errors.New("nowd: missing subcommand")
	}
	switch args[0] {
	case "daemon":
		return runDaemon(args[1:], out)
	case "local":
		c, err := parseLocal(args[1:])
		if err != nil {
			return err
		}
		return runLocal(c, out)
	}
	return runClient(args[0], args[1:], out)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
