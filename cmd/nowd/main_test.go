package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

// startCommittee brings up n daemons on ephemeral ports, fully peered
// (every member id, including a daemon's own, mapped at every daemon), and
// returns their control addresses. Cleanup stops them through the control
// protocol, exactly as an operator would.
func startCommittee(t *testing.T, n int) []string {
	t.Helper()
	daemons := make([]*daemon, n)
	var wg sync.WaitGroup
	for i := range daemons {
		d, err := newDaemon(daemonConfig{id: uint64(i), listen: "127.0.0.1:0", control: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Serve()
		}()
	}
	t.Cleanup(func() {
		for _, d := range daemons {
			var out bytes.Buffer
			_ = runClient("stop", []string{"-control", d.ControlAddr()}, &out)
		}
		wg.Wait()
	})
	controls := make([]string, n)
	for i, d := range daemons {
		controls[i] = d.ControlAddr()
		var pairs []string
		for j, p := range daemons {
			pairs = append(pairs, fmt.Sprintf("%d=%s", j, p.Addr()))
		}
		var out bytes.Buffer
		if err := runClient("peer", append([]string{"-control", d.ControlAddr()}, pairs...), &out); err != nil {
			t.Fatal(err)
		}
	}
	return controls
}

// resultOf blocks until the member finished its rounds and returns the
// decided value, or fails the test on UNDECIDED.
func resultOf(t *testing.T, control string) int64 {
	t.Helper()
	var out bytes.Buffer
	if err := runClient("result", []string{"-control", control, "-wait"}, &out); err != nil {
		t.Fatal(err)
	}
	reply := strings.TrimSpace(out.String())
	v, err := strconv.ParseInt(strings.TrimPrefix(reply, "DECIDED "), 10, 64)
	if err != nil {
		t.Fatalf("member at %s: reply %q", control, reply)
	}
	return v
}

func TestDaemonCommitteePhaseKing(t *testing.T) {
	// Five daemons, one playing the scripted liar, started one after
	// another over their control sockets — the start-skew the round hosts'
	// start-relative pacing exists for. Honest members hold unanimous
	// input 1, so every honest daemon must report DECIDED 1.
	const n, liar = 5, 2
	controls := startCommittee(t, n)
	for i, control := range controls {
		input := "1"
		if i == liar {
			input = "-1"
		}
		var out bytes.Buffer
		err := runClient("start", []string{
			"-control", control, "-proto", "phaseking",
			"-n", "5", "-t", "1", "-round-ticks", "100", "-input", input,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), "OK phaseking") {
			t.Fatalf("start reply %q", out.String())
		}
	}
	for i, control := range controls {
		if i == liar {
			continue
		}
		if v := resultOf(t, control); v != 1 {
			t.Errorf("member %d decided %d, want 1", i, v)
		}
	}
	var out bytes.Buffer
	if err := runClient("stats", []string{"-control", controls[0]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "delivered=") || !strings.Contains(out.String(), "forged=0") {
		t.Errorf("stats line %q", out.String())
	}
}

// lockstepRandNum is the oracle for a randnum committee of n members
// sharing seed: the value the lockstep engine outputs over the same
// per-member substreams, at the default output range 64.
func lockstepRandNum(t *testing.T, n int, seed uint64) int64 {
	t.Helper()
	procs := make(map[ids.NodeID]runtime.Process, n)
	var oracle *runtime.RandNumNode
	cfg := runtime.RandNumConfig{R: 64}
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, ids.NodeID(i))
	}
	for i := 0; i < n; i++ {
		node, err := runtime.NewRandNumNode(cfg, ids.NodeID(i), xrand.New(seed).Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		procs[ids.NodeID(i)] = node
		if i == 0 {
			oracle = node
		}
	}
	e := runtime.NewEngine(procs)
	defer e.Close()
	if err := e.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	want, ok := oracle.Output()
	if !ok {
		t.Fatal("lockstep oracle produced no output")
	}
	return want
}

func TestDaemonCommitteeRandNumMatchesLockstep(t *testing.T) {
	// Four daemons run commit-reveal with a shared seed; the lockstep
	// engine over the same per-member substreams is the oracle for the
	// value they must all output.
	const n, seed = 4, 42
	want := lockstepRandNum(t, n, seed)
	controls := startCommittee(t, n)
	for _, control := range controls {
		var out bytes.Buffer
		err := runClient("start", []string{
			"-control", control, "-proto", "randnum",
			"-n", "4", "-seed", strconv.Itoa(seed), "-round-ticks", "100", "-input", "64",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, control := range controls {
		if v := resultOf(t, control); v != want {
			t.Errorf("member %d output %d, want lockstep oracle's %d", i, v, want)
		}
	}
}

func TestDaemonControlErrors(t *testing.T) {
	controls := startCommittee(t, 1)
	control := controls[0]

	var out bytes.Buffer
	if err := runClient("ping", []string{"-control", control}, &out); err != nil || strings.TrimSpace(out.String()) != "PONG" {
		t.Fatalf("ping: %v %q", err, out.String())
	}
	// RESULT before START, a malformed START, and a second START after a
	// successful one must all come back as daemon-side errors.
	if err := runClient("result", []string{"-control", control}, &out); err == nil {
		t.Error("result before start succeeded")
	}
	if err := runClient("start", []string{"-control", control, "-proto", "phaseking", "-n", "5", "-t", "2"}, &out); err == nil {
		t.Error("phase king with n <= 4t accepted")
	}
	if err := runClient("start", []string{"-control", control, "-proto", "nosuch", "-n", "1"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := runClient("start", []string{"-control", control, "-proto", "phaseking", "-n", "1", "-t", "0", "-round-ticks", "50"}, &out); err != nil {
		t.Fatalf("singleton committee: %v", err)
	}
	if err := runClient("start", []string{"-control", control, "-proto", "phaseking", "-n", "1", "-t", "0"}, &out); err == nil {
		t.Error("second START accepted")
	}
	if v := resultOf(t, control); v != 1 {
		t.Errorf("singleton committee decided %d, want its own input 1", v)
	}
	if err := run(nil, &out); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
}
