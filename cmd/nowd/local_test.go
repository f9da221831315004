package main

import (
	"fmt"
	"strings"
	"testing"
)

// local parses args as `nowd local` flags and runs the committee,
// returning the report.
func local(t *testing.T, args ...string) string {
	t.Helper()
	c, err := parseLocal(args)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runLocal(c, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

// requireLines fails unless every wanted line appears in the report.
func requireLines(t *testing.T, report string, want ...string) {
	t.Helper()
	lines := map[string]bool{}
	for _, l := range strings.Split(report, "\n") {
		lines[l] = true
	}
	for _, w := range want {
		if !lines[w] {
			t.Errorf("report lacks line %q:\n%s", w, report)
		}
	}
}

func TestLocalParseConfig(t *testing.T) {
	c, err := parseLocal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.proto != "phaseking" || c.n != 9 || c.faults != 2 || c.cut != 8 || c.rtTicks != 1024 {
		t.Errorf("defaults = %+v", c)
	}
	for _, bad := range [][]string{
		{"-n", "8", "-t", "2"},
		{"-inputs", "bogus"},
		{"-transport", "bogus"},
		{"-proto", "bogus"},
		{"-proto", "relay", "-n", "9", "-t", "2"},
	} {
		if _, err := parseLocal(bad); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
	c, err = parseLocal([]string{"-cut", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cut != -1 {
		t.Errorf("cut = %d, want -1 (disabled)", c.cut)
	}
	c, err = parseLocal([]string{"-transport", "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if c.rtTicks != 100 {
		t.Errorf("tcp default round-ticks = %d, want 100", c.rtTicks)
	}
	c, err = parseLocal([]string{"-transport", "tcp", "-round-ticks", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if c.rtTicks != 64 {
		t.Errorf("explicit round-ticks = %d, want 64", c.rtTicks)
	}
}

// TestLocalDefaultReport pins the default loopback run: nine phase-king
// members, 15% loss and member 8 partitioned until tick 500.
func TestLocalDefaultReport(t *testing.T) {
	report := local(t)
	var want []string
	for i := 0; i < 9; i++ {
		want = append(want, fmt.Sprintf("node %d: decided 0", i))
	}
	requireLines(t, report, append(want,
		"partition: node 8 cut at tick 0, healed at tick 500",
		"transport: sent=662 delivered=497 dropped(random=96 partition=69)",
		"runtime: emitted=240 retries=152 timeouts=165 undelivered=13 duplicates=43 stale=0",
		"ledger: agreement=240 transport-overhead=422",
		"verdict: AGREEMENT despite injected faults",
	)...)
}

func TestLocalCleanNetwork(t *testing.T) {
	requireLines(t, local(t, "-drop", "0", "-cut", "-1"),
		"transport: sent=480 delivered=480 dropped(random=0 partition=0)",
		"runtime: emitted=240 retries=0 timeouts=0 undelivered=0 duplicates=0 stale=0",
		"ledger: agreement=240 transport-overhead=240",
	)
}

func TestLocalDecidesUnderFaults(t *testing.T) {
	got := local(t, "-inputs", "unanimous")
	if !strings.Contains(got, "verdict: AGREEMENT") {
		t.Errorf("missing agreement verdict:\n%s", got)
	}
	// Unanimous input 1 must survive arbitrary loss: every decision is 1.
	if strings.Contains(got, "decided 0") || strings.Contains(got, "UNDECIDED") {
		t.Errorf("validity violated:\n%s", got)
	}
	if !strings.Contains(got, "partition: node 8") {
		t.Errorf("partition not reported:\n%s", got)
	}
}

func TestLocalDeterministic(t *testing.T) {
	if a, b := local(t, "-inputs", "mixed"), local(t, "-inputs", "mixed"); a != b {
		t.Errorf("same-seed runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestLocalProtocols runs the other two START protocols in one process.
// On a clean network randnum must output what the lockstep engine computes
// from the same per-member substreams (under loss a share can miss its
// round, which changes the value but not the agreement); every relay
// member must accept the origin's token (walk id = seed) despite the
// default loss and partition.
func TestLocalProtocols(t *testing.T) {
	const n, seed = 8, 11
	for _, tc := range []struct {
		args []string
		want int64
	}{
		{[]string{"-proto", "randnum", "-n", "8", "-drop", "0", "-cut", "-1"}, lockstepRandNum(t, n, seed)},
		{[]string{"-proto", "relay", "-n", "8", "-t", "2"}, seed},
	} {
		report := local(t, tc.args...)
		var lines []string
		for i := 0; i < n; i++ {
			lines = append(lines, fmt.Sprintf("node %d: decided %d", i, tc.want))
		}
		requireLines(t, report, append(lines, "verdict: AGREEMENT despite injected faults")...)
	}
}

func TestLocalTCPTransport(t *testing.T) {
	// The committee over real sockets: unanimity must hold exactly as on
	// loopback, and the report must show socket traffic.
	got := local(t, "-transport", "tcp", "-n", "5", "-t", "1", "-inputs", "unanimous", "-round-ticks", "100")
	if !strings.Contains(got, "verdict: AGREEMENT") {
		t.Errorf("missing agreement verdict:\n%s", got)
	}
	if strings.Contains(got, "decided 0") || strings.Contains(got, "UNDECIDED") {
		t.Errorf("validity violated:\n%s", got)
	}
	if !strings.Contains(got, "transport: dials=") || strings.Contains(got, "dials=0") {
		t.Errorf("tcp run reported no socket traffic:\n%s", got)
	}
}
