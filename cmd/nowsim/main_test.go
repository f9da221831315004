package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowover"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("parseConfig(nil): %v", err)
	}
	if c.maxN != 4096 {
		t.Errorf("N = %d, want 4096", c.maxN)
	}
	if c.n0 != 1024 {
		t.Errorf("derived n0 = %d, want N/4 = 1024", c.n0)
	}
	if c.every != 200 {
		t.Errorf("derived report cadence = %d, want steps/10 = 200", c.every)
	}
	if c.runs != 1 || c.reportSet {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestParseConfigShortRunCadence(t *testing.T) {
	c, err := parseConfig([]string{"-steps", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if c.every != 1 {
		t.Errorf("cadence for 5 steps = %d, want 1", c.every)
	}
}

func TestParseConfigExplicitReport(t *testing.T) {
	c, err := parseConfig([]string{"-report", "50"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.reportSet || c.every != 50 {
		t.Errorf("reportSet=%v every=%d, want true/50", c.reportSet, c.every)
	}
}

func TestParseConfigBadRuns(t *testing.T) {
	_, err := parseConfig([]string{"-runs", "0"})
	if err == nil || !strings.Contains(err.Error(), "-runs") {
		t.Errorf("want -runs validation error, got %v", err)
	}
	_, err = parseConfig([]string{"-runs", "4", "-parallel", "-1"})
	if err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("want -parallel validation error for a negative worker count, got %v", err)
	}
}

func TestSimConfigSelectionErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-schedule", "wobble"}, "unknown schedule"},
		{[]string{"-attack", "teleport"}, "unknown attack"},
		{[]string{"-merge", "blend"}, "unknown merge strategy"},
	} {
		c, err := parseConfig(tc.args)
		if err != nil {
			t.Fatalf("parseConfig(%v): %v", tc.args, err)
		}
		if _, err := c.simConfig(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("simConfig(%v) error = %v, want containing %q", tc.args, err, tc.want)
		}
	}
}

func TestSimConfigNoShuffleAblation(t *testing.T) {
	c, err := parseConfig([]string{"-noshuffle"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.simConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Core.Shuffle != nowover.ShuffleOff {
		t.Errorf("-noshuffle runs shuffle mode %v, want %v", cfg.Core.Shuffle, nowover.ShuffleOff)
	}
}

func TestSimConfigScheduleAndAttack(t *testing.T) {
	c, err := parseConfig([]string{"-schedule", "grow", "-attack", "joinleave"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.simConfig(9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Core.Seed != 9 {
		t.Errorf("replica seed not threaded: sim %d core %d", cfg.Seed, cfg.Core.Seed)
	}
	if _, ok := cfg.Schedule.(nowover.Linear); !ok {
		t.Errorf("grow schedule = %T, want nowover.Linear", cfg.Schedule)
	}
	if _, ok := cfg.Strategy.(*nowover.JoinLeaveAttack); !ok {
		t.Errorf("strategy = %T, want *nowover.JoinLeaveAttack", cfg.Strategy)
	}
	if !cfg.InstallHijacker {
		t.Error("joinleave attack should install the walk hijacker")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := run([]string{"-N", "256", "-steps", "20", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	// A run that fails after profiling started still closes its profiles.
	cpu2 := filepath.Join(dir, "cpu2.out")
	if err := run([]string{"-N", "256", "-steps", "20", "-schedule", "bogus", "-cpuprofile", cpu2}); err == nil {
		t.Fatal("run accepted an unknown schedule")
	}
	if st, err := os.Stat(cpu2); err != nil || st.Size() == 0 {
		t.Errorf("profile of a failed run missing or empty: %v", err)
	}
}
