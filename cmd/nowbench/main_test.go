package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nowover"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("parseConfig(nil): %v", err)
	}
	if !reflect.DeepEqual(c.selected, nowover.ExperimentIDs()) {
		t.Errorf("default selection = %v, want all experiment IDs", c.selected)
	}
	if c.seed != 1 || c.grouped != (nowover.DefaultConfig(0).Shuffle == nowover.ShuffleGrouped) || c.full || c.parallel != 0 || c.maxN != 0 || c.opsPerStep != 0 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestParseConfigSelection(t *testing.T) {
	c, err := parseConfig([]string{"-exp", "E1, E4"})
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if want := []string{"E1", "E4"}; !reflect.DeepEqual(c.selected, want) {
		t.Errorf("selection = %v, want %v", c.selected, want)
	}
}

func TestParseConfigUnknownExperiment(t *testing.T) {
	_, err := parseConfig([]string{"-exp", "E1,E999"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("want unknown-experiment error, got %v", err)
	}
}

func TestParseConfigBadFlag(t *testing.T) {
	if _, err := parseConfig([]string{"-no-such-flag"}); err == nil {
		t.Error("want error for unknown flag")
	}
	if _, err := parseConfig([]string{"-parallel", "-1"}); err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("want -parallel usage error for a negative worker count, got %v", err)
	}
}

func TestParseConfigStrayArgs(t *testing.T) {
	_, err := parseConfig([]string{"stray"})
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("want stray-argument error, got %v", err)
	}
}

func TestScaleDerivation(t *testing.T) {
	c, err := parseConfig([]string{"-seed", "7", "-parallel", "3"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.scale()
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Parallel != 3 {
		t.Errorf("scale seed/parallel = %d/%d, want 7/3", s.Seed, s.Parallel)
	}

	c2, err := parseConfig([]string{"-max-n", "65536"})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.scale()
	if err != nil {
		t.Fatal(err)
	}
	if top := s2.Ns[len(s2.Ns)-1]; top != 65536 {
		t.Errorf("extended sweep tops out at %d, want 65536", top)
	}
}

// TestParseConfigMaxN2e20 covers the million-node grid: 2^20 extends both
// standard scales exactly, and unreachable bounds are usage errors at
// parse time, not silent caps hours into a sweep.
func TestParseConfigMaxN2e20(t *testing.T) {
	for _, args := range [][]string{
		{"-max-n", "1048576"},
		{"-full", "-max-n", "1048576"},
	} {
		c, err := parseConfig(args)
		if err != nil {
			t.Fatalf("parseConfig(%v): %v", args, err)
		}
		s, err := c.scale()
		if err != nil {
			t.Fatalf("scale(%v): %v", args, err)
		}
		if top := s.Ns[len(s.Ns)-1]; top != 1<<20 {
			t.Errorf("%v: sweep tops out at %d, want %d", args, top, 1<<20)
		}
	}
	// 10^6 is not on the doubling grid; the old code silently ran 2^19.
	if _, err := parseConfig([]string{"-max-n", "1000000"}); err == nil ||
		!strings.Contains(err.Error(), "524288 or 1048576") {
		t.Errorf("parseConfig(-max-n 1000000) = %v, want nearest-grid-top usage error", err)
	}
	if _, err := parseConfig([]string{"-full", "-max-n", "100"}); err == nil {
		t.Error("parseConfig(-max-n below grid top) must error")
	}
}

// TestFingerprintMatchesCommittedJournal pins the flag fingerprint: the
// flags that recorded results/sweep2e20.journal must reproduce its header
// fingerprint exactly. The journal was recorded with the per-receiver
// cascade, so its flags name -grouped-cascade=false. Its cells ran on
// worlds with coin-per-pair overlays, so resuming it is still refused, on
// the construction revision alone.
func TestFingerprintMatchesCommittedJournal(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "results", "sweep2e20.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var header struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(f).Decode(&header); err != nil {
		t.Fatalf("journal header: %v", err)
	}
	c, err := parseConfig([]string{"-full", "-max-n", "1048576", "-exp", "E4,E5", "-grouped-cascade=false"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.scale()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.fingerprint(s); got != header.Fingerprint {
		t.Errorf("fingerprint drifted from the committed journal:\n got  %s\n want %s", got, header.Fingerprint)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(t.TempDir(), "sweep2e20.journal")
	if err := os.WriteFile(resumed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := nowover.OpenCheckpointJournal(resumed, c.fingerprint(s), nil)
	if err == nil {
		j.Close()
		t.Fatal("the committed journal's coin-per-pair cells resumed")
	}
	if !strings.Contains(err.Error(), "construction revision 0") {
		t.Errorf("refused for another reason: %v", err)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := run([]string{"-exp", "E3", "-parallel", "1", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	if err := run([]string{"-exp", "E3", "-cpuprofile", filepath.Join(dir, "no", "such", "cpu.out")}); err == nil {
		t.Error("run accepted an uncreatable -cpuprofile path")
	}
}
