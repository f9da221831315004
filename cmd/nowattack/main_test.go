package main

import (
	"strings"
	"testing"

	"nowover"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("parseConfig(nil): %v", err)
	}
	if c.maxN != 2048 || c.tau != 0.30 || c.steps != 2000 || c.attack != "joinleave" {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestSimConfigArms(t *testing.T) {
	c, err := parseConfig([]string{"-attack", "dos", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.simConfig(true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Core.Shuffle != nowover.ShuffleGrouped {
		t.Errorf("shuffled arm runs shuffle mode %v, want %v", full.Core.Shuffle, nowover.ShuffleGrouped)
	}
	if _, ok := full.Strategy.(*nowover.DOSAttack); !ok {
		t.Errorf("strategy = %T, want *nowover.DOSAttack", full.Strategy)
	}
	if full.Seed != 3 || full.Core.Seed != 3 {
		t.Errorf("seed not threaded: sim %d core %d", full.Seed, full.Core.Seed)
	}

	ablated, err := c.simConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Core.Shuffle != nowover.ShuffleOff {
		t.Errorf("ablation arm runs shuffle mode %v, want %v", ablated.Core.Shuffle, nowover.ShuffleOff)
	}
}

func TestSimConfigUnknownAttack(t *testing.T) {
	c, err := parseConfig([]string{"-attack", "teleport"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.simConfig(true); err == nil || !strings.Contains(err.Error(), "unknown attack") {
		t.Errorf("want unknown-attack error, got %v", err)
	}
}
