package sim

import (
	"testing"

	"nowover/internal/core"
	"nowover/internal/workload"
)

func TestFlashCrowdSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd sweep skipped in -short mode")
	}
	// A join storm doubling the network inside a window, then mass
	// departure back to base — splits on the way up, merges on the way
	// down, invariants throughout.
	cfg := Config{
		Core:             core.DefaultConfig(1024),
		InitialSize:      250,
		Tau:              0.10,
		Schedule:         workload.FlashCrowd{Base: 250, Peak: 500, SpikeAt: 100, SpikeLen: 300},
		Steps:            700,
		Seed:             31,
		ConsistencyEvery: 100,
	}
	cfg.Core.Seed = 31
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakSize < 480 {
		t.Errorf("spike not realized: peak %d", res.PeakSize)
	}
	if res.Final.Nodes > 300 {
		t.Errorf("did not return to base: %d", res.Final.Nodes)
	}
	if res.Stats.Splits == 0 || res.Stats.Merges == 0 {
		t.Errorf("splits=%d merges=%d; flash crowd should force both",
			res.Stats.Splits, res.Stats.Merges)
	}
	if !res.Final.OverlayConnected {
		t.Error("overlay disconnected after flash crowd")
	}
	if res.CapturedSteps > 0 {
		t.Errorf("captured dwell %d steps at tau=0.10", res.CapturedSteps)
	}
}

func TestNoShuffleAblationConfig(t *testing.T) {
	// The fully shuffle-less configuration must still run and preserve
	// bookkeeping (it is the E11 strawman).
	cfg := Config{
		Core:             core.DefaultConfig(1024),
		InitialSize:      300,
		Tau:              0.15,
		Steps:            120,
		Seed:             33,
		ConsistencyEvery: 30,
	}
	cfg.Core.Seed = 33
	cfg.Core.Shuffle = core.ShuffleOff
	res, err := mustRun(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Swaps != 0 {
		t.Errorf("no-shuffle config performed %d swaps", res.Stats.Swaps)
	}
	if res.Steps != 120 {
		t.Errorf("steps = %d", res.Steps)
	}
}
