package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"time"

	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/randnum"
	"nowover/internal/sim"
)

// churnSpec is one of the three simulator workloads: a core.DefaultConfig
// world (exchange on join and leave, per-receiver leave cascade, Ideal
// randNum, K = 2) under benign RandomChurn at tau = 0.15, driven through
// sim.Runner — the path nowsim and the E-series cells run — in units of
// Continue(nil, stepsPerUnit). Work is a fixed unit count, never a
// deadline, so two commits do identical work and, per seed, the simulated
// counts and the fingerprints repeat exactly.
type churnSpec struct {
	name         string
	n, n0        int         // core.Config.N and sim.Config.InitialSize
	shards       int         // core.Config.Shards (0: the serial layout)
	opsPerStep   int         // sim.Config.OpsPerStep (0: the classic driver)
	stepsPerUnit int         // steps per Continue, the timed unit
	rate         float64     // units per second of --seconds
	warmup       int         // untimed units after the last set-up
	setupBuilds  int         // builds timed as one set-up; setup_s is their mean
	maxProcs     int         // GOMAXPROCS is min(nproc, maxProcs)
	probeN       int         // traced pass: also time one sim.New at this N (0: none)
	wave         *squareWave // churn_resize: the size schedule; nil is steady
	small        bool        // the smoke scale: the traced pass shortens its probes
}

// The rates are the only calibrated numbers: they make a run take 18-30 s
// from process start to exit at --seconds 25 on a 2-vCPU host of the
// class refNominal describes. N, shapes and unit sizes are the workload.
// setupBuilds makes one timed set-up 40-80 ms: a 128-node world is built in
// 80 us, which two readings of 12 ms cannot scale.
var churnSpecs = map[string]churnSpec{
	// An E6 cell cut short, inside the E6 tail (N = 32768..2^20): walk ->
	// randnum -> exchange do nearly all the work, the ~20 MB working set
	// is beyond the 4 MB private cache as at 2^20, no split or merge
	// happens. 8 steps a unit keeps the two Audits every Continue takes at
	// ~5% of it, as in an E6 cell.
	"churn_large": {name: "churn_large", n: 1 << 18, n0: 1 << 17,
		stepsPerUnit: 8, rate: 6.4, warmup: 2, setupBuilds: 1, maxProcs: 1, probeN: 1 << 20},
	// The paper's headline regime, size varying polynomially: 128 -> 2048
	// by joins only, back by leaves only, ~60 splits and ~60 merges a
	// cycle. Anything keyed on a stable cluster set pays here.
	"churn_resize": {name: "churn_resize", n: 4096, n0: 128,
		stepsPerUnit: 32, rate: 9.6, setupBuilds: 1024, maxProcs: 1,
		wave: &squareWave{lo: 128, hi: 2048, half: 1920}},
	// The same joins and leaves through plan -> admit -> apply -> serial
	// tail: the only workload the scheduler, the shard locks and the
	// per-op RNG substreams work in. One unit is one stepBatch, one
	// ExecBatch of 16 ops.
	"churn_batched": {name: "churn_batched", n: 1 << 14, n0: 1 << 13, shards: 4, opsPerStep: 16,
		stepsPerUnit: 1, rate: 5.6, warmup: 8, setupBuilds: 16, maxProcs: 4},
}

// smoke shrinks the world for the test suite; shapes and unit sizes stay.
func (s churnSpec) smoke() churnSpec {
	s.small, s.setupBuilds = true, 2
	switch s.name {
	case "churn_large":
		s.n, s.n0, s.probeN = 2048, 1024, 4096
	case "churn_resize":
		s.n, s.n0 = 256, 32
		s.wave = &squareWave{lo: 32, hi: 128, half: 96}
	case "churn_batched":
		s.n, s.n0 = 512, 256
	}
	return s
}

// unitCount is the fixed amount of work of a run.
func unitCount(rate, seconds float64) int { return max(4, int(rate*seconds)) }

// squareWave is churn_resize's schedule: target hi for half steps (joins
// only), then lo for half steps (leaves only). Runner.Continue restarts
// its step counter at 0, so the wave keeps a running base the driver
// advances after each unit. half is a multiple of the unit size: a unit
// never straddles an edge.
type squareWave struct {
	lo, hi, half int
	base         int
}

func (w *squareWave) TargetSize(step int) int {
	if w.shrinking(step) {
		return w.lo
	}
	return w.hi
}

func (w *squareWave) shrinking(step int) bool { return (w.base+step)/w.half%2 == 1 }

func (w *squareWave) Name() string {
	return fmt.Sprintf("square(%d..%d,half=%d)", w.lo, w.hi, w.half)
}

// config is the world of one set-up. gen, when not nil, replaces the
// world's randNum generator (the traced pass counts draws with it).
func (s churnSpec) config(seed uint64, gen randnum.Generator) (sim.Config, *squareWave) {
	cfg := sim.Config{
		Core:          core.DefaultConfig(s.n),
		InitialSize:   s.n0,
		Tau:           0.15,
		SampleOpCosts: true,
		Seed:          seed,
		OpsPerStep:    s.opsPerStep,
	}
	cfg.Core.Seed = seed
	cfg.Core.Shards = s.shards
	if gen != nil {
		cfg.Core.Generator = gen
	}
	if s.wave == nil {
		return cfg, nil
	}
	wave := *s.wave
	cfg.Schedule = &wave
	return cfg, &wave
}

// build is one set-up: sim.New plus the pre-run invariant check.
func (s churnSpec) build(seed uint64) (*sim.Runner, *squareWave, error) {
	cfg, wave := s.config(seed, nil)
	r, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := core.CheckInvariants(r.World()); err != nil {
		return nil, nil, fmt.Errorf("pre-run invariants: %w", err)
	}
	return r, wave, nil
}

// churnRun drives one world in timed units and keeps the sums the
// end-to-end metrics are made of.
type churnRun struct {
	spec  churnSpec
	r     *sim.Runner
	wave  *squareWave
	m     *meter
	units []unit

	ops, msgs, rounds int64
	attempted, failed int
}

// advance is one Continue of the unit's size, the wave moved on with it.
func (c *churnRun) advance() (*sim.Result, error) {
	res, err := c.r.Continue(nil, c.spec.stepsPerUnit)
	if c.wave != nil {
		c.wave.base += c.spec.stepsPerUnit
	}
	return res, err
}

// unit runs and accounts one timed unit. On churn_resize only the
// leaves-only units are latency samples: a join unit costs a fifteenth of
// a leave unit, so mixing them would put p50 on the boundary.
func (c *churnRun) unit(tr *tracer, parent, idx int) {
	latency := c.wave == nil || c.wave.shrinking(0)
	id := tr.begin("unit", parent, idx)
	c.m.start()
	cid := tr.begin("sim.continue", id, idx)
	res, err := c.advance()
	tr.end(cid)
	wall, cpu, factor := c.m.stop()
	tr.end(id)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	ops := res.Steps
	if c.spec.opsPerStep > 1 {
		ops = res.BatchedOps
	}
	c.units = append(c.units, unit{wall: wall, cpu: cpu, factor: factor, ops: ops, latency: latency})
	c.ops += int64(ops)
	c.msgs += res.TotalCost.Messages
	c.rounds += res.TotalCost.Rounds
}

// checkpoint prints what the two passes of one seed must agree on after
// the same number of units: the world's fingerprint and the exact counts.
func (c *churnRun) checkpoint(out io.Writer, label string) {
	fmt.Fprintf(out, "%s units=%d ops=%d fingerprint=%016x msgs_per_op=%v rounds_per_op=%v\n",
		label, c.attempted, c.ops, worldFingerprint(c.r.World()),
		perOp(c.msgs, c.ops), perOp(c.rounds, c.ops))
}

func perOp(total, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}

// oracle is the post-run correctness check.
func (c *churnRun) oracle() error {
	w := c.r.World()
	if err := core.CheckInvariants(w); err != nil {
		return fmt.Errorf("post-run invariants: %w", err)
	}
	if a := w.Audit(); !a.OverlayConnected {
		return fmt.Errorf("post-run audit: overlay disconnected (%v)", a)
	}
	return nil
}

// worldFingerprint hashes the world's observable protocol state: sorted
// membership with allegiances, the lifetime counters and the ledger
// totals. Equal fingerprints mean the same ops ran with the same outcomes.
func worldFingerprint(w *core.World) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	clusters := slices.Clone(w.Clusters())
	slices.Sort(clusters)
	var members []ids.NodeID
	for _, c := range clusters {
		members = members[:0]
		for i, n := 0, w.Size(c); i < n; i++ {
			members = append(members, w.MemberAt(c, i))
		}
		slices.Sort(members)
		put(uint64(c))
		put(uint64(len(members)))
		put(uint64(w.Byz(c)))
		for _, x := range members {
			v := uint64(x) << 1
			if w.IsByzantine(x) {
				v |= 1
			}
			put(v)
		}
	}
	st := w.Stats()
	for _, v := range []int64{st.Joins, st.Leaves, st.Splits, st.Merges, st.Swaps,
		int64(w.NumNodes()), w.Ledger().Messages(), w.Ledger().Rounds()} {
		put(uint64(v))
	}
	return h.Sum64()
}

// setUps is how often the untraced pass sets up; setup_s is the median.
// One set-up is as short as a unit, and single ones scatter by a fifth.
const setUps = 5

// runChurn is the untraced pass: the set-ups, the warm-up, the timed units,
// the oracle.
func runChurn(ctx context.Context, out io.Writer, spec churnSpec, seed uint64, seconds float64) (*report, error) {
	units := unitCount(spec.rate, seconds)
	fmt.Fprintf(out, "world N=%d initial=%d shards=%d ops_per_step=%d; %d units of Continue(nil, %d), warm-up %d units\n",
		spec.n, spec.n0, spec.shards, spec.opsPerStep, units, spec.stepsPerUnit, spec.warmup)

	// Sized now, so that the harness's own appends are not in alloc_kb_per_op.
	m := newMeter()
	m.factors = make([]float64, 0, setUps+units)
	run := &churnRun{spec: spec, m: m, units: make([]unit, 0, units)}

	// Set-up, several times: the worlds are dropped and collected before
	// the next is timed, the last world is kept.
	var setups, setupsRaw []float64
	sinceStart := time.Since(processStart)
	for i := 0; i < setUps; i++ {
		run.r, run.wave = nil, nil
		runtime.GC()
		m.reread()
		m.start()
		for b := 0; b < spec.setupBuilds; b++ {
			r, wave, err := spec.build(seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			run.r, run.wave = r, wave
		}
		wall, _, factor := m.stop()
		wall /= time.Duration(spec.setupBuilds)
		setups = append(setups, onNominalHost(wall, factor).Seconds())
		setupsRaw = append(setupsRaw, wall.Seconds())
	}
	fmt.Fprintf(out, "set-ups (each the mean of %d builds) on the nominal host %.3g s; process start to first set-up %.3f s\n",
		spec.setupBuilds, setups, sinceStart.Seconds())

	for i := 0; i < spec.warmup; i++ {
		if _, err := run.advance(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	quarter := max(1, units/4)
	m.reread()
	allocated := totalAlloc()
	for u := 0; u < units; u++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("stopped after %d of %d units: %w", u, units, err)
		}
		run.unit(nil, 0, u)
		if u+1 == quarter {
			// The traced pass of this seed must arrive here too. What the
			// fingerprint allocates is not the program's.
			skip := totalAlloc()
			run.checkpoint(out, "quarter")
			allocated += totalAlloc() - skip
			m.reread()
		}
	}
	allocated = totalAlloc() - allocated
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	run.checkpoint(out, "end")

	rep := &report{attempted: run.attempted, failed: run.failed, correct: true}
	if err := run.oracle(); err != nil {
		fmt.Fprintf(out, "INCORRECT: %v\n", err)
		rep.correct = false
	}
	rep.setTimes(run.units, true, median(setups), median(setupsRaw))
	rep.values["peak_rss_mb"] = rss
	rep.values["alloc_kb_per_op"] = perOp(int64(allocated), run.ops) / 1024
	rep.values["msgs_per_op"] = perOp(run.msgs, run.ops)
	rep.values["rounds_per_op"] = perOp(run.rounds, run.ops)
	rep.factors = m.factors
	return rep, nil
}
