package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"nowover/internal/core"
	"nowover/internal/experiments"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/over"
	"nowover/internal/randnum"
	"nowover/internal/sim"
	"nowover/internal/xrand"
)

// The traced pass of a churn workload: one set-up, then
//
//	(a) the first quarter of the units, driven exactly as the untraced pass
//	    drives them (so it ends at the fingerprint the untraced pass prints
//	    at that unit), with a span per unit and the world's randNum
//	    generator wrapped by a counting-only delegate;
//	(b) the same world driven directly — JoinAuto / Leave alternately, or
//	    on churn_batched 16-op lists through ExecBatch, each list then
//	    replayed serially on a second world of the same seed;
//	(c) probes against the post-run world or standalone values.
//
// Times here are as the clock reads them — but for the two numbers that set
// one phase against another, bench.traced_ops_per_s and sim.overhead_share —
// and the pass prints its host factors.

// countingGen delegates every draw and only counts; plan workers draw
// concurrently on churn_batched.
type countingGen struct {
	inner randnum.Generator
	draws atomic.Int64
}

func (g *countingGen) Draw(led *metrics.Ledger, r *xrand.Rand, p randnum.Params, obj randnum.Objective) (int64, randnum.Security, error) {
	g.draws.Add(1)
	return g.inner.Draw(led, r, p, obj)
}

// allocMeter sums allocation over the calls it brackets, and nothing
// between them.
type allocMeter struct {
	from, to       runtime.MemStats
	bytes, mallocs uint64
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.from) }
func (a *allocMeter) stop() {
	runtime.ReadMemStats(&a.to)
	a.bytes += a.to.TotalAlloc - a.from.TotalAlloc
	a.mallocs += a.to.Mallocs - a.from.Mallocs
}

// directDrive is what phase (b) measured.
type directDrive struct {
	joins, leaves  []float64 // us per op
	total          time.Duration
	structural     time.Duration // in ops that split or merged
	ops            int
	alloc          allocMeter
	batches        []float64 // ms per ExecBatch
	batchTime      time.Duration
	batchOps       int
	conflict, tail int // deferred ops: footprint conflicts, all
}

const (
	directOps   = 200 // phase (b), classic: ops driven directly
	directLists = 16  // phase (b), batched: 16-op lists
	listOps     = 16
)

func traceChurn(ctx context.Context, out io.Writer, spec churnSpec, seed uint64, seconds float64, tr *tracer) (*report, error) {
	quarter := max(1, unitCount(spec.rate, seconds)/4)
	reps := 1.0 // probe repetitions, relative
	if spec.small {
		reps = 0.1
	}
	fmt.Fprintf(out, "traced pass: world N=%d initial=%d shards=%d ops_per_step=%d; %d units of Continue(nil, %d) after %d warm-up units, then direct drive and probes\n",
		spec.n, spec.n0, spec.shards, spec.opsPerStep, quarter, spec.stepsPerUnit, spec.warmup)

	root := tr.begin("workload", 0, 0)
	v := make(map[string]float64, len(perLayer))
	m := newMeter()

	if spec.probeN > 0 {
		// Dropped before anything else is timed.
		id := tr.begin("probe.core", root, 0)
		big := spec
		big.n, big.n0 = spec.probeN, spec.probeN/2
		cfg, _ := big.config(seed, nil)
		base := heapAfterGC()
		t0 := time.Now()
		r, err := sim.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("N=%d probe: %w", spec.probeN, err)
		}
		v["core.bootstrap_2e20_ms"] = ms(time.Since(t0))
		v["core.heap_2e20_mb"] = (heapAfterGC() - base) / (1 << 20)
		runtime.KeepAlive(r)
		r = nil
		runtime.GC()
		tr.end(id)
	}

	// The one set-up, its two halves timed apart.
	gen := &countingGen{inner: randnum.Ideal{}}
	cfg, wave := spec.config(seed, gen)
	setup := tr.begin("setup", root, 0)
	base := heapAfterGC()
	m.reread()
	m.start()
	t0 := time.Now()
	r, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	v["core.bootstrap_ns_per_node"] = float64(time.Since(t0)) / float64(spec.n0)
	t0 = time.Now()
	if err := core.CheckInvariants(r.World()); err != nil {
		return nil, fmt.Errorf("pre-run invariants: %w", err)
	}
	v["core.check_invariants_ms"] = ms(time.Since(t0))
	m.stop()
	v["core.heap_bytes_per_node"] = (heapAfterGC() - base) / float64(spec.n0)
	tr.end(setup)

	run := &churnRun{spec: spec, r: r, wave: wave, m: m}
	for i := 0; i < spec.warmup; i++ {
		if _, err := run.advance(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	w := r.World()
	ledger := w.Ledger().Snapshot()

	// (a) The first quarter, as untraced.
	gen.draws.Store(0)
	stats := w.Stats()
	m.reread()
	for u := 0; u < quarter; u++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("stopped after %d of %d units: %w", u, quarter, err)
		}
		run.unit(tr, root, u)
	}
	run.checkpoint(out, "quarter")
	if run.ops == 0 {
		return nil, fmt.Errorf("no unit of phase (a) succeeded")
	}
	v["randnum.draws_per_op"] = perOp(gen.draws.Load(), run.ops)
	v["bench.traced_ops_per_s"] = summarize(run.units, true, true).opsPerS
	var continued, continuedNominal time.Duration
	for _, u := range run.units {
		continued += u.wall
		continuedNominal += onNominalHost(u.wall, u.factor)
	}
	v["sim.step_us_mean"] = us(continued) / float64(len(run.units)*spec.stepsPerUnit)
	joinsA, leavesA := w.Stats().Joins-stats.Joins, w.Stats().Leaves-stats.Leaves

	// (b) The same world, driven directly. One host factor for the phase,
	// from the readings at its ends: sim.overhead_share sets it against
	// phase (a), and the host may have changed pace between them.
	var d directDrive
	m.start()
	if spec.opsPerStep > 1 {
		err = d.batched(ctx, tr, root, spec, seed, w, int(reps*directLists)+2)
	} else {
		err = d.classic(ctx, tr, root, seed, w, int(reps*directOps)+2, wave != nil)
	}
	_, _, directFactor := m.stop()
	if err != nil {
		return nil, fmt.Errorf("direct drive: %w", err)
	}
	v["core.join_us_p50"] = quantile(d.joins, 0.5)
	v["core.leave_us_p50"] = quantile(d.leaves, 0.5)
	v["core.leave_us_p90"] = quantile(d.leaves, 0.9)
	v["core.structural_share"] = float64(d.structural) / float64(d.total)
	v["core.alloc_bytes_per_op"] = float64(d.alloc.bytes) / float64(d.ops)
	v["core.allocs_per_op"] = float64(d.alloc.mallocs) / float64(d.ops)
	perContinued := float64(continuedNominal) / float64(run.ops)
	if spec.opsPerStep > 1 {
		v["core.exec_batch_ms_p50"] = quantile(d.batches, 0.5)
		v["core.deferred_share"] = float64(d.tail) / float64(d.batchOps)
		v["core.defer_conflict_share"] = float64(d.conflict) / float64(d.batchOps)
		v["core.defer_structural_share"] = float64(d.tail-d.conflict) / float64(d.batchOps)
		v["core.batched_speedup"] = float64(d.total) / float64(d.batchTime)
		v["sim.overhead_share"] = 1 - float64(d.batchTime)/directFactor/float64(d.batchOps)/perContinued
	} else if wave == nil {
		// What phase (a)'s mix of joins and leaves costs when driven
		// directly, against what Continue took for it. Under a wave the two
		// phases run at different sizes and the share would mean nothing.
		direct := float64(joinsA)*mean(d.joins) + float64(leavesA)*mean(d.leaves)
		v["sim.overhead_share"] = 1 - direct*1e3/directFactor/float64(continuedNominal)
	}
	cost := w.Ledger().Since(ledger)
	for name, class := range map[string]metrics.Class{
		"walk": metrics.ClassWalk, "randnum": metrics.ClassRandNum, "exchange": metrics.ClassExchange,
		"cascade": metrics.ClassCascade, "intra": metrics.ClassIntraCluster, "inter": metrics.ClassInterCluster,
		"agreement": metrics.ClassAgreement,
	} {
		v["core.msgs_share_"+name] = float64(cost.ByClass[class]) / float64(cost.Messages)
	}

	// (c) Probes.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("stopped before the probes: %w", err)
	}
	if err := churnProbes(tr, root, v, w, seed, reps); err != nil {
		return nil, err
	}
	tr.end(root)

	rep := &report{attempted: run.attempted, failed: run.failed, correct: true, values: v}
	if err := run.oracle(); err != nil {
		fmt.Fprintf(out, "INCORRECT: %v\n", err)
		rep.correct = false
	}
	harnessHealth(rep, m)
	return rep, nil
}

// classic drives n ops on w: JoinAuto and Leave alternately, or — where
// the workload's size follows a wave, and phase (a) was its joins-only half
// — n/2 leaves and then n/2 joins, as the wave would go on, so that the
// merges and splits of a resize are among the ops timed.
func (d *directDrive) classic(ctx context.Context, tr *tracer, root int, seed uint64, w *core.World, n int, wave bool) error {
	pick := xrand.New(seed ^ 0xD12EC7)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		join := i%2 == 0
		if wave {
			join = i >= n/2
		}
		if err := d.op(tr, root, i, w, pick, join); err != nil {
			return err
		}
	}
	return nil
}

// op times one JoinAuto or one Leave of a uniform victim.
func (d *directDrive) op(tr *tracer, parent, idx int, w *core.World, pick *xrand.Rand, join bool) error {
	before := w.Stats()
	var err error
	var took time.Duration
	if join {
		id := tr.begin("core.join", parent, idx)
		d.alloc.start()
		t0 := time.Now()
		_, err = w.JoinAuto(false)
		took = time.Since(t0)
		d.alloc.stop()
		tr.end(id)
		d.joins = append(d.joins, us(took))
	} else {
		x, ok := w.RandomNode(pick)
		if !ok {
			return fmt.Errorf("no node to leave")
		}
		id := tr.begin("core.leave", parent, idx)
		d.alloc.start()
		t0 := time.Now()
		err = w.Leave(x)
		took = time.Since(t0)
		d.alloc.stop()
		tr.end(id)
		d.leaves = append(d.leaves, us(took))
	}
	if err != nil {
		return err
	}
	d.ops++
	d.total += took
	if after := w.Stats(); after.Splits != before.Splits || after.Merges != before.Merges {
		d.structural += took
	}
	return nil
}

// batched drives lists of 16 ops (8 joins, 8 leaves of distinct victims)
// through ExecBatch on w, and replays each list's shape serially on a twin
// world of the same seed, alternating.
func (d *directDrive) batched(ctx context.Context, tr *tracer, root int, spec churnSpec, seed uint64, w *core.World, lists int) error {
	cfg, _ := spec.config(seed, nil)
	cfg.OpsPerStep = 0
	twinRunner, err := sim.New(cfg)
	if err != nil {
		return fmt.Errorf("twin world: %w", err)
	}
	twin := twinRunner.World()
	pick, twinPick := xrand.New(seed^0xD12EC7), xrand.New(seed^0x7C1)
	ops := make([]core.Op, 0, listOps)
	victims := make(ids.NodeSet, listOps)
	var alloc allocMeter
	for l := 0; l < lists; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ops = ops[:0]
		clear(victims)
		for len(ops) < listOps {
			if len(ops)%2 == 0 {
				ops = append(ops, core.Op{Kind: core.OpJoin})
				continue
			}
			if x, ok := w.RandomNode(pick); ok && victims.Add(x) {
				ops = append(ops, core.Op{Kind: core.OpLeave, Victim: x})
			}
		}
		id := tr.begin("core.exec_batch", root, l)
		alloc.start()
		t0 := time.Now()
		results := w.ExecBatch(ops)
		took := time.Since(t0)
		alloc.stop()
		tr.end(id)
		d.batches = append(d.batches, ms(took))
		d.batchTime += took
		d.batchOps += len(ops)
		for _, res := range results {
			if res.Err != nil && !core.IsUnknownNode(res.Err) && !core.IsUnknownCluster(res.Err) {
				return res.Err
			}
			if res.Deferred {
				d.tail++
				if res.DeferReason == "footprint conflict" {
					d.conflict++
				}
			}
		}

		id = tr.begin("core.serial_twin", root, l)
		for i := range ops {
			if err := d.op(tr, id, l*listOps+i, twin, twinPick, i%2 == 0); err != nil {
				return fmt.Errorf("twin: %w", err)
			}
		}
		tr.end(id)
	}
	// The allocation figures are ExecBatch's, not the twin's.
	d.alloc, d.ops = alloc, d.batchOps
	return core.CheckInvariants(twin)
}

// churnProbes times single layers through their public calls, against the
// post-run world or standalone values.
func churnProbes(tr *tracer, root int, v map[string]float64, w *core.World, seed uint64, reps float64) error {
	n := func(full int) int { return max(2, int(reps*float64(full))) }
	r := xrand.New(seed ^ 0x9A0BE)
	var led metrics.Ledger
	var err error

	id := tr.begin("probe.xrand", root, 0)
	v["xrand.uint64_ns"] = perCallNS(n(1_000_000), func() { probeSink += r.Uint64() })
	var sub xrand.Rand
	v["xrand.split_into_ns"] = perCallNS(n(200_000), func() { r.SplitInto(&sub, probeSink) })
	tr.end(id)

	id = tr.begin("probe.walk", root, 0)
	walker := w.Walker()
	walks := n(2000)
	took := make([]float64, 0, walks)
	hops := 0
	for i := 0; i < walks; i++ {
		start, ok := w.RandomCluster(r)
		if !ok {
			return fmt.Errorf("walk probe: no cluster")
		}
		t0 := time.Now()
		res, err := walker.Biased(&led, r, start)
		if err != nil {
			return fmt.Errorf("walk probe: %w", err)
		}
		took = append(took, us(time.Since(t0)))
		hops += res.Hops
	}
	tr.end(id)
	v["walk.biased_us_p50"] = quantile(took, 0.5)
	v["walk.biased_us_p90"] = quantile(took, 0.9)
	v["walk.hops_mean"] = float64(hops) / float64(walks)
	v["walk.msgs_per_walk"] = float64(led.Messages()) / float64(walks)

	id = tr.begin("probe.randnum", root, 0)
	params := randnum.Params{Size: 24, Byz: 3, R: 1 << 16}
	for name, gen := range map[string]randnum.Generator{
		"randnum.ideal_draw_ns": randnum.Ideal{}, "randnum.commit_reveal_draw_ns": randnum.CommitReveal{},
	} {
		v[name] = perCallNS(n(100_000), func() {
			if err == nil {
				_, _, err = gen.Draw(&led, r, params, nil)
			}
		})
	}
	tr.end(id)
	if err != nil {
		return fmt.Errorf("randnum probe: %w", err)
	}

	id = tr.begin("probe.exchange", root, 0)
	runs := n(300)
	took = took[:0]
	before := w.Ledger().Messages()
	for i := 0; i < runs; i++ {
		c, ok := w.RandomCluster(r)
		if !ok {
			return fmt.Errorf("exchange probe: no cluster")
		}
		t0 := time.Now()
		if err := w.ForceExchange(c); err != nil {
			return fmt.Errorf("exchange probe: %w", err)
		}
		took = append(took, us(time.Since(t0)))
	}
	tr.end(id)
	v["exchange.run_us_p50"] = quantile(took, 0.5)
	v["exchange.run_us_p90"] = quantile(took, 0.9)
	v["exchange.msgs_per_run"] = float64(w.Ledger().Messages()-before) / float64(runs)

	// A standalone overlay at the workload's cluster count, a uniform
	// picker in place of the world's walks.
	id = tr.begin("probe.over", root, 0)
	cfg := w.Config()
	o, err := over.New(over.Params{TargetDegree: cfg.TargetDegree(), DegreeCap: cfg.DegreeCap(),
		DegreeFloor: cfg.DegreeFloor(), Repair: cfg.OverlayRepair})
	if err != nil {
		return fmt.Errorf("over probe: %w", err)
	}
	k := w.NumClusters()
	vertices := make([]ids.ClusterID, k)
	for i := range vertices {
		vertices[i] = ids.ClusterID(i + 1)
	}
	if _, err := o.Bootstrap(r, vertices, min(1, float64(cfg.TargetDegree())/float64(max(1, k-1)))); err != nil {
		return fmt.Errorf("over probe: %w", err)
	}
	pickVertex := func(ids.ClusterID) (ids.ClusterID, bool) { return o.VertexAt(r.Intn(o.NumVertices())), true }
	budget := cfg.TargetDegree() * cfg.EdgeAttemptFactor
	var adding, removing time.Duration
	pairs := n(500)
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		if _, err := o.Add(&led, ids.ClusterID(k+1+i), pickVertex, budget); err != nil {
			return fmt.Errorf("over probe: %w", err)
		}
		adding += time.Since(t0)
		victim := o.VertexAt(r.Intn(o.NumVertices()))
		t0 = time.Now()
		if _, err := o.Remove(&led, victim, pickVertex, budget); err != nil {
			return fmt.Errorf("over probe: %w", err)
		}
		removing += time.Since(t0)
	}
	tr.end(id)
	v["over.add_us_mean"] = us(adding) / float64(pairs)
	v["over.remove_us_mean"] = us(removing) / float64(pairs)

	id = tr.begin("probe.core", root, 1)
	v["core.audit_us"] = perCallNS(n(50), func() { probeSink += uint64(w.Audit().Clusters) }) / 1e3
	tr.end(id)

	id = tr.begin("probe.metrics", root, 0)
	v["metrics.ledger_charge_ns"] = perCallNS(n(2_000_000), func() { led.Charge(metrics.ClassWalk, 3) })
	digest := metrics.NewDigest(100)
	v["metrics.digest_add_ns"] = perCallNS(n(500_000), func() { digest.Add(r.Float64()) })
	tr.end(id)

	id = tr.begin("probe.experiments", root, 0)
	cellN := 1024
	if reps < 1 {
		cellN = 256
	}
	t0 := time.Now()
	if _, err := experiments.E6OperationCost(experiments.Scale{Ns: []int{cellN}, OpsFactor: 1, Trials: 1, Walks: 1, Seed: seed}); err != nil {
		return fmt.Errorf("experiments probe: %w", err)
	}
	v["experiments.e6_cell_ms"] = ms(time.Since(t0))
	tr.end(id)
	return nil
}

// probeSink keeps the compiler from dropping a probe's call.
var probeSink uint64

// harnessHealth fills the bench.* metrics every traced pass reports.
func harnessHealth(rep *report, m *meter) {
	rep.factors = m.factors
	f := append([]float64(nil), m.factors...)
	rep.values["bench.host_factor_p50"] = quantile(f, 0.5)
	rep.values["bench.host_factor_p90"] = quantile(f, 0.9)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.values["bench.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}

// heapAfterGC is the live heap, in bytes, once garbage is collected.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
