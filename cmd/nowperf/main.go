// Command nowperf is the repository's benchmark: one invocation runs one
// workload untraced (--trace 0: the end-to-end metrics) or traced
// (--trace 1: the per-layer metrics and a span file), checks its outputs,
// prints every metric by name and unit, and ends with the result line the
// driver reads. Everything is measured from outside, by timing calls into
// public functions; see README.md for the tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

// report is what a pass hands back: the result line's fields, the named
// values, and what is printed beside them.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]float64 // by metric name
	raw               map[string]float64 // time metrics as the clock read them
	latSamples        int
	factors           []float64 // every host factor of the run
}

// setTimes fills the five time-valued end-to-end metrics, on the nominal
// host and raw.
func (r *report) setTimes(units []unit, scaleWall bool, setup, setupRaw float64) {
	nominal, raw := summarize(units, true, scaleWall), summarize(units, false, scaleWall)
	r.latSamples = nominal.latSamples
	r.values = map[string]float64{
		"setup_s": setup, "ops_per_s": nominal.opsPerS, "lat_ms_p50": nominal.latP50,
		"lat_ms_p90": nominal.latP90, "cpu_ms_per_op": nominal.cpuMsPerOp,
	}
	r.raw = map[string]float64{
		"setup_s": setupRaw, "ops_per_s": raw.opsPerS, "lat_ms_p50": raw.latP50,
		"lat_ms_p90": raw.latP90, "cpu_ms_per_op": raw.cpuMsPerOp,
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "churn_large, churn_resize, churn_batched or wire_tcp")
	seed := fs.Uint64("seed", 1, "sets Core.Seed and sim.Config.Seed, nothing else")
	seconds := fs.Float64("seconds", 25, "sizes the fixed unit count: units = rate x seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the span file")
	scale := fs.String("scale", "full", "full, or smoke: tiny worlds and 20 ms rounds for the tests")
	repeat := fs.Int("repeat", 0, "self-check: this many sets of ten runs per workload (all four unless --workload)")
	outDir := fs.String("out", filepath.Join("cmd", "nowperf", "out"), "where the traced pass writes trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") {
		fmt.Fprintf(stderr, "nowperf: bad arguments %q\n", args)
		return 2
	}
	if *repeat > 0 {
		return selfCheck(stdout, stderr, *workload, *repeat, *seconds, *scale)
	}

	churn, isChurn := churnSpecs[*workload]
	if !isChurn && *workload != "wire_tcp" {
		fmt.Fprintf(stderr, "nowperf: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	maxProcs := 2 // wire_tcp: five members' goroutines, mostly asleep
	if isChurn {
		if *scale == "smoke" {
			churn = churn.smoke()
		}
		maxProcs = churn.maxProcs
	}
	procs := min(runtime.NumCPU(), maxProcs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	fmt.Fprintf(stdout, "nowperf workload=%s trace=%d seed=%d seconds=%v scale=%s\n", *workload, *trace, *seed, *seconds, *scale)
	fmt.Fprintf(stdout, "commit=%s go=%s nproc=%d GOMAXPROCS=%d refNominal=%v\n",
		commit(), runtime.Version(), runtime.NumCPU(), procs, refNominal)
	fmt.Fprintf(stdout, "closed loop, one client, one process; times are on the nominal host (clock time / host factor) unless marked raw\n")

	// The watchdog: at 4 x --seconds the pass is told to stop at its next
	// unit boundary; a unit that never returns is abandoned soon after.
	// Either way the exit is non-zero and no result line is printed.
	limit := time.Duration(4 * *seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	type outcome struct {
		rep *report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		if procs == 1 {
			// One P and one thread: reading and unit share a CPU.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		var tr *tracer
		if *trace == 1 {
			tr = newTracer()
		}
		var o outcome
		switch {
		case isChurn && tr == nil:
			o.rep, o.err = runChurn(ctx, stdout, churn, *seed, *seconds)
		case isChurn:
			o.rep, o.err = traceChurn(ctx, stdout, churn, *seed, *seconds, tr)
		default:
			o.rep, o.err = runWire(ctx, stdout, *scale == "smoke", *seconds, tr)
		}
		if o.err == nil && tr != nil {
			path := filepath.Join(*outDir, "trace-"+*workload+".jsonl")
			if o.err = tr.write(path); o.err == nil {
				fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(tr.spans), path)
				printSelfTimes(stdout, tr.selfTimes())
			}
		}
		done <- o
	}()
	hung := time.NewTimer(limit + hungGrace)
	defer hung.Stop()
	select {
	case o := <-done:
		if o.err != nil {
			fmt.Fprintf(stderr, "nowperf: %s: %v\n", *workload, o.err)
			return 1
		}
		printReport(stdout, o.rep, *trace == 1)
		return 0
	case <-hung.C:
		fmt.Fprintf(stderr, "nowperf: %s: watchdog: a unit has not returned %v after the %v limit\n", *workload, hungGrace, limit)
		return 3
	}
}

// hungGrace is how long past the watchdog's limit a unit may take to reach
// its boundary; the slowest unit of any workload is under a second.
const hungGrace = 10 * time.Second

// commit asks git for the checkout's commit; the driver's checkout is not
// a repository, so no answer is normal.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printReport prints every metric of the pass by name and unit, the raw
// twins and host factors, and last the result line.
func printReport(w io.Writer, rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Fprintf(w, "%s %v %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	if !traced {
		fmt.Fprintf(w, "latency samples: %d\n", rep.latSamples)
		for _, d := range endToEnd {
			if v, ok := rep.raw[d.name]; ok {
				fmt.Fprintf(w, "raw %s %v %s\n", d.name, v, d.unit)
			}
		}
	}
	f := append([]float64(nil), rep.factors...)
	fmt.Fprintf(w, "host factor over %d readings: p25 %.3f p50 %.3f p75 %.3f p90 %.3f\n",
		len(f), quantile(f, 0.25), quantile(f, 0.5), quantile(f, 0.75), quantile(f, 0.9))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		// Only a NaN or an infinity can do this; a metric must never be one.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
