package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The self-check does what the driver does before it accepts the
// benchmark: sets of ten untraced runs per workload, each run a process of
// its own on another seed; per metric, each set's median and quartile
// spread as a share of the median, and the shift between the sets'
// medians, against the metric's bound. It prints the raw (as the clock
// read) spread beside the nominal-host one: that column is the evidence
// that the reference earns its place.

const (
	runsPerSet = 10
	// coldBuild is one `go build` of this program with an empty cache on
	// the 2-vCPU host, measured; the driver's schedule holds two.
	coldBuild = 20 * time.Second
	// The driver's schedule and its limit, from the contract: 4 runs and
	// 22 more per workload.
	driverRuns  = 4 + 22*4
	driverLimit = 3420 * time.Second
)

// childRun is what one child process reported.
type childRun struct {
	values, raw map[string]float64
	failed      int
	correct     bool
	took        time.Duration
}

func selfCheck(stdout, stderr io.Writer, workload string, sets int, seconds float64, scale string) int {
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "nowperf: self-check: %v\n", err)
		return 1
	}
	ok := true
	var allRuns time.Duration
	for _, name := range names {
		runs := make([][]childRun, sets)
		var took time.Duration
		for s := range runs {
			for i := 0; i < runsPerSet; i++ {
				seed := s*runsPerSet + i + 1
				run, err := runChild(exe, name, seed, seconds, scale)
				if err != nil {
					fmt.Fprintf(stderr, "nowperf: self-check: %s seed %d: %v\n", name, seed, err)
					return 1
				}
				fmt.Fprintf(stdout, "%s set %d seed %d: %.1f s, failed %d, correct %v\n", name, s+1, seed, run.took.Seconds(), run.failed, run.correct)
				if run.failed > 0 || !run.correct {
					ok = false
				}
				took += run.took
				runs[s] = append(runs[s], run)
			}
		}
		allRuns += took
		mean := took / time.Duration(sets*runsPerSet)
		if !printSets(stdout, name, runs, mean) {
			ok = false
		}
	}
	if len(names) == len(workloadNames) {
		// Every workload ran equally often, as in the driver's schedule.
		schedule := driverRuns*allRuns/time.Duration(len(names)*sets*runsPerSet) + 2*coldBuild
		fmt.Fprintf(stdout, "\none driver schedule: %d runs + 2 cold builds = %.0f s of the %.0f s limit (%.0f%% under it; the aim is at least 15%%)\n",
			driverRuns, schedule.Seconds(), driverLimit.Seconds(),
			100*(1-schedule.Seconds()/driverLimit.Seconds()))
		if schedule > driverLimit*85/100 {
			ok = false
		}
	}
	if !ok {
		fmt.Fprintf(stdout, "self-check FAILED\n")
		return 1
	}
	fmt.Fprintf(stdout, "self-check passed\n")
	return 0
}

// runChild runs one untraced pass as the driver would and reads its
// metric lines. Output waits for the child to end.
func runChild(exe, workload string, seed int, seconds float64, scale string) (childRun, error) {
	limit := time.Duration(4*seconds*float64(time.Second)) + 2*hungGrace
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "-scale", scale)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	run := childRun{took: time.Since(t0), raw: make(map[string]float64)}
	if err != nil {
		return run, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.Contains(last, "FAILED") || strings.Contains(last, "INCORRECT") {
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", workload, seed, last)
		}
		if f := strings.Fields(last); len(f) == 4 && f[0] == "raw" {
			if run.raw[f[1]], err = strconv.ParseFloat(f[2], 64); err != nil {
				return run, fmt.Errorf("raw line %q: %w", last, err)
			}
		}
	}
	var result struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		return run, fmt.Errorf("result line %q: %w", last, err)
	}
	run.correct, run.failed = result.Correct, result.Failed
	run.values = make(map[string]float64, len(result.Metrics))
	for name, m := range result.Metrics {
		run.values[name] = m.Value
	}
	return run, nil
}

// printSets prints one workload's table and reports whether every nominal
// spread (setup_s excepted) and every shift is within its bound.
func printSets(w io.Writer, workload string, runs [][]childRun, mean time.Duration) bool {
	ok := true
	fmt.Fprintf(w, "\n%s: %d sets of %d runs, mean run %.1f s; spread = (Q3 - Q1) / median; shift > 0 is worse\n\n", workload, len(runs), runsPerSet, mean.Seconds())
	fmt.Fprintf(w, "| metric | bound |")
	for s := range runs {
		fmt.Fprintf(w, " set %d median | spread | raw spread |", s+1)
	}
	fmt.Fprintf(w, " shift | |\n|---|---|")
	for range runs {
		fmt.Fprintf(w, "---|---|---|")
	}
	fmt.Fprintf(w, "---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %.2f |", d.name, d.bound)
		verdict := "ok"
		var medians []float64
		for _, set := range runs {
			var nominal, raw []float64
			for _, r := range set {
				nominal = append(nominal, r.values[d.name])
				if v, has := r.raw[d.name]; has {
					raw = append(raw, v)
				}
			}
			med, spread := medianSpread(nominal)
			medians = append(medians, med)
			rawSpread := "-"
			if len(raw) == len(set) {
				_, s := medianSpread(raw)
				rawSpread = fmt.Sprintf("%.1f%%", 100*s)
			}
			fmt.Fprintf(w, " %.5g %s | %.1f%% | %s |", med, d.unit, 100*spread, rawSpread)
			if spread > d.bound && d.name != "setup_s" {
				verdict = "SPREAD"
			}
		}
		shift := 0.0
		if len(medians) > 1 && medians[0] != 0 {
			shift = (medians[len(medians)-1] - medians[0]) / medians[0]
			if d.better == "higher" {
				shift = -shift
			}
		}
		if shift > d.bound {
			verdict = "SHIFT"
		}
		if verdict != "ok" {
			ok = false
		}
		fmt.Fprintf(w, " %+.1f%% | %s |\n", 100*shift, verdict)
	}
	return ok
}

// medianSpread is the median and the distance between the first and third
// quartiles as a share of it, the quartiles as Python's
// statistics.quantiles(xs, n=4) gives them — what the driver computes.
func medianSpread(xs []float64) (median, spread float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	median = (xs[(n-1)/2] + xs[n/2]) / 2
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	if n == 1 || median == 0 {
		return median, 0
	}
	return median, (quartile(3) - quartile(1)) / median
}
