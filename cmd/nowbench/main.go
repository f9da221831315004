// Command nowbench regenerates the paper-reproduction tables (experiments
// E1-E12 plus ablations A1-A4; each table's Claim line states the claim
// it checks, and EXPERIMENTS.md records results).
//
// Examples:
//
//	nowbench                  # every experiment at quick scale
//	nowbench -exp E1,E4       # selected experiments
//	nowbench -full            # the long-running sweep
//	nowbench -csv out/        # also write CSV files
//	nowbench -parallel 1      # force the serial runner (default: GOMAXPROCS)
//	nowbench -full -max-n 65536 -exp E4,E5,E6
//	                          # the wide-range 2^16 separation sweep
//	                          # (sketched cost sampling keeps it in memory)
//	nowbench -exp E6 -cpuprofile cpu.out -memprofile mem.out
//	                          # profile a run (go tool pprof cpu.out)
//
// Both the selected experiments AND each experiment's independent cells
// fan out across a worker pool sized by -parallel (0 means GOMAXPROCS),
// so E1-E12 run concurrently while rendering stays in ID order; tables
// are byte-identical at any parallelism. The worker count and the
// -checkpoint journal travel on the experiment scale, not through any
// process-wide setting.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nowover"
	"nowover/internal/prof"
)

// config is the fully-resolved command configuration: flags parsed,
// experiment selection validated against the registry.
type config struct {
	selected   []string
	full       bool
	csvDir     string
	seed       uint64
	parallel   int
	grouped    bool
	maxN       int
	opsPerStep int
	checkpoint string
	benchJSON  string
	prof       prof.Flags
}

// parseConfig parses the command line and resolves the experiment
// selection, so every usage error is reportable without running anything.
func parseConfig(args []string) (*config, error) {
	fs := flag.NewFlagSet("nowbench", flag.ContinueOnError)
	c := &config{}
	expFlag := fs.String("exp", "", "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&c.full, "full", false, "use the long-running scale")
	fs.StringVar(&c.csvDir, "csv", "", "directory to write per-experiment CSV files")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.parallel, "parallel", 0, "experiment worker count: 1 = serial, 0 = GOMAXPROCS")
	fs.BoolVar(&c.grouped, "grouped-cascade", nowover.DefaultConfig(0).Shuffle == nowover.ShuffleGrouped, "batch leave cascades into one grouped shuffle round per leave (~|C| write footprint instead of ~|C|^2); =false runs Algorithm 2's per-receiver cascade, the paper-faithful reference (results/golden/quick_per_receiver.txt)")
	fs.IntVar(&c.maxN, "max-n", 0, "extend the N sweep by doubling the top size up to this bound (e.g. 65536 for the 2^16 separation sweep, 1048576 for the 2^20 run); must be a power-of-two multiple of the scale's top size; 0 keeps the selected scale's grid")
	fs.IntVar(&c.opsPerStep, "ops-per-step", 0, "decide this many adversary-cell operations per time step and run them as one batch, settled once (A2/A4; above 1 a deterministic but distinct trajectory, and per-operation cost columns are unavailable); 0 and 1 both run one op per step, the recorded baseline tables")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "per-cell result journal: completed sweep cells are appended here and served from it on the next run, so an interrupted sweep resumes from its last completed cell with byte-identical tables; the journal is bound to the run configuration (seed/scale/mode flags) and refuses to resume under a different one")
	fs.StringVar(&c.benchJSON, "bench-json", "", "write per-cell wall-clock timings (from the -checkpoint journal) as JSON, so future changes prove speedups against a recorded trajectory; requires -checkpoint")
	c.prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if c.parallel < 0 {
		return nil, fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", c.parallel)
	}
	selected, err := resolveExperiments(*expFlag)
	if err != nil {
		return nil, err
	}
	c.selected = selected
	// Validate the grid extension now: an unreachable -max-n is a usage
	// error and must not surface hours into a sweep.
	if _, err := c.scale(); err != nil {
		return nil, err
	}
	if c.benchJSON != "" && c.checkpoint == "" {
		return nil, fmt.Errorf("-bench-json requires -checkpoint (timings come from the cell journal)")
	}
	return c, nil
}

// fingerprint identifies the run configuration a checkpoint journal is
// bound to: everything cell results depend on. Parallelism is absent by
// design (cells are byte-identical at any worker count); the CSV
// directory only affects where tables are copied. The literals
// exact=false and shards=1 are kept from when the sample mode and the
// world layout were flags, so the flags of journals recorded then
// (results/sweep2e20.journal) still match; the journal itself binds the
// world construction revision, which refuses those.
func (c *config) fingerprint(scale nowover.ExperimentScale) string {
	fp := fmt.Sprintf("ns=%v of=%g trials=%d walks=%d seed=%d exact=false shards=1 grouped=%v",
		scale.Ns, scale.OpsFactor, scale.Trials, scale.Walks,
		scale.Seed, scale.GroupedCascade)
	// The ops marker is appended only above one op per step so journals
	// recorded before the flag existed (ops-per-step 0) still resume.
	if scale.OpsPerStep > 1 {
		fp += fmt.Sprintf(" ops=%d", scale.OpsPerStep)
	}
	return fp
}

// resolveExperiments expands the -exp flag against the registry; an empty
// selection means every experiment in ID order.
func resolveExperiments(expFlag string) ([]string, error) {
	if expFlag == "" {
		return nowover.ExperimentIDs(), nil
	}
	registry := nowover.Experiments()
	var selected []string
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(id)
		if _, ok := registry[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)",
				id, strings.Join(nowover.ExperimentIDs(), ", "))
		}
		selected = append(selected, id)
	}
	return selected, nil
}

// scale derives the experiment scale from the resolved flags; it errors
// when -max-n cannot extend the selected grid exactly.
func (c *config) scale() (nowover.ExperimentScale, error) {
	scale := nowover.QuickScale()
	if c.full {
		scale = nowover.FullScale()
	}
	scale.Seed = c.seed
	scale.Parallel = c.parallel
	scale.OpsPerStep = c.opsPerStep
	scale.GroupedCascade = c.grouped
	if c.maxN > 0 {
		return scale.ExtendTo(c.maxN)
	}
	return scale, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nowbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	c, err := parseConfig(args)
	if err != nil {
		return err
	}
	stopProfiles, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	scale, err := c.scale()
	if err != nil {
		return err
	}
	fmt.Printf("nowbench: %d worker(s), grouped-cascade=%v, Ns=%v\n\n",
		nowover.Workers(scale.Parallel), scale.GroupedCascade, scale.Ns)

	if c.checkpoint != "" {
		j, jerr := nowover.OpenCheckpointJournal(c.checkpoint, c.fingerprint(scale),
			func() int64 { return time.Now().UnixMilli() })
		if jerr != nil {
			return jerr
		}
		defer func() { err = errors.Join(err, j.Close()) }()
		scale.Journal = j
	}

	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			return err
		}
	}

	// Fan the selected experiments across the worker pool — on top of the
	// per-cell fan-out inside each experiment — so one experiment's serial
	// head/tail overlaps another's cells. Tables come back positionally
	// aligned with the selection and are rendered in ID order, so output
	// is byte-identical to a serial sweep at any parallelism.
	sweepStart := time.Now()
	tables, err := nowover.RunExperiments(c.selected, scale)
	if err != nil {
		return err
	}
	for i, id := range c.selected {
		if err := tables[i].Render(os.Stdout); err != nil {
			return err
		}
		if c.csvDir != "" {
			f, err := os.Create(filepath.Join(c.csvDir, id+".csv"))
			if err != nil {
				return err
			}
			werr := tables[i].CSV(f)
			cerr := f.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
		}
	}
	fmt.Printf("(%d experiment(s) completed in %v)\n", len(c.selected), time.Since(sweepStart).Round(time.Millisecond))

	if c.benchJSON != "" {
		if err := writeBenchJSON(c.benchJSON, scale.Journal); err != nil {
			return err
		}
	}
	return nil
}

// benchFile is the -bench-json document: the per-cell wall-clock
// trajectory of a checkpointed sweep.
type benchFile struct {
	Cells   []nowover.BenchPoint `json:"cells"`
	TotalMs int64                `json:"total_ms"`
}

func writeBenchJSON(path string, j *nowover.CheckpointJournal) error {
	points, totalMs := j.BenchTrajectory()
	doc, err := json.MarshalIndent(benchFile{Cells: points, TotalMs: totalMs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
