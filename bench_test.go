// Benchmark harness: one benchmark per reproduction experiment (the
// paper's claim-tables E1-E12 and ablations A1-A4; experiments.Registry
// and each table's Claim line are the claim index), plus micro-benchmarks
// of the protocol primitives.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem
//	go run ./cmd/nowbench            # the same tables, rendered
//	go run ./cmd/nowbench -full      # the long-running sweep
package nowover_test

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"nowover"
	"nowover/internal/ids"
	"nowover/internal/metrics"
)

// benchScale sizes experiment benchmarks: smaller than QuickScale so the
// full `go test -bench=.` sweep stays in minutes.
func benchScale() nowover.ExperimentScale {
	return nowover.ExperimentScale{
		Ns:        []int{256, 512, 1024},
		OpsFactor: 0.5,
		Trials:    2,
		Walks:     200,
		Seed:      1,
	}
}

// runExperiment executes one experiment table per benchmark iteration and
// renders it once (to stderr on -v style runs is noise; we keep the table
// output only when NOWOVER_BENCH_TABLES=1). Cells fan out across
// GOMAXPROCS workers (benchScale leaves Parallel at 0); tables are
// byte-identical at any parallelism.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment benchmark skipped in -short mode")
	}
	run, ok := nowover.Experiments()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	scale := benchScale()
	var out io.Writer = io.Discard
	if os.Getenv("NOWOVER_BENCH_TABLES") == "1" {
		out = os.Stdout
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := run(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := table.Render(out); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(table.Rows)), "rows")
		}
	}
}

func BenchmarkE1HonestyUnderChurn(b *testing.B)   { runExperiment(b, "E1") }
func BenchmarkE2PostExchangeTail(b *testing.B)    { runExperiment(b, "E2") }
func BenchmarkE3DriftRecovery(b *testing.B)       { runExperiment(b, "E3") }
func BenchmarkE4RandClCost(b *testing.B)          { runExperiment(b, "E4") }
func BenchmarkE5ExchangeCost(b *testing.B)        { runExperiment(b, "E5") }
func BenchmarkE6OperationCost(b *testing.B)       { runExperiment(b, "E6") }
func BenchmarkE7WalkUniformity(b *testing.B)      { runExperiment(b, "E7") }
func BenchmarkE8OverlayHealth(b *testing.B)       { runExperiment(b, "E8") }
func BenchmarkE9InitCost(b *testing.B)            { runExperiment(b, "E9") }
func BenchmarkE10Applications(b *testing.B)       { runExperiment(b, "E10") }
func BenchmarkE11Baselines(b *testing.B)          { runExperiment(b, "E11") }
func BenchmarkE12SecurityMargins(b *testing.B)    { runExperiment(b, "E12") }
func BenchmarkAblationMergeStrategy(b *testing.B) { runExperiment(b, "A1") }
func BenchmarkAblationLeaveCascade(b *testing.B)  { runExperiment(b, "A2") }
func BenchmarkAblationDegreeRepair(b *testing.B)  { runExperiment(b, "A3") }
func BenchmarkAblationCommitReveal(b *testing.B)  { runExperiment(b, "A4") }

// BenchmarkExperimentSuite measures the wall-clock of a fixed experiment
// subset end to end, serial vs parallel — the headline number for the
// worker-pool runner. The subset (one churn sweep, one walk sweep, one
// grid sweep) is cell-rich so the pool has work to spread.
func BenchmarkExperimentSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("experiment benchmark skipped in -short mode")
	}
	subset := []string{"E1", "E4", "E12"}
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(mode.name, func(b *testing.B) {
			scale := benchScale()
			scale.Parallel = mode.workers
			b.ReportMetric(float64(nowover.Workers(scale.Parallel)), "workers")
			reg := nowover.Experiments()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range subset {
					if _, err := reg[id](scale); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- primitive micro-benchmarks ---

func benchSystem(b *testing.B, maxN, n0 int, tau float64) *nowover.System {
	b.Helper()
	cfg := nowover.DefaultConfig(maxN)
	cfg.Seed = 1
	sys, err := nowover.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Bootstrap(n0, nowover.FractionCorrupt(n0, tau)); err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkJoinOperation(b *testing.B) {
	for _, maxN := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", maxN), func(b *testing.B) {
			sys := benchSystem(b, maxN, maxN/4, 0.15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.JoinAuto(false); err != nil {
					b.Fatal(err)
				}
				if sys.NumNodes() >= maxN {
					b.StopTimer()
					sys = benchSystem(b, maxN, maxN/4, 0.15)
					b.StartTimer()
				}
			}
		})
	}
}

func BenchmarkLeaveOperation(b *testing.B) {
	for _, maxN := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", maxN), func(b *testing.B) {
			sys := benchSystem(b, maxN, maxN/2, 0.15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x, err := sys.JoinAuto(false) // keep population steady
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sys.Leave(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandClWalk is one biased walk (randCl) from a random cluster;
// N=262144 is the churn_large shape. ns/hop divides the time by the hops
// the walks made.
func BenchmarkRandClWalk(b *testing.B) {
	for _, maxN := range []int{1024, 4096, 16384, 262144} {
		b.Run(fmt.Sprintf("N=%d", maxN), func(b *testing.B) {
			sys := benchSystem(b, maxN, maxN/2, 0.15)
			w := sys.World()
			hops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start, _ := w.RandomCluster(w.Rng())
				out, err := w.Walker().Biased(w.Ledger(), w.Rng(), start)
				if err != nil {
					b.Fatal(err)
				}
				hops += out.Hops
			}
			if hops > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
			}
		})
	}
}

func BenchmarkExchangePrimitive(b *testing.B) {
	for _, maxN := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", maxN), func(b *testing.B) {
			sys := benchSystem(b, maxN, maxN/2, 0.15)
			w := sys.World()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, _ := w.RandomCluster(w.Rng())
				if err := w.ForceExchange(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorldAudit is one invariant audit of a 2^14 world: the size
// fold over the cluster arena plus the overlay's degree range and
// connectivity. unchanged audits an overlay nothing has touched since the
// last audit, so the overlay half is a cache hit; after-mutation first
// adds and removes an isolated overlay vertex, which leaves the overlay as
// it was but moves its mutation count, so every audit rescans the degrees
// and reruns the BFS. Both reuse the overlay's scratch, so a warm audit
// allocates nothing.
func BenchmarkWorldAudit(b *testing.B) {
	sys := benchSystem(b, 16384, 8192, 0.15)
	w := sys.World()
	o := w.Overlay()
	var spare ids.ClusterID
	for _, c := range w.Clusters() {
		spare = max(spare, c+1)
	}
	var led metrics.Ledger
	noPick := func(ids.ClusterID) (ids.ClusterID, bool) { return 0, false }
	touch := func(b *testing.B) {
		if _, err := o.Add(&led, spare, noPick, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := o.Remove(&led, spare, noPick, 1); err != nil {
			b.Fatal(err)
		}
	}
	audit := func(b *testing.B, mutate bool) {
		touch(b) // grow the scratch, the spare vertex's slots included
		w.Audit()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if mutate {
				touch(b)
			}
			if a := w.Audit(); !a.OverlayConnected {
				b.Fatal("overlay disconnected")
			}
		}
	}
	b.Run("unchanged", func(b *testing.B) { audit(b, false) })
	b.Run("after-mutation", func(b *testing.B) { audit(b, true) })
}

func BenchmarkUniformSample(b *testing.B) {
	sys := benchSystem(b, 4096, 2048, 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcast(b *testing.B) {
	for _, n0 := range []int{512, 2048} {
		b.Run("n0="+strconv.Itoa(n0), func(b *testing.B) {
			sys := benchSystem(b, 4096, n0, 0.15)
			src := sys.Clusters()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Broadcast(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOverlayHealthAudit(b *testing.B) {
	sys := benchSystem(b, 4096, 2048, 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := sys.CheckOverlay()
		if !h.Connected {
			b.Fatal("overlay disconnected")
		}
	}
}

func BenchmarkBootstrap(b *testing.B) {
	for _, n0 := range []int{512, 2048} {
		b.Run("n0="+strconv.Itoa(n0), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := nowover.DefaultConfig(4096)
				cfg.Seed = uint64(i + 1)
				sys, err := nowover.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Bootstrap(n0, nowover.FractionCorrupt(n0, 0.2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulationStep(b *testing.B) {
	cfg := nowover.SimConfig{
		Core:        nowover.DefaultConfig(4096),
		InitialSize: 1024,
		Tau:         0.15,
		Steps:       0,
		Seed:        1,
	}
	cfg.Core.Seed = 1
	runner, err := nowover.NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := runner.Continue(nil, b.N); err != nil {
		b.Fatal(err)
	}
}
