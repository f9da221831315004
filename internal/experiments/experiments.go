// Package experiments is the reproduction harness: every formal claim of
// the paper (the paper has no empirical tables — Section 4's lemmas and
// the complexity statements of Sections 2-3 and 6 are its evaluation) is
// converted into a measurable experiment E1-E12 producing a paper-style
// table. The per-experiment index lives in DESIGN.md; EXPERIMENTS.md
// records claim-vs-measured for each. cmd/nowbench and the root
// bench_test.go both drive this package.
//
// Experiments fan their independent cells (per-size, per-trial,
// per-repetition simulation runs) out across a worker pool (pool.go);
// every cell builds its own world from a derived seed and rows are
// assembled in submission order, so tables are byte-identical at any
// worker count (Scale.Parallel). Everything a run depends on travels on
// its Scale; the package holds no process-wide mutable state.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nowover/internal/core"
)

// Table is one experiment's result in paper style.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   []string

	// Aux carries a cell's numeric by-products (sweep x values, fitted y
	// values) out of RunCells alongside its rows. Cross-cell aggregates
	// (polylog fits, ratio notes) must read per-cell numbers from here via
	// CellAux, never from closure-captured slices: a cell served from a
	// resume journal does not re-run its body, so anything outside the
	// fragment would silently stay zero. Only fragments carry Aux; on the
	// parent table RunCells collects them per cell.
	Aux []float64

	cellAux [][]float64 // parent-side per-cell Aux, in cell order
	cellSeq int         // RunCells invocations on this table, for journal keys
}

// AddAux appends numeric by-products to a cell fragment (see Aux).
func (t *Table) AddAux(vs ...float64) { t.Aux = append(t.Aux, vs...) }

// CellAux returns cell i's Aux vector from the last RunCells, never nil.
func (t *Table) CellAux(i int) []float64 {
	if i < 0 || i >= len(t.cellAux) {
		return nil
	}
	return t.cellAux[i]
}

// AddRow appends a formatted row; values are stringified with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3 && x > -1e-3 && x != 0:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\nClaim: %s\n", t.ID, t.Title, t.Claim); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// CSV writes the table as comma-separated values (quotes are not needed:
// cells never contain commas by construction).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Scale sizes an experiment run. Quick keeps every experiment inside
// benchmark budgets; Full is the overnight setting for cmd/nowbench -full.
type Scale struct {
	// Ns is the N sweep (maximum network sizes).
	Ns []int
	// OpsFactor scales churn lengths: steps = OpsFactor * N.
	OpsFactor float64
	// Trials repeats stochastic measurements.
	Trials int
	// Walks is the per-configuration walk count for sampling experiments.
	Walks int
	// Seed anchors determinism.
	Seed uint64
	// OpsPerStep > 1 runs the adversary cells (A2, A4) through the
	// batched churn driver (sim.Config.OpsPerStep): each time step the
	// strategy decides up to this many operations against the
	// step-boundary state and World.ExecBatch runs them in op order,
	// settling security once. The batched trace is a different (equally
	// valid, equally deterministic) trajectory from the classic driver's,
	// and per-operation cost columns are unavailable in batched mode. 0 or
	// 1 keeps the classic driver and the recorded baseline tables.
	OpsPerStep int
	// GroupedCascade runs every world's leave cascade as one grouped
	// shuffle round per leave (core.Config.GroupedCascade) instead of
	// Algorithm 2's full exchange per receiver. Tables stay deterministic
	// but differ from the per-receiver tables.
	GroupedCascade bool
	// Parallel is the worker count for the run's cells and, in RunMany,
	// its experiments: 1 is serial, 0 means GOMAXPROCS (see Workers).
	// Tables are byte-identical at any value.
	Parallel int
	// Journal, when non-nil, checkpoints every completed cell and serves
	// cells it already holds without re-running them (see OpenJournal).
	Journal *Journal
}

// coreConfig returns core.DefaultConfig(n) with the scale's leave-cascade
// mode applied; every experiment world starts from it.
func (s Scale) coreConfig(n int) core.Config {
	cfg := core.DefaultConfig(n)
	cfg.GroupedCascade = s.GroupedCascade
	return cfg
}

// ExtendTo widens the N sweep by doubling the top size until exactly maxN,
// preserving the power-of-two grid the log2 scalings assume. It is how the
// CLI's -max-n flag stretches QuickScale/FullScale to the wide-range
// separation sweeps (N up to 2^16, 2^20) without redefining the standard
// scales.
//
// maxN must be reachable from the grid's top size by doubling; anything
// else errors rather than silently capping the sweep below the requested
// top (the old behavior, which made `-max-n 1000000` quietly run a 2^19
// sweep and report it as the million-node run). The error names the two
// nearest grid tops so the caller can snap explicitly.
func (s Scale) ExtendTo(maxN int) (Scale, error) {
	if len(s.Ns) == 0 {
		return s, nil
	}
	top := s.Ns[len(s.Ns)-1]
	if maxN < top {
		return s, fmt.Errorf("experiments: max N %d is below the scale's top size %d", maxN, top)
	}
	ns := append([]int(nil), s.Ns...)
	last := top
	for last < maxN {
		last *= 2
		ns = append(ns, last)
	}
	if last != maxN {
		return s, fmt.Errorf("experiments: max N %d is not a power-of-two multiple of the grid top %d; use %d or %d",
			maxN, top, last/2, last)
	}
	s.Ns = ns
	return s, nil
}

// QuickScale is the default used by `go test -bench` and CI.
func QuickScale() Scale {
	return Scale{
		Ns:        []int{256, 512, 1024},
		OpsFactor: 1,
		Trials:    3,
		Walks:     400,
		Seed:      1,
	}
}

// FullScale is the long-running setting.
func FullScale() Scale {
	return Scale{
		Ns:        []int{256, 512, 1024, 2048, 4096},
		OpsFactor: 4,
		Trials:    5,
		Walks:     2000,
		Seed:      1,
	}
}

// Runner is an experiment entry point.
type Runner func(Scale) (*Table, error)

// Registry maps experiment IDs to runners. IDs follow DESIGN.md.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1HonestyUnderChurn,
		"E2":  E2PostExchangeTail,
		"E3":  E3DriftRecovery,
		"E4":  E4RandClCost,
		"E5":  E5ExchangeCost,
		"E6":  E6OperationCost,
		"E7":  E7WalkUniformity,
		"E8":  E8OverlayHealth,
		"E9":  E9InitCost,
		"E10": E10Applications,
		"E11": E11Baselines,
		"E12": E12SecurityMargins,
		"A1":  AblationMergeStrategy,
		"A2":  AblationLeaveCascade,
		"A3":  AblationDegreeRepair,
		"A4":  AblationCommitReveal,
	}
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E* before A*, numeric within.
		pi, pj := out[i][0], out[j][0]
		if pi != pj {
			return pi < pj
		}
		var ni, nj int
		fmt.Sscanf(out[i][1:], "%d", &ni)
		fmt.Sscanf(out[j][1:], "%d", &nj)
		return ni < nj
	})
	return out
}
