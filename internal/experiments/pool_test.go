package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestParallelMatchesSerial is the determinism regression test for the
// worker-pool runner: a fast subset of E1-E12 (covering every cell shape
// — grid sweeps, per-trial folds, multi-row fragments, heterogeneous
// sections) must produce byte-identical tables serially and with many
// workers racing on the pool, including the sketched quantile columns of
// E6/E12/A1. Each run carries its worker count on its own Scale, so the
// subtests share no state.
func TestParallelMatchesSerial(t *testing.T) {
	s := Scale{
		Ns:        []int{256, 512},
		OpsFactor: 0.25,
		Trials:    2,
		Walks:     40,
		Seed:      7,
	}
	subset := []string{"E1", "E2", "E3", "E6", "E8", "E9", "E11", "E12", "A1"}
	reg := Registry()
	for _, id := range subset {
		id := id
		t.Run("sketch/"+id, func(t *testing.T) {
			serialScale, parallelScale := s, s
			serialScale.Parallel, parallelScale.Parallel = 1, 8
			serial, err := reg[id](serialScale)
			if err != nil {
				t.Fatalf("serial run failed: %v", err)
			}
			parallel, err := reg[id](parallelScale)
			if err != nil {
				t.Fatalf("parallel run failed: %v", err)
			}
			if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
				t.Errorf("rows diverge between serial and parallel runs:\nserial:   %v\nparallel: %v",
					serial.Rows, parallel.Rows)
			}
			if !reflect.DeepEqual(serial.Notes, parallel.Notes) {
				t.Errorf("notes diverge:\nserial:   %v\nparallel: %v", serial.Notes, parallel.Notes)
			}
			var sb, pb bytes.Buffer
			if err := serial.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Render(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("rendered tables not byte-identical:\n--- serial ---\n%s--- parallel ---\n%s",
					sb.String(), pb.String())
			}
		})
	}
}

// TestCrossExperimentParallelMatchesSerial is the determinism regression
// for the cross-experiment fan-out (RunMany, behind cmd/nowbench): a
// subset of experiments run one-at-a-time serially must render
// byte-identical tables to the same subset racing each other — and their
// own cells — on a many-worker pool, in the requested order. This guards
// what RunMany composes over (the registry, per-experiment world seeding)
// against cross-experiment leakage, sketched quantile columns (E6/E12)
// included.
func TestCrossExperimentParallelMatchesSerial(t *testing.T) {
	s := Scale{
		Ns:        []int{256, 512},
		OpsFactor: 0.25,
		Trials:    2,
		Walks:     40,
		Seed:      7,
	}
	subset := []string{"E1", "E3", "E6", "E8", "E9", "E12", "A1"}
	reg := Registry()
	t.Run("sketch", func(t *testing.T) {
		s.Parallel = 1
		serial := make([]*Table, len(subset))
		for i, id := range subset {
			tbl, err := reg[id](s)
			if err != nil {
				t.Fatalf("serial %s failed: %v", id, err)
			}
			serial[i] = tbl
		}
		s.Parallel = 8
		parallel, err := RunMany(subset, s)
		if err != nil {
			t.Fatalf("parallel sweep failed: %v", err)
		}
		for i, id := range subset {
			if parallel[i].ID != id {
				t.Fatalf("slot %d holds table %s, want %s (order lost)", i, parallel[i].ID, id)
			}
			var sb, pb bytes.Buffer
			if err := serial[i].Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := parallel[i].Render(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("%s tables not byte-identical:\n--- serial ---\n%s--- parallel ---\n%s",
					id, sb.String(), pb.String())
			}
		}
	})
}

func TestRunManyUnknownExperiment(t *testing.T) {
	if _, err := RunMany([]string{"E1", "nope"}, QuickScale()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestRunManyErrorDeterministic: with several failing experiments the
// lowest-indexed failure is reported, as a serial sweep would.
func TestRunManyErrorDeterministic(t *testing.T) {
	// An impossible scale makes every experiment fail fast: OpsFactor 0
	// yields zero-step runs only for experiments that require steps; use a
	// bogus N below the minimum instead, which every runner rejects.
	s := Scale{Ns: []int{1}, OpsFactor: 0.1, Trials: 1, Walks: 1, Seed: 1, Parallel: 8}
	_, err := RunMany([]string{"E1", "E2"}, s)
	if err == nil {
		t.Fatal("sub-minimum N accepted")
	}
	if !strings.HasPrefix(err.Error(), "E1:") {
		t.Fatalf("error %q does not name the lowest-indexed failing experiment", err)
	}
}

func TestMapCellsOrdering(t *testing.T) {
	const count = 100
	out, err := mapCells(8, count, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != count {
		t.Fatalf("got %d results, want %d", len(out), count)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestMapCellsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := mapCells(workers, 10, func(i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: got %v, want the cell error", workers, err)
		}
	}
}

// TestMapCellsErrorDeterministic pins the error-path contract: with
// several failing cells, the lowest-indexed failure is reported at any
// parallelism — the same error a serial run returns.
func TestMapCellsErrorDeterministic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for rep := 0; rep < 20; rep++ {
			_, err := mapCells(workers, 32, func(i int) (int, error) {
				if i == 5 || i == 20 || i == 31 {
					return 0, fmt.Errorf("cell %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "cell 5 failed" {
				t.Fatalf("workers=%d rep=%d: got %v, want the lowest-indexed failure", workers, rep, err)
			}
		}
	}
}

func TestMapCellsPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := mapCells(workers, 4, func(i int) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was not converted to an error", workers)
		}
	}
}

func TestMapCellsEmpty(t *testing.T) {
	out, err := mapCells(8, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const count = 50
	var hits [count]int32
	if err := ForEach(4, count, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d ran %d times", i, h)
		}
	}
}

// TestParallelZeroMeansGOMAXPROCS pins the worker-count resolution: a
// Scale that leaves Parallel at 0 runs on GOMAXPROCS workers, a positive
// value is taken as is.
func TestParallelZeroMeansGOMAXPROCS(t *testing.T) {
	if got, want := Workers(QuickScale().Parallel), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	for _, p := range []int{1, 3} {
		if got := Workers(p); got != p {
			t.Errorf("Workers(%d) = %d", p, got)
		}
	}
}

func TestGridCells(t *testing.T) {
	cells := gridCells([]int{1, 2}, []string{"a", "b", "c"})
	want := []pair[int, string]{{1, "a"}, {1, "b"}, {1, "c"}, {2, "a"}, {2, "b"}, {2, "c"}}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("gridCells = %v, want %v", cells, want)
	}
}

func TestFragmentSplice(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a", "b"}}
	frag := tbl.Fragment()
	if frag.ID != tbl.ID || len(frag.Rows) != 0 {
		t.Fatalf("fragment not empty: %+v", frag)
	}
	frag.AddRow(1, 2)
	frag.Notes = append(frag.Notes, "n1")
	tbl.Splice(frag)
	if len(tbl.Rows) != 1 || len(tbl.Notes) != 1 {
		t.Errorf("splice lost data: rows=%d notes=%d", len(tbl.Rows), len(tbl.Notes))
	}
	if fmt.Sprint(tbl.Rows[0]) != "[1 2]" {
		t.Errorf("row content %v", tbl.Rows[0])
	}
}
