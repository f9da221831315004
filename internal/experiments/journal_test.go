package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nowover/internal/core"
)

// journalTestScale is a sweep small enough to run twice in a unit test
// but with >= 2 cells per experiment, so there is something to interrupt
// between. It runs serially so the interruption point is deterministic.
func journalTestScale() Scale {
	return Scale{Ns: []int{256, 512}, OpsFactor: 1, Trials: 1, Walks: 60, Seed: 3, Parallel: 1}
}

// renderAll renders tables to one byte string for exact comparison.
func renderAll(t *testing.T, tables []*Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// runJournaled runs ids once with a journal opened at path and carried on
// the scale, with interrupt consulted before every live cell.
func runJournaled(t *testing.T, path, fp string, ids []string, interrupt func(string) error) ([]*Table, error) {
	t.Helper()
	j, err := OpenJournal(path, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.interrupt = interrupt
	s := journalTestScale()
	s.Journal = j
	tables, err := RunMany(ids, s)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return tables, err
}

// TestJournalResumeEquivalence is the checkpoint's load-bearing check:
// interrupt a sweep mid-cell, resume from the journal, and the final
// tables are byte-identical to an uninterrupted run, covering rows,
// notes, sketched quantile columns and the aux-derived cross-cell fits.
func TestJournalResumeEquivalence(t *testing.T) {
	ids := []string{"E4", "E6"}
	t.Run("sketch", func(t *testing.T) {
		baselineTables, err := RunMany(ids, journalTestScale())
		if err != nil {
			t.Fatal(err)
		}
		baseline := renderAll(t, baselineTables)

		path := filepath.Join(t.TempDir(), "cells.journal")
		const fp = "test"

		// Pass 1: die mid-sweep, before E6's second cell. Everything
		// completed up to that point is on disk.
		_, err = runJournaled(t, path, fp, ids, func(key string) error {
			if key == "E6#1/1" {
				return fmt.Errorf("injected interrupt at %s", key)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "injected interrupt") {
			t.Fatalf("interrupted run: err = %v, want injected interrupt", err)
		}
		keys, err := ReadJournalKeys(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"E4#1/0", "E4#1/1", "E6#1/0"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("journal after interrupt holds %v, want %v", keys, want)
		}

		// Pass 2: resume. Journaled cells must be served from the
		// journal (the interrupt hook sees only live cells), and the
		// assembled tables must match the uninterrupted run exactly.
		var ran []string
		resumedTables, err := runJournaled(t, path, fp, ids, func(key string) error {
			ran = append(ran, key)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"E6#1/1"}; !reflect.DeepEqual(ran, want) {
			t.Errorf("resume re-ran cells %v, want only %v", ran, want)
		}
		if resumed := renderAll(t, resumedTables); resumed != baseline {
			t.Errorf("resumed tables differ from uninterrupted run:\n--- baseline ---\n%s\n--- resumed ---\n%s", baseline, resumed)
		}

		// Pass 3: a fully-journaled sweep replays without running any
		// cell at all and still matches byte for byte.
		replayedTables, err := runJournaled(t, path, fp, ids, func(key string) error {
			return fmt.Errorf("cell %s ran despite a complete journal", key)
		})
		if err != nil {
			t.Fatal(err)
		}
		if replayed := renderAll(t, replayedTables); replayed != baseline {
			t.Error("full-journal replay diverged from uninterrupted run")
		}
	})
}

// TestJournalTruncatedFinalLine: a crash mid-append leaves a final line
// without its newline; the loader must drop exactly that record and keep
// the rest.
func TestJournalTruncatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(&cellRecord{Key: "E1#1/0", Rows: [][]string{{"a"}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: append half a record, no terminating newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"E1#1/1","rows":[["tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err = OpenJournal(path, "fp", nil)
	if err != nil {
		t.Fatalf("truncated final line must be tolerated, got %v", err)
	}
	if _, ok := j.lookup("E1#1/0"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := j.lookup("E1#1/1"); ok {
		t.Error("truncated record resurrected")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornHeader: a kill between creating the file and finishing
// its header leaves an empty file or a header fragment with no newline.
// Such a file holds no records, so it is started afresh (header written,
// cells recorded and resumed as usual) instead of being refused forever.
// A newline-free file that is not a header fragment is still refused.
func TestJournalTornHeader(t *testing.T) {
	for _, tc := range []struct{ name, torn string }{
		{"empty", ""},
		{"fragment", `{"journal":"nowbench-cells","v":1,"finger`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cells.journal")
			if err := os.WriteFile(path, []byte(tc.torn), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, "fp", nil)
			if err != nil {
				t.Fatalf("torn header must be rewritten, got %v", err)
			}
			if err := j.record(&cellRecord{Key: "E1#1/0"}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, err = OpenJournal(path, "fp", nil)
			if err != nil {
				t.Fatalf("rewritten journal does not resume: %v", err)
			}
			if _, ok := j.lookup("E1#1/0"); !ok {
				t.Error("record written after the header rewrite lost")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("no newline here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(path, "fp", nil); err == nil {
		j.Close()
		t.Fatal("a newline-free non-journal file must be refused")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "no newline here" {
		t.Errorf("refused file was modified: %q, %v", data, err)
	}
}

// TestJournalCorruptedRecord: a malformed line anywhere but the tail is
// corruption and must refuse to load, not silently skip cells.
func TestJournalCorruptedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path, "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(&cellRecord{Key: "E1#1/0"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage not json\n{\"key\":\"E1#1/2\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if j, err = OpenJournal(path, "fp", nil); err == nil {
		j.Close()
		t.Fatal("corrupt mid-journal record must refuse to load")
	}
	if !strings.Contains(err.Error(), "corrupt record on line 3") {
		t.Errorf("error %v does not name the corrupt line", err)
	}
}

// TestJournalFingerprintMismatch: resuming under a different run
// configuration is refused.
func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path, "seed=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = OpenJournal(path, "seed=2", nil); err == nil {
		j.Close()
		t.Fatal("fingerprint mismatch must refuse to resume")
	}
	if !strings.Contains(err.Error(), "different run configuration") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestJournalRefusesOtherConstruction: a journal whose cells were run on
// worlds another construction revision built is refused under a matching
// fingerprint and left untouched, as are journals that record no revision
// (results/sweep2e20.journal: coin-per-pair overlays).
func TestJournalRefusesOtherConstruction(t *testing.T) {
	for _, header := range []string{
		`{"journal":"nowbench-cells","v":1,"fingerprint":"fp"}`,
		fmt.Sprintf(`{"journal":"nowbench-cells","v":1,"fingerprint":"fp","world":%d}`, core.ConstructionRevision+1),
	} {
		path := filepath.Join(t.TempDir(), "cells.journal")
		data := header + "\n" + `{"key":"E4#1/0","rows":[["256"]]}` + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "fp", nil)
		if err == nil {
			j.Close()
			t.Fatalf("journal %s resumed under construction revision %d", header, core.ConstructionRevision)
		}
		if !strings.Contains(err.Error(), "construction revision") {
			t.Errorf("unexpected error: %v", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Errorf("refused journal was modified (%v)", err)
		}
	}
	// The revision a fresh journal records is accepted on resume.
	path := filepath.Join(t.TempDir(), "cells.journal")
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path, "fp", nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
}

// TestJournalNotAJournal: arbitrary files are rejected up front.
func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "README.md")
	if err := os.WriteFile(path, []byte("# hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(path, "fp", nil); err == nil {
		j.Close()
		t.Fatal("non-journal file must be rejected")
	}
}

// TestBenchTrajectory: timings recorded through the injected clock come
// back sorted by key with a consistent total.
func TestBenchTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	var clock int64
	j, err := OpenJournal(path, "fp", func() int64 { clock += 7; return clock })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, key := range []string{"E2#1/1", "E1#1/0"} {
		start := j.millis()
		if err := j.record(fragRecord(key, &Table{}, j.millis()-start)); err != nil {
			t.Fatal(err)
		}
	}
	points, total := j.BenchTrajectory()
	if len(points) != 2 || points[0].Key != "E1#1/0" || points[1].Key != "E2#1/1" {
		t.Fatalf("points = %+v, want sorted keys", points)
	}
	if want := points[0].Ms + points[1].Ms; total != want || total != 14 {
		t.Errorf("total = %d, want %d (= 14)", total, want)
	}
}
