package experiments

// Resumable sweep cells: a per-cell result journal that lets a long
// nowbench sweep survive interruption. Every completed RunCells cell —
// the per-size / per-trial unit the worker pool schedules — appends one
// JSON line holding the cell's table rows, notes and aux vector. On the
// next run with the same journal, cells found in the journal are served
// from it instead of re-simulating, so a killed 2^20 sweep resumes from
// its last completed cell. Because a cell's record is exactly what it
// contributes to the assembled table (pre-rendered rows plus the aux
// floats cross-cell notes are fitted from), a resumed run's tables are
// byte-identical to an uninterrupted one.
//
// Crash tolerance: records are newline-terminated appends; a process
// killed mid-write leaves at most one truncated final line, which the
// loader drops (that cell simply re-runs). A malformed line anywhere
// else is reported as corruption, not skipped. The journal's first line
// is a fingerprint of the run configuration (scale grid, seeds, modes)
// plus the world construction revision (core.ConstructionRevision);
// resuming under any other configuration, or with a build that constructs
// worlds differently, is refused rather than mixing incompatible cells.
//
// The journal file itself is not byte-deterministic — lines land in cell
// completion order, which depends on worker scheduling — but its CONTENT
// is: one record per key, each deterministic in the run seed. Consumers
// (resume, BenchJSON) are order-independent.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"nowover/internal/core"
)

// journalHeader is the first line of a journal file. World is the
// core.ConstructionRevision its cells' worlds were built by; a journal
// written before the revision was recorded reads 0.
type journalHeader struct {
	Journal     string `json:"journal"`
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
	World       int    `json:"world"`
}

// cellRecord is one completed cell.
type cellRecord struct {
	Key   string     `json:"key"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
	Aux   []float64  `json:"aux,omitempty"`
	// Ms is the cell's wall-clock in milliseconds, from the clock the
	// opener injected (0 without one). It feeds benchmark trajectories
	// (BENCH_2e20.json), never tables, so it does not break resume
	// equivalence.
	Ms int64 `json:"ms,omitempty"`
}

// Journal is an open cell journal. A sweep checkpoints through it by
// carrying it on Scale.Journal; it is safe for concurrent use by the
// worker pool.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	cells map[string]*cellRecord
	now   func() int64 // millisecond clock, nil = no timing

	// interrupt, when non-nil, is consulted before each live cell run;
	// returning an error aborts the sweep exactly as a kill signal between
	// cell completions would. Checkpoint equivalence tests set it to
	// deterministically "die" mid-sweep.
	interrupt func(key string) error
}

const journalMagic = "nowbench-cells"

// OpenJournal opens (creating or resuming) the cell journal at path; a run
// checkpoints through it once it is set as Scale.Journal. fingerprint must
// capture everything the cells' results depend on (scale grid, seed,
// cascade flavor); a journal recorded under a different fingerprint is
// refused. nowMillis supplies per-cell wall-clock timing for benchmark
// trajectories; nil records 0.
func OpenJournal(path, fingerprint string, nowMillis func() int64) (*Journal, error) {
	j, err := loadJournal(path, fingerprint)
	if err != nil {
		return nil, err
	}
	j.now = nowMillis
	return j, nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// loadJournal reads an existing journal (validating its header and every
// complete record) or creates a fresh one, and leaves the file open for
// appends. A kill between creating the file and finishing its header
// leaves it empty or holding a header fragment with no newline; such a
// file has no records to lose and is started afresh.
func loadJournal(path, fingerprint string) (*Journal, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || err == nil && tornHeader(string(data)):
		f, cerr := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if cerr != nil {
			return nil, cerr
		}
		hdr, herr := json.Marshal(journalHeader{Journal: journalMagic, V: 1, Fingerprint: fingerprint, World: core.ConstructionRevision})
		if herr != nil {
			f.Close()
			return nil, fmt.Errorf("experiments: journal header: %w", herr)
		}
		if _, werr := f.Write(append(hdr, '\n')); werr != nil {
			f.Close()
			return nil, werr
		}
		// Sync the header before any cell is recorded: "crash-tolerant"
		// must mean power-loss-tolerant, not just kill-9-tolerant — a
		// buffered header that never reached the disk would make every
		// synced cell after it unreadable.
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, fmt.Errorf("experiments: journal header sync: %w", serr)
		}
		return &Journal{f: f, cells: make(map[string]*cellRecord)}, nil
	case err != nil:
		return nil, err
	}

	lines := strings.Split(string(data), "\n")
	// A crash mid-append leaves a final line without its terminating
	// newline; never treat that fragment as corruption — drop it and let
	// the cell re-run. (A cleanly written file ends with "\n", so the
	// final split element is empty and dropping it is a no-op.)
	lines = lines[:len(lines)-1]
	var hdr journalHeader
	if len(lines) == 0 || json.Unmarshal([]byte(lines[0]), &hdr) != nil || hdr.Journal != journalMagic {
		return nil, fmt.Errorf("experiments: journal %s: not a nowbench cell journal", path)
	}
	if hdr.V != 1 {
		return nil, fmt.Errorf("experiments: journal %s: unsupported version %d", path, hdr.V)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("experiments: journal %s was recorded for a different run configuration (journal %q, this run %q); delete it or point -checkpoint elsewhere",
			path, hdr.Fingerprint, fingerprint)
	}
	if hdr.World != core.ConstructionRevision {
		return nil, fmt.Errorf("experiments: journal %s holds cells of worlds built by construction revision %d, this build builds revision %d; delete it or point -checkpoint elsewhere",
			path, hdr.World, core.ConstructionRevision)
	}
	// The trim above already dropped a truncated final record (its line
	// had no terminating newline); every remaining line must parse.
	cells := make(map[string]*cellRecord, len(lines)-1)
	for i, line := range lines[1:] {
		rec := &cellRecord{}
		if err := json.Unmarshal([]byte(line), rec); err != nil || rec.Key == "" {
			return nil, fmt.Errorf("experiments: journal %s: corrupt record on line %d", path, i+2)
		}
		cells[rec.Key] = rec
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, cells: cells}, nil
}

// tornHeader reports whether data is an unfinished journal header: no
// complete line, and a prefix of (or prefixed by) the header's opening
// bytes. Any other newline-free file is refused below, never truncated.
func tornHeader(data string) bool {
	const opening = `{"journal":"` + journalMagic + `"`
	return !strings.Contains(data, "\n") &&
		(strings.HasPrefix(data, opening) || strings.HasPrefix(opening, data))
}

// lookup returns the journaled record for key, if any.
func (j *Journal) lookup(key string) (*cellRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.cells[key]
	return rec, ok
}

// record persists one completed cell. The line is written AND fsynced
// before the cell is considered checkpointed, so neither a crash nor a
// power loss after record returns can lose it.
func (j *Journal) record(rec *cellRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("experiments: journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("experiments: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiments: journal sync: %w", err)
	}
	j.cells[rec.Key] = rec
	return nil
}

// millis reads the injected clock (0 without one).
func (j *Journal) millis() int64 {
	if j.now == nil {
		return 0
	}
	return j.now()
}

// BenchPoint is one cell's timing in a benchmark trajectory.
type BenchPoint struct {
	Key string `json:"key"`
	Ms  int64  `json:"ms"`
}

// BenchTrajectory summarizes the journal's per-cell timings, keys sorted,
// for BENCH_*.json emission: future changes prove speedups against a
// recorded trajectory instead of asserting them.
func (j *Journal) BenchTrajectory() (points []BenchPoint, totalMs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	points = make([]BenchPoint, 0, len(j.cells))
	for key, rec := range j.cells {
		points = append(points, BenchPoint{Key: key, Ms: rec.Ms})
		totalMs += rec.Ms
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Key < points[j].Key })
	return points, totalMs
}

// fragRecord converts a completed fragment into its journal record.
func fragRecord(key string, frag *Table, ms int64) *cellRecord {
	rec := &cellRecord{Key: key, Rows: frag.Rows, Notes: frag.Notes, Aux: frag.Aux, Ms: ms}
	if rec.Rows == nil {
		rec.Rows = [][]string{}
	}
	return rec
}

// recordFrag reconstitutes a journaled cell as a table fragment.
func (rec *cellRecord) frag(t *Table) *Table {
	frag := t.Fragment()
	frag.Rows = rec.Rows
	frag.Notes = rec.Notes
	frag.Aux = rec.Aux
	return frag
}
