package experiments

// The parallel experiment runner: a shared worker-pool layer that fans
// independent simulation cells (per-size, per-trial, per-repetition units
// of an experiment) out across goroutines and aggregates the results
// deterministically in submission order.
//
// Determinism contract: every cell is self-contained — it builds its own
// world from a per-cell derived seed and never shares a *xrand.Rand or
// *core.World with another cell. Results land in an index-addressed slot,
// so the assembled table is byte-identical to a serial run regardless of
// goroutine scheduling. The worker count (Scale.Parallel, or the parallel
// argument of ForEach) only changes wall-clock, never output; the pool
// reads no process-wide setting.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: parallel > 0 uses exactly that
// many workers (1 is the serial path); 0 or less means GOMAXPROCS.
func Workers(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

// mapCells runs body(i) for every cell index in [0, count) on
// Workers(parallel) workers (serially when that is 1) and returns the
// results in submission (index) order. On failure the lowest-indexed failing cell's
// error is returned — the same error a serial run reports: after a
// failure only cells above the lowest failing index seen so far are
// skipped, so any earlier failure still gets a chance to surface. A
// panicking cell is converted into an error rather than tearing down
// sibling workers mid-experiment.
func mapCells[T any](parallel, count int, body func(i int) (T, error)) ([]T, error) {
	out := make([]T, count)
	if count == 0 {
		return out, nil
	}
	workers := Workers(parallel)
	if workers > count {
		workers = count
	}
	run := func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("experiments: cell %d panicked: %v", i, r)
			}
		}()
		return body(i)
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			v, err := run(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, count)
	idx := make(chan int)
	var minFailed atomic.Int64
	minFailed.Store(int64(count)) // sentinel: nothing failed yet
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if int64(i) > minFailed.Load() {
					continue // fail fast, but never skip a cell serial would have run
				}
				v, err := run(i)
				if err != nil {
					errs[i] = err
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	for i := 0; i < count; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach runs body(i) for every index in [0, count) on Workers(parallel)
// workers. It is the result-free form of mapCells for callers
// (cmd/nowsim's multi-run mode, external drivers) that collect output
// through their own index-addressed storage.
func ForEach(parallel, count int, body func(i int) error) error {
	_, err := mapCells(parallel, count, func(i int) (struct{}, error) {
		return struct{}{}, body(i)
	})
	return err
}

// RunMany executes the named experiments concurrently and returns their
// tables positionally aligned with ids. Cross-experiment parallelism
// composes with each experiment's own cell fan-out as a SECOND pool
// layer: up to Workers(s.Parallel) experiment workers each spawn their own
// cell pool, so the serial head and tail of one experiment's table
// overlap another experiment's cells and a full E1-E12 sweep keeps every
// core busy even while individual experiments drain. The composition
// oversubscribes goroutines (up to P*P runnable), not threads — the Go
// scheduler still executes at most GOMAXPROCS of them at once. Each
// experiment remains entirely self-contained (own worlds, own derived
// seeds), so the assembled tables are byte-identical to a serial run at
// any parallelism; on failure the lowest-indexed failing experiment's
// error is reported, exactly as a serial sweep would.
func RunMany(ids []string, s Scale) ([]*Table, error) {
	reg := Registry()
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
	}
	return mapCells(s.Parallel, len(ids), func(i int) (*Table, error) {
		t, err := reg[ids[i]](s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
		return t, nil
	})
}

// pair is one point of a two-parameter sweep grid.
type pair[A, B any] struct {
	a A
	b B
}

// gridCells flattens a row-major (as x bs) sweep into a cell list, so a
// nested loop can fan out as one batch while keeping its serial row
// order.
func gridCells[A, B any](as []A, bs []B) []pair[A, B] {
	out := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, pair[A, B]{a, b})
		}
	}
	return out
}

// Fragment returns an empty table sharing t's identity and columns, for
// one parallel cell to fill independently of its siblings.
func (t *Table) Fragment() *Table {
	return &Table{ID: t.ID, Title: t.Title, Claim: t.Claim, Columns: t.Columns}
}

// Splice appends a fragment's rows and notes onto t.
func (t *Table) Splice(frag *Table) {
	t.Rows = append(t.Rows, frag.Rows...)
	t.Notes = append(t.Notes, frag.Notes...)
}

// RunCells executes body for each cell on s's worker pool, handing every
// cell a private table fragment, then splices the fragments into t in
// submission order. Experiment-level notes computed from cross-cell
// aggregates belong after RunCells returns and must read per-cell numbers
// via frag.AddAux / t.CellAux — NOT closure-captured slices: when s
// carries a resume journal (Scale.Journal), completed cells are served
// from it without re-running body, and only the fragment's contents
// survive that path.
func (t *Table) RunCells(s Scale, count int, body func(i int, frag *Table) error) error {
	t.cellSeq++
	seq := t.cellSeq
	jnl := s.Journal
	frags, err := mapCells(s.Parallel, count, func(i int) (*Table, error) {
		key := fmt.Sprintf("%s#%d/%d", t.ID, seq, i)
		var startMs int64
		if jnl != nil {
			if rec, ok := jnl.lookup(key); ok {
				return rec.frag(t), nil
			}
			if jnl.interrupt != nil {
				if err := jnl.interrupt(key); err != nil {
					return nil, err
				}
			}
			startMs = jnl.millis()
		}
		frag := t.Fragment()
		if err := body(i, frag); err != nil {
			return nil, err
		}
		if jnl != nil {
			if err := jnl.record(fragRecord(key, frag, jnl.millis()-startMs)); err != nil {
				return nil, err
			}
		}
		return frag, nil
	})
	if err != nil {
		return err
	}
	t.cellAux = t.cellAux[:0]
	for _, frag := range frags {
		t.Splice(frag)
		t.cellAux = append(t.cellAux, frag.Aux)
	}
	return nil
}
