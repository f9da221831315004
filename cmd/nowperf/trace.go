package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded by this package around
// its calls into each layer — spans inside the product packages are the
// observability spine's job — kept in memory, and written when the run
// ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was made
	EndNS   int64  `json:"end_ns"`
	Unit    int    `json:"unit"` // index of the unit, op or probe repetition
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// pass runs the same loops with no tracer.
type tracer struct {
	mu    sync.Mutex // wire.step spans end on the round hosts' goroutines
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now, Unit: unit})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []selfRow {
	children := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].StartNS < t.spans[kids[j]].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(t.spans[k].StartNS, upTo), min(t.spans[k].EndNS, s.EndNS)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += time.Duration(s.EndNS - s.StartNS)
		r.self += time.Duration(s.EndNS - s.StartNS - covered)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "self time by span name (a span minus what its children cover):\n")
	fmt.Fprintf(w, "  %-20s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}
