package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/golden/*.txt from the current code")

// TestGoldenQuickTables byte-diffs every experiment table (E1-E12, A1-A4,
// in ID order) at QuickScale, seed 1, against results/golden: one file per
// leave-cascade mode. quick.txt is the default (grouped) rendering;
// quick_per_receiver.txt is Algorithm 2's per-receiver cascade, the
// paper-faithful reference. Any change to a rendered table fails here; a
// change that means to move a table re-records it with
//
//	go test ./internal/experiments -run TestGoldenQuickTables -update
//
// and the diff of results/golden shows what moved. Two quick sweeps take
// several seconds, so the test stays out of -short.
func TestGoldenQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden quick sweep skipped in -short mode")
	}
	for _, tc := range []struct {
		file    string
		grouped bool
	}{
		{"quick.txt", true},
		{"quick_per_receiver.txt", false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			s := QuickScale()
			s.GroupedCascade = tc.grouped
			tables, err := RunMany(IDs(), s)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, tb := range tables {
				if err := tb.Render(&got); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("..", "..", "results", "golden", tc.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the current tables at %s", path, firstDiff(string(want), got.String()))
			}
		})
	}
}

// firstDiff names the first differing line of two renders.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "end of file"
}
