package nownet

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite results/golden/trace_*.txt from the current code")

// TestGoldenLoopbackTraces byte-diffs the lockstep loopback trace of each
// equivalence configuration (TestEquivPhaseKing, TestEquivRandNum,
// TestEquivRelay) against results/golden/trace_<protocol>.txt. TestEquiv*
// check the same traces against the channel Engine; the golden files pin
// them without it. A change that means to move a trace re-records it with
//
//	go test ./internal/nownet -run TestGoldenLoopbackTraces -update
//
// and the diff of results/golden shows what moved.
func TestGoldenLoopbackTraces(t *testing.T) {
	for _, tc := range []struct {
		proto string
		class metrics.Class
		build func(*testing.T) (map[ids.NodeID]runtime.Process, int)
	}{
		{"phaseking", metrics.ClassAgreement, func(t *testing.T) (map[ids.NodeID]runtime.Process, int) {
			procs, _, rounds := phaseKingFixture(t)
			return procs, rounds
		}},
		{"randnum", metrics.ClassRandNum, func(t *testing.T) (map[ids.NodeID]runtime.Process, int) {
			procs, _, rounds := randNumFixture(t)
			return procs, rounds
		}},
		{"relay", metrics.ClassWalk, func(t *testing.T) (map[ids.NodeID]runtime.Process, int) {
			procs, _, rounds := relayFixture(t)
			return procs, rounds
		}},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			procs, rounds := tc.build(t)
			got := runOnLoopback(t, procs, rounds, tc.class).Trace().String()
			path := filepath.Join("..", "..", "results", "golden", "trace_"+tc.proto+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the current lockstep trace:\n--- golden ---\n%s--- current ---\n%s", path, want, got)
			}
		})
	}
}
