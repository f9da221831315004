package core

import (
	"slices"
	"strings"
	"testing"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// requireInvariants is the test-layer wrapper around the reusable
// CheckInvariants oracle.
func requireInvariants(t testing.TB, w *World) {
	t.Helper()
	if err := CheckInvariants(w); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsHoldAtBootstrap(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		requireInvariants(t, newModeWorld(t, 5, grouped))
	}
}

// TestInvariantsAfterRandomOps drives randomized operation sequences —
// batches through ExecBatch plus interleaved classic ops — and asserts
// CheckInvariants after every step, in both cascade modes (per-receiver
// and grouped). This is the reusable
// invariant-layer entry point the ISSUE asks for: any future maintenance
// change that can corrupt membership, Byzantine counts, size bounds or the
// overlay/partition correspondence fails here first.
func TestInvariantsAfterRandomOps(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, grouped := range []bool{false, true} {
		for _, seed := range seeds {
			w := newModeWorld(t, seed, grouped)
			r := xrand.New(seed ^ 0xBEEF)
			for step := 0; step < 12; step++ {
				switch r.Intn(3) {
				case 0:
					w.ExecBatch(randomBatch(w, r, 1+r.Intn(8)))
				case 1:
					if _, err := w.JoinAuto(r.Bool(0.2)); err != nil {
						t.Fatalf("grouped=%v seed=%d: %v", grouped, seed, err)
					}
				case 2:
					if x, ok := w.RandomNode(r); ok {
						if err := w.Leave(x); err != nil {
							t.Fatalf("grouped=%v seed=%d: %v", grouped, seed, err)
						}
					}
				}
				if err := CheckInvariants(w); err != nil {
					t.Fatalf("grouped=%v seed=%d step=%d: %v", grouped, seed, step, err)
				}
			}
		}
	}
}

// TestInvariantsWithRejoinMerge exercises the MergeRejoinAll strategy
// (the displaced FIFO) under batches: merges inside a batch displace
// nodes that a later batch of OpRejoin ops re-joins without breaking any
// index.
func TestInvariantsWithRejoinMerge(t *testing.T) {
	w := newRejoinWorld(t, 17)
	r := xrand.New(31)
	for step := 0; step < 25; step++ {
		// Drain displaced nodes first, like the simulator does.
		if n := w.Displaced(); n > 0 {
			for _, rr := range w.ExecBatch(rejoinOps(n)) {
				if rr.Err != nil {
					t.Fatal(rr.Err)
				}
			}
			requireInvariants(t, w)
		}
		ops := make([]Op, 0, 4)
		for len(ops) < 4 {
			x, ok := w.RandomNode(r)
			if !ok {
				break
			}
			ops = append(ops, Op{Kind: OpLeave, Victim: x})
		}
		for _, rr := range w.ExecBatch(ops) {
			if rr.Err != nil && !IsUnknownNode(rr.Err) {
				t.Fatal(rr.Err)
			}
		}
		requireInvariants(t, w)
		if w.NumNodes() < 3*w.cfg.TargetClusterSize() {
			break // shrunk far enough to have exercised merges
		}
	}
	if w.Stats().Merges == 0 {
		t.Fatal("shrink run produced no merges")
	}
}

// TestCheckInvariantsDetectsBreakage corrupts the bookkeeping directly and
// confirms the oracle notices — an oracle that cannot fail is worthless.
// Each case is one crafted corruption per error branch, on a fresh world,
// and must be reported by the branch that names it. CheckConsistency runs
// first and already recounts the sampling positions, the tracked max and
// the overlay vertex set, so those four corruptions are reported in its
// words; the duplicate membership passes every consistency check and only
// the membership bitset catches it.
func TestCheckInvariantsDetectsBreakage(t *testing.T) {
	firstCluster := func(t *testing.T, w *World) (ids.ClusterID, *clusterState) {
		for i := range w.clusters {
			if w.clusters[i].live {
				return ids.ClusterID(i), &w.clusters[i]
			}
		}
		t.Fatal("world has no cluster")
		return 0, nil
	}
	var led metrics.Ledger
	noPick := func(ids.ClusterID) (ids.ClusterID, bool) { return 0, false }
	cases := []struct {
		name    string
		corrupt func(t *testing.T, w *World)
		want    string
	}{
		{
			// Drop one member from a cluster's list without touching any
			// derived index (size multiset, node records, security class):
			// consistency must flag the mismatch.
			name: "vanished member",
			corrupt: func(t *testing.T, w *World) {
				_, cs := firstCluster(t, w)
				cs.members = cs.members[:len(cs.members)-1]
			},
			want: "consistency:",
		},
		{
			// A member slot names a node of the same allegiance that the
			// cluster already lists: sizes, counts, rows and every node
			// record still agree, and the node it replaced is still
			// indexed, but a node now sits in two member slots.
			name: "duplicate membership",
			corrupt: func(t *testing.T, w *World) {
				_, cs := firstCluster(t, w)
				x := cs.members[0]
				for j := len(cs.members) - 1; j > 0; j-- {
					if w.IsByzantine(cs.members[j]) == w.IsByzantine(x) {
						cs.members[j] = x
						return
					}
				}
				t.Fatal("no two members of the same allegiance")
			},
			want: "is a member of two clusters",
		},
		{
			// Every member of the first cluster moves to the next one,
			// each derived index following: only emptiness is wrong.
			name: "empty cluster",
			corrupt: func(t *testing.T, w *World) {
				c, cs := firstCluster(t, w)
				d := c + 1
				for int(d) < len(w.clusters) && !w.clusters[d].live {
					d++
				}
				if int(d) == len(w.clusters) {
					t.Fatal("world has one cluster")
				}
				for _, x := range slices.Clone(cs.members) {
					byz := w.IsByzantine(x)
					if err := w.removeMember(c, x, byz); err != nil {
						t.Fatal(err)
					}
					if err := w.insertMember(d, x, byz); err != nil {
						t.Fatal(err)
					}
					w.nodes[x].cluster = d
				}
			},
			want: "is empty",
		},
		{
			// One node's record points at another node's slot in the flat
			// sampling index; the error names the node whose record is
			// wrong.
			name:    "misplaced sampling position",
			corrupt: func(t *testing.T, w *World) { w.nodes[3].pos = w.nodes[7].pos },
			want:    "node n3 has sampling position",
		},
		{
			name:    "above split threshold",
			corrupt: func(t *testing.T, w *World) { w.cfg.K /= 10 },
			want:    "above split threshold",
		},
		{
			name:    "below merge threshold",
			corrupt: func(t *testing.T, w *World) { w.cfg.K *= 10 },
			want:    "below merge threshold",
		},
		{
			name:    "tracked-max drift",
			corrupt: func(t *testing.T, w *World) { w.maxSize++ },
			want:    "tracked max",
		},
		{
			// An ID no cluster holds becomes an overlay vertex.
			name: "overlay vertex not a cluster",
			corrupt: func(t *testing.T, w *World) {
				if _, err := w.overlay.Add(&led, ids.ClusterID(len(w.clusters)), noPick, 1); err != nil {
					t.Fatal(err)
				}
			},
			want: "overlay has",
		},
		{
			name: "cluster not an overlay vertex",
			corrupt: func(t *testing.T, w *World) {
				c, _ := firstCluster(t, w)
				if _, err := w.overlay.Remove(&led, c, noPick, 1); err != nil {
					t.Fatal(err)
				}
			},
			want: "missing from overlay",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 23)
			requireInvariants(t, w)
			tc.corrupt(t, w)
			err := CheckInvariants(w)
			if err == nil {
				t.Fatalf("invariant oracle missed a %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s reported as %q, want it to say %q", tc.name, err, tc.want)
			}
		})
	}
}
