package core

import (
	"fmt"
	"slices"
	"testing"

	"nowover/internal/xrand"
)

// TestSettleOrderBlind: settleSecurity's folds do not depend on the order
// of its queue. Twin worlds run the same unsettled leaves and exchanges,
// and one of them settles its queue reversed: both must settle to the
// same Stats and the same settled classes, in both cascade modes, with
// transitions counted and clusters retired after they were queued.
func TestSettleOrderBlind(t *testing.T) {
	for _, grouped := range []bool{true, false} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			run := func(reverse bool) (Stats, Stats, string, int) {
				w := swapWorld(t, 9, grouped)
				before := w.stats
				r := xrand.New(5)
				for i := 0; i < 40; i++ {
					if i%2 == 0 {
						if err := w.leaveWith(w.allNodes[r.Intn(len(w.allNodes))]); err != nil {
							t.Fatal(err)
						}
						continue
					}
					c, _ := w.RandomCluster(r)
					if err := w.forceExchangeWith(c); err != nil {
						t.Fatal(err)
					}
				}
				queued := len(w.settleQueue)
				if reverse {
					slices.Reverse(w.settleQueue)
				}
				w.settleSecurity()
				return before, w.stats, swapState(w), queued
			}
			before, fwd, fwdState, queued := run(false)
			_, rev, revState, _ := run(true)
			if queued < 2 {
				t.Fatalf("only %d clusters queued; the order cannot matter", queued)
			}
			if fwd.DegradedEvents == before.DegradedEvents && fwd.CapturedEvents == before.CapturedEvents {
				t.Errorf("stats %+v: the settle counted no transition", fwd)
			}
			if fwd != rev {
				t.Errorf("stats differ: queue order %+v, reversed %+v", fwd, rev)
			}
			if fwdState != revState {
				t.Error("settled worlds differ between the queue order and its reverse")
			}
		})
	}
}
