package nownet

import (
	"testing"

	"nowover/internal/ids"
	"nowover/internal/xrand"
)

// TestDedupSetMatchesMap checks every add against a map on random key
// sequences: a few senders or many, MsgIDs dense or sparse, the all-zero
// key included, and enough keys to double the table several times.
func TestDedupSetMatchesMap(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 60; trial++ {
		var s dedupSet
		ref := make(map[dedupKey]bool)
		senders := 1 + r.Intn(1+trial)
		idRange := 1 << uint(1+trial%14)
		for i := 0; i < 3000; i++ {
			k := dedupKey{from: ids.NodeID(r.Intn(senders)), msgID: uint64(r.Intn(idRange))}
			if trial%7 == 0 && i%3 == 0 {
				k.msgID = r.Uint64()
			}
			if got, want := s.add(k), !ref[k]; got != want {
				t.Fatalf("trial %d, add %d of %+v: added %v, want %v", trial, i, k, got, want)
			}
			ref[k] = true
		}
		held := s.n
		if s.hasZero {
			held++
		}
		if held != len(ref) {
			t.Fatalf("trial %d: set holds %d keys, map %d", trial, held, len(ref))
		}
		if 4*s.n > 3*len(s.slots) {
			t.Fatalf("trial %d: %d keys in %d slots, over three quarters full", trial, s.n, len(s.slots))
		}
	}
}

// TestDedupSetAllocatesOnlyToGrow: the first key makes the 16-slot table,
// the next eleven fit in it, and the thirteenth doubles it.
func TestDedupSetAllocatesOnlyToGrow(t *testing.T) {
	for _, tc := range []struct{ keys, allocs int }{{0, 0}, {1, 1}, {12, 1}, {13, 2}} {
		got := testing.AllocsPerRun(20, func() {
			var s dedupSet
			for i := 0; i < tc.keys; i++ {
				s.add(dedupKey{from: 1, msgID: uint64(i + 1)})
				s.add(dedupKey{from: 1, msgID: uint64(i + 1)})
			}
		})
		if int(got) != tc.allocs {
			t.Errorf("%d keys: %v allocations, want %d", tc.keys, got, tc.allocs)
		}
	}
}
