package core

import (
	"strings"
	"testing"

	"nowover/internal/walk"
)

// The member-removal paths surfaced while writing the invariant layer:
// removing the last member must keep the backing array for reuse, a
// swap-moved node must stay removable, a double/absent removal must be an
// explicit error, and a mismatched byz flag must not underflow the
// Byzantine count the row holds. Each runs on a bootstrapped world through
// removeMember and insertMember, which keep the row, the member list and
// everything derived from the row together.

// honestWorld bootstraps a world with no Byzantine node, so that every
// row's Byzantine count starts at zero.
func honestWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(DefaultConfig(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(200, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestClusterStateRemoveLast(t *testing.T) {
	w := honestWorld(t)
	c := w.Clusters()[0]
	members := w.Members(c)
	// Remove from the front, so every removal but the last swap-moves.
	for _, x := range members {
		if err := w.removeMember(c, x, false); err != nil {
			t.Fatal(err)
		}
	}
	cs := w.cluster(c)
	if len(cs.members) != 0 || w.rows[c] != (walk.Row{}) {
		t.Fatalf("cluster not empty after removing all: %v, row %+v", cs.members, w.rows[c])
	}
	// The emptied record must RETAIN its backing array: retired clusters
	// pool it, and the retained capacity is what makes the next fill
	// allocation-free.
	if cap(cs.members) == 0 {
		t.Fatal("emptied member list released its backing array")
	}
	// The emptied cluster must remain usable (merge refill path).
	if err := w.insertMember(c, members[0], true); err != nil {
		t.Fatal(err)
	}
	if cs.indexOf(members[0]) != 0 || w.Size(c) != 1 || w.Byz(c) != 1 {
		t.Fatalf("re-add after empty broken: members %v, row %+v", cs.members, w.rows[c])
	}
}

func TestClusterStateRemoveMoved(t *testing.T) {
	w := honestWorld(t)
	c := w.Clusters()[0]
	members := w.Members(c)
	first, last := members[0], members[len(members)-1]
	// Removing the first member swap-moves the last into slot 0; it must
	// still be removable and its index must be correct.
	if err := w.removeMember(c, first, false); err != nil {
		t.Fatal(err)
	}
	if got := w.MemberAt(c, 0); got != last || w.cluster(c).indexOf(last) != 0 {
		t.Fatalf("swap-move bookkeeping broken: slot 0 holds %v, want %v", got, last)
	}
	if err := w.removeMember(c, last, false); err != nil {
		t.Fatalf("moved node not removable: %v", err)
	}
	if w.Size(c) != len(members)-2 || w.cluster(c).indexOf(members[1]) < 0 {
		t.Fatalf("unexpected survivors: %v", w.Members(c))
	}
}

func TestClusterStateRemoveAbsent(t *testing.T) {
	w := honestWorld(t)
	cs := w.Clusters()
	c, other := cs[0], cs[1]
	before := w.Members(c)
	if err := w.removeMember(c, w.MemberAt(other, 0), false); err == nil {
		t.Fatal("removing a node of another cluster succeeded")
	}
	x := before[0]
	if err := w.removeMember(c, x, false); err != nil {
		t.Fatal(err)
	}
	row := w.rows[c]
	if err := w.removeMember(c, x, false); err == nil {
		t.Fatal("double removal succeeded")
	}
	if w.Size(c) != len(before)-1 || w.rows[c] != row {
		t.Fatalf("failed removals mutated state: %v, row %+v", w.Members(c), w.rows[c])
	}
}

// TestClusterStateByzUnderflowGuard exercises recompose's guard: a
// removal flagged Byzantine from a cluster whose row counts none, and a
// direct move below zero, are refused with the row, the member list and
// every derived store as they were.
func TestClusterStateByzUnderflowGuard(t *testing.T) {
	w := honestWorld(t)
	c := w.Clusters()[0]
	x := w.MemberAt(c, 0)
	row := w.rows[c]
	if err := w.removeMember(c, x, true); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("byz-flagged removal from a byz-free cluster: %v", err)
	}
	if err := w.recompose(c, 0, -1); err == nil {
		t.Fatal("recompose took a Byzantine count below zero")
	}
	if w.rows[c] != row || w.cluster(c).indexOf(x) < 0 {
		t.Fatalf("rejected removal changed the cluster: row %+v, was %+v", w.rows[c], row)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// A symmetric allegiance flip leaves the count where it was.
	for _, byz := range []bool{true, false} {
		if err := w.SetCorrupted(x, byz); err != nil {
			t.Fatal(err)
		}
	}
	if w.rows[c] != row {
		t.Fatalf("row %+v after a symmetric flip, was %+v", w.rows[c], row)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
