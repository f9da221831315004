package ids

import (
	"math"
	"testing"
)

func TestNodeSetBasics(t *testing.T) {
	s := make(NodeSet)
	if !s.Add(7) {
		t.Error("Add of new element returned false")
	}
	if s.Add(7) {
		t.Error("Add of existing element returned true")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestAllocatorsMonotone(t *testing.T) {
	var na NodeAllocator
	var ca ClusterAllocator
	prevN := NodeID(0)
	prevC := ClusterID(0)
	for i := 0; i < 100; i++ {
		n := na.NextNode()
		c := ca.NextCluster()
		if i > 0 && (n <= prevN || c <= prevC) {
			t.Fatal("allocator not strictly increasing")
		}
		prevN, prevC = n, c
	}
	if na.Issued() != 100 || ca.Issued() != 100 {
		t.Fatalf("Issued = %d/%d, want 100/100", na.Issued(), ca.Issued())
	}
}

func TestClusterAllocatorExhaustion(t *testing.T) {
	a := ClusterAllocator{next: math.MaxUint32}
	if c := a.NextCluster(); c != math.MaxUint32 {
		t.Fatalf("NextCluster = %d, want the last ID %d", c, uint32(math.MaxUint32))
	}
	var c ClusterID
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		c = a.NextCluster()
		return false
	}()
	if !panicked {
		t.Fatalf("NextCluster after the last ID returned %d instead of panicking", c)
	}
}
