// Package ids defines the identifier types shared by every layer of the
// system: node identities (unforgeable per the paper's model) and cluster
// identities (vertices of the OVER overlay).
package ids

import (
	"fmt"
	"math"
)

// NodeID uniquely identifies a node for the lifetime of the run. The
// paper's model states identities cannot be forged; the simulator enforces
// this by construction (IDs are allocated once by the world and never
// reused).
type NodeID uint64

// String implements fmt.Stringer.
func (n NodeID) String() string { return fmt.Sprintf("n%d", uint64(n)) }

// ClusterID identifies a vertex of the overlay graph. Cluster IDs are
// allocated monotonically; a split mints a fresh ID for the new half and a
// merge retires one.
//
// A ClusterID is 32 bits wide. IDs are minted densely and never reused,
// and every cluster table is indexed by them, so a run cannot near 2^32
// clusters before it runs out of memory (the composition rows alone
// would take 32 GB); ClusterAllocator panics rather than wrap. The width
// is what a walk's hop reads: four bytes per overlay adjacency entry.
type ClusterID uint32

// String implements fmt.Stringer.
func (c ClusterID) String() string { return fmt.Sprintf("C%d", uint64(c)) }

// NodeSet is a set of node identifiers. Make it with make before the
// first Add.
type NodeSet map[NodeID]struct{}

// Add inserts id, returning true if it was not already present.
func (s NodeSet) Add(id NodeID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// Len returns the cardinality.
func (s NodeSet) Len() int { return len(s) }

// NodeAllocator mints unique node identifiers.
type NodeAllocator struct{ next NodeID }

// NextNode returns a fresh, never-before-issued NodeID.
func (a *NodeAllocator) NextNode() NodeID {
	id := a.next
	a.next++
	return id
}

// ClusterAllocator mints unique cluster identifiers. Its counter is wider
// than a ClusterID so that exhausting the ID space is seen, not wrapped.
type ClusterAllocator struct{ next uint64 }

// NextCluster returns a fresh, never-before-issued ClusterID. It panics
// once every ClusterID up to math.MaxUint32 has been issued: wrapping to 0
// would alias a live cluster.
func (a *ClusterAllocator) NextCluster() ClusterID {
	if a.next > math.MaxUint32 {
		panic("ids: cluster ID space exhausted: all 2^32 ClusterIDs have been issued")
	}
	id := ClusterID(a.next)
	a.next++
	return id
}

// Issued reports how many IDs have been allocated. Only oracles read it:
// core's property and swap tests scan every ClusterID ever minted,
// retired ones included, and name one never minted.
func (a *ClusterAllocator) Issued() int { return int(a.next) }
