// Package baseline implements the comparison points the paper positions
// NOW against:
//
//   - StaticCluster: the prior-work regime ([6, 7, 31] in the paper) where
//     the number of clusters is fixed at initialization. Under polynomial
//     size variation its cluster sizes grow as Theta(n/#C) — no longer
//     O(log N) — and every operation's cost grows with them, which is
//     precisely the scaling failure the paper's introduction describes.
//   - SingleCluster: the one-committee reduction (whole network runs
//     Byzantine agreement for every decision) with O(n^2) per-decision
//     cost; the complexity strawman from the introduction.
//
// The third baseline — NOW with shuffling disabled (the attack target of
// section 3.3, experiment E11's strawman) — is core.Config's Shuffle set
// to core.ShuffleOff rather than a separate implementation, so the
// attacked code path is the real one.
package baseline

import (
	"fmt"

	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

// StaticCluster is a fixed-#C clustering: joiners land in a uniformly
// random cluster (shuffling within a static cluster map, as in the
// rotation schemes of prior work), leavers are removed in place. There is
// no split/merge, so sizes track n/#C.
type StaticCluster struct {
	clusters [][]ids.NodeID
	byz      map[ids.NodeID]bool
	home     map[ids.NodeID]int
	alloc    ids.NodeAllocator
	led      *metrics.Ledger
	rng      *xrand.Rand
}

// NewStaticCluster builds the baseline with numClusters clusters and n0
// initial nodes, of which the first byzBudget (after placement
// randomization) are Byzantine.
func NewStaticCluster(numClusters, n0 int, tau float64, seed uint64) (*StaticCluster, error) {
	if numClusters < 1 {
		return nil, fmt.Errorf("baseline: numClusters %d < 1", numClusters)
	}
	if n0 < numClusters {
		return nil, fmt.Errorf("baseline: n0 %d below cluster count %d", n0, numClusters)
	}
	s := &StaticCluster{
		clusters: make([][]ids.NodeID, numClusters),
		byz:      make(map[ids.NodeID]bool),
		home:     make(map[ids.NodeID]int),
		led:      &metrics.Ledger{},
		rng:      xrand.New(seed),
	}
	byzBudget := int(tau * float64(n0))
	perm := s.rng.Perm(n0)
	for i := 0; i < n0; i++ {
		x := s.alloc.NextNode()
		c := i % numClusters
		s.clusters[c] = append(s.clusters[c], x)
		s.home[x] = c
		if perm[i] < byzBudget {
			s.byz[x] = true
		}
	}
	return s, nil
}

// Ledger exposes the cost ledger.
func (s *StaticCluster) Ledger() *metrics.Ledger { return s.led }

// NumNodes returns the population.
func (s *StaticCluster) NumNodes() int { return len(s.home) }

// NumClusters returns the (fixed) cluster count.
func (s *StaticCluster) NumClusters() int { return len(s.clusters) }

// Join inserts a node into a uniformly random cluster and re-randomizes
// that cluster's member positions (the rotation-style shuffle of prior
// work): cost O(|C|^2) — which grows with n under a static cluster count.
func (s *StaticCluster) Join(byzantine bool) ids.NodeID {
	x := s.alloc.NextNode()
	c := s.rng.Intn(len(s.clusters))
	s.clusters[c] = append(s.clusters[c], x)
	s.home[x] = c
	if byzantine {
		s.byz[x] = true
	}
	size := int64(len(s.clusters[c]))
	s.led.Charge(metrics.ClassIntraCluster, size*(size-1))
	s.led.AddRounds(2)
	return x
}

// Leave removes a node; its cluster re-synchronizes views at O(|C|^2).
func (s *StaticCluster) Leave(x ids.NodeID) error {
	c, ok := s.home[x]
	if !ok {
		return fmt.Errorf("baseline: unknown node %v", x)
	}
	lst := s.clusters[c]
	for i, m := range lst {
		if m == x {
			s.clusters[c] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	delete(s.home, x)
	delete(s.byz, x)
	size := int64(len(s.clusters[c]) + 1)
	s.led.Charge(metrics.ClassIntraCluster, size*(size-1))
	s.led.AddRounds(2)
	return nil
}

// RandomNode returns a uniform member.
func (s *StaticCluster) RandomNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(s.home) == 0 {
		return 0, false
	}
	// Reservoir over clusters keeps this allocation-free.
	target := r.Intn(len(s.home))
	for _, lst := range s.clusters {
		if target < len(lst) {
			return lst[target], true
		}
		target -= len(lst)
	}
	return 0, false
}

// Audit summarizes the baseline's state.
type Audit struct {
	Nodes, Clusters  int
	MinSize, MaxSize int
	MeanSize         float64
	MaxByzFraction   float64
}

// Audit computes the baseline's invariant snapshot.
func (s *StaticCluster) Audit() Audit {
	a := Audit{Nodes: len(s.home), Clusters: len(s.clusters)}
	first := true
	var sum int
	for _, lst := range s.clusters {
		size := len(lst)
		sum += size
		if first {
			a.MinSize, a.MaxSize = size, size
			first = false
		} else {
			if size < a.MinSize {
				a.MinSize = size
			}
			if size > a.MaxSize {
				a.MaxSize = size
			}
		}
		if size == 0 {
			continue
		}
		byz := 0
		for _, x := range lst {
			if s.byz[x] {
				byz++
			}
		}
		if f := float64(byz) / float64(size); f > a.MaxByzFraction {
			a.MaxByzFraction = f
		}
	}
	if len(s.clusters) > 0 {
		a.MeanSize = float64(sum) / float64(len(s.clusters))
	}
	return a
}

// SingleCluster models the whole-network-as-one-committee reduction: a
// cost oracle, since the paper only compares complexities.
type SingleCluster struct{}

// DecisionCost returns the per-decision message cost of whole-network
// Byzantine agreement: O(n^2) (quadratic all-to-all voting).
func (SingleCluster) DecisionCost(n int) int64 {
	return int64(n) * int64(n-1)
}
