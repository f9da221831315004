package baseline

import (
	"testing"

	"nowover/internal/xrand"
)

func TestNewStaticClusterValidation(t *testing.T) {
	if _, err := NewStaticCluster(0, 10, 0.1, 1); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := NewStaticCluster(10, 5, 0.1, 1); err == nil {
		t.Error("fewer nodes than clusters accepted")
	}
}

func TestStaticClusterBootstrap(t *testing.T) {
	s, err := NewStaticCluster(16, 320, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Audit()
	if a.Nodes != 320 || a.Clusters != 16 {
		t.Fatalf("audit = %+v", a)
	}
	if a.MinSize != 20 || a.MaxSize != 20 {
		t.Errorf("uneven bootstrap: %+v", a)
	}
}

func TestStaticClusterSizesGrowWithN(t *testing.T) {
	// The paper's core criticism of static-#C schemes: cluster sizes are
	// Theta(n/#C) — they grow linearly with the network instead of staying
	// O(log N).
	s, err := NewStaticCluster(16, 320, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 960; i++ {
		s.Join(false)
	}
	a := s.Audit()
	if a.MeanSize < 75 || a.MeanSize > 85 {
		t.Errorf("mean size %.1f, want ~80 after 4x growth", a.MeanSize)
	}
	if a.MaxSize < 60 {
		t.Errorf("max size %d did not grow", a.MaxSize)
	}
}

func TestStaticClusterJoinCostGrows(t *testing.T) {
	s, err := NewStaticCluster(8, 160, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	early := s.Ledger().Snapshot()
	for i := 0; i < 50; i++ {
		s.Join(false)
	}
	earlyCost := s.Ledger().Since(early).Messages
	for i := 0; i < 1000; i++ {
		s.Join(false)
	}
	late := s.Ledger().Snapshot()
	for i := 0; i < 50; i++ {
		s.Join(false)
	}
	lateCost := s.Ledger().Since(late).Messages
	if lateCost < 10*earlyCost {
		t.Errorf("per-join cost did not blow up with n: early %d late %d", earlyCost, lateCost)
	}
}

func TestStaticClusterLeave(t *testing.T) {
	s, err := NewStaticCluster(4, 40, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(6)
	x, ok := s.RandomNode(r)
	if !ok {
		t.Fatal("no node")
	}
	if err := s.Leave(x); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 39 {
		t.Errorf("nodes = %d", s.NumNodes())
	}
	if err := s.Leave(x); err == nil {
		t.Error("double leave accepted")
	}
}

func TestStaticClusterByzantineTracking(t *testing.T) {
	s, err := NewStaticCluster(8, 160, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Audit()
	if a.MaxByzFraction <= 0 || a.MaxByzFraction > 0.8 {
		t.Errorf("max byz fraction %.2f implausible", a.MaxByzFraction)
	}
}

func TestSingleClusterCosts(t *testing.T) {
	var sc SingleCluster
	if sc.DecisionCost(100) != 9900 {
		t.Errorf("decision cost = %d", sc.DecisionCost(100))
	}
}

func TestRandomNodeCoverage(t *testing.T) {
	s, err := NewStaticCluster(4, 12, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		x, ok := s.RandomNode(r)
		if !ok {
			t.Fatal("no node")
		}
		seen[int(x)] = true
	}
	if len(seen) != 12 {
		t.Errorf("RandomNode reached %d of 12 nodes", len(seen))
	}
}
