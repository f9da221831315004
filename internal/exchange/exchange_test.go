package exchange

import (
	"fmt"
	"testing"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// fakeWorld implements World over an explicit partition + overlay graph.
type fakeWorld struct {
	g       *graph.Graph[ids.ClusterID]
	members map[ids.ClusterID][]ids.NodeID
	byz     map[ids.NodeID]bool
	home    map[ids.NodeID]ids.ClusterID
	maxSz   int
	// moves logs every Transfer as (from, to), in call order.
	moves [][2]ids.ClusterID
}

func newFakeWorld(t *testing.T, clusters, size, degree int, seed uint64) *fakeWorld {
	t.Helper()
	fw := &fakeWorld{
		g:       graph.New[ids.ClusterID](),
		members: make(map[ids.ClusterID][]ids.NodeID),
		byz:     make(map[ids.NodeID]bool),
		home:    make(map[ids.NodeID]ids.ClusterID),
		maxSz:   size,
	}
	var vs []ids.ClusterID
	next := ids.NodeID(0)
	for i := 0; i < clusters; i++ {
		c := ids.ClusterID(i)
		fw.g.AddVertex(c)
		vs = append(vs, c)
		for j := 0; j < size; j++ {
			fw.members[c] = append(fw.members[c], next)
			fw.home[next] = c
			next++
		}
	}
	if err := graph.RandomRegularish(fw.g, xrand.New(seed), vs, degree); err != nil {
		t.Fatal(err)
	}
	return fw
}

func (f *fakeWorld) NumClusters() int                           { return f.g.NumVertices() }
func (f *fakeWorld) NumOverlayEdges() int                       { return f.g.NumEdges() }
func (f *fakeWorld) Adjacent(c ids.ClusterID) []ids.ClusterID   { return f.g.Neighbors(c) }
func (f *fakeWorld) Size(c ids.ClusterID) int                   { return len(f.members[c]) }
func (f *fakeWorld) MaxClusterSize() int                        { return f.maxSz }
func (f *fakeWorld) MemberAt(c ids.ClusterID, i int) ids.NodeID { return f.members[c][i] }

func (f *fakeWorld) Byz(c ids.ClusterID) int {
	n := 0
	for _, x := range f.members[c] {
		if f.byz[x] {
			n++
		}
	}
	return n
}

func (f *fakeWorld) Members(c ids.ClusterID) []ids.NodeID {
	out := make([]ids.NodeID, len(f.members[c]))
	copy(out, f.members[c])
	return out
}

func (f *fakeWorld) Transfer(x ids.NodeID, from, to ids.ClusterID) error {
	if f.home[x] != from {
		return fmt.Errorf("node %v not in %v", x, from)
	}
	lst := f.members[from]
	for i, m := range lst {
		if m == x {
			f.members[from] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	f.members[to] = append(f.members[to], x)
	f.home[x] = to
	f.moves = append(f.moves, [2]ids.ClusterID{from, to})
	if len(f.members[to]) > f.maxSz {
		f.maxSz = len(f.members[to])
	}
	return nil
}

var _ World = (*fakeWorld)(nil)

func newExchanger(t *testing.T, fw *fakeWorld) *Exchanger {
	t.Helper()
	walker, err := walk.NewWalker(walk.Config{
		DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{},
	}, fw)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(fw, walker, randnum.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	fw := newFakeWorld(t, 4, 5, 2, 1)
	walker, err := walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 4, Gen: randnum.Ideal{}}, fw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, walker, randnum.Ideal{}); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := New(fw, nil, randnum.Ideal{}); err == nil {
		t.Error("nil walker accepted")
	}
	if _, err := New(fw, walker, nil); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestRunPreservesSizesAndPopulation(t *testing.T) {
	fw := newFakeWorld(t, 10, 8, 4, 2)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	sizesBefore := make(map[ids.ClusterID]int)
	for c := range fw.members {
		sizesBefore[c] = len(fw.members[c])
	}
	total := len(fw.home)
	rep, err := e.Run(&led, xrand.New(3), ids.ClusterID(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps+rep.SelfSwaps != 8 {
		t.Errorf("swaps+self = %d, want 8", rep.Swaps+rep.SelfSwaps)
	}
	for c, s := range sizesBefore {
		if len(fw.members[c]) != s {
			t.Errorf("cluster %v size changed %d -> %d", c, s, len(fw.members[c]))
		}
	}
	if len(fw.home) != total {
		t.Errorf("population changed: %d -> %d", total, len(fw.home))
	}
	// Every node lives where the index says.
	for x, c := range fw.home {
		found := false
		for _, m := range fw.members[c] {
			if m == x {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %v index points at %v but is not a member", x, c)
		}
	}
}

func TestRunMovesMostMembers(t *testing.T) {
	fw := newFakeWorld(t, 12, 10, 4, 4)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	c0 := ids.ClusterID(0)
	before := map[ids.NodeID]bool{}
	for _, x := range fw.members[c0] {
		before[x] = true
	}
	rep, err := e.Run(&led, xrand.New(5), c0)
	if err != nil {
		t.Fatal(err)
	}
	stayed := 0
	for _, x := range fw.members[c0] {
		if before[x] {
			stayed++
		}
	}
	// Each original member leaves unless its walk self-returned or it was
	// randomly drawn back as some later replacement; most must move.
	if stayed > rep.SelfSwaps+3 {
		t.Errorf("%d of 10 members stayed (self-swaps %d)", stayed, rep.SelfSwaps)
	}
}

func TestRunChargesAllClasses(t *testing.T) {
	fw := newFakeWorld(t, 10, 8, 4, 6)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	if _, err := e.Run(&led, xrand.New(7), ids.ClusterID(1)); err != nil {
		t.Fatal(err)
	}
	for _, cls := range []metrics.Class{
		metrics.ClassWalk, metrics.ClassRandNum,
		metrics.ClassExchange, metrics.ClassInterCluster,
	} {
		if led.MessagesBy(cls) == 0 {
			t.Errorf("no %v messages charged", cls)
		}
	}
}

// newHandWorld builds a fakeWorld over an explicit topology: cluster i has
// sizes[i] honest members, and edges lists the overlay edges.
func newHandWorld(t *testing.T, sizes []int, edges [][2]ids.ClusterID) *fakeWorld {
	t.Helper()
	fw := &fakeWorld{
		g:       graph.New[ids.ClusterID](),
		members: make(map[ids.ClusterID][]ids.NodeID),
		byz:     make(map[ids.NodeID]bool),
		home:    make(map[ids.NodeID]ids.ClusterID),
	}
	next := ids.NodeID(0)
	for i, size := range sizes {
		c := ids.ClusterID(i)
		fw.g.AddVertex(c)
		for j := 0; j < size; j++ {
			fw.members[c] = append(fw.members[c], next)
			fw.home[next] = c
			next++
		}
		fw.maxSz = max(fw.maxSz, size)
	}
	for _, e := range edges {
		if err := fw.g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return fw
}

// TestSwapChargeClosedForm pins the per-swap cost model on a topology
// whose neighbours have unequal sizes. A swap between C and C' charges its
// class |C| + |C'| + M(C) + M(C') installation messages, where M(X) is the
// number of nodes adjacent to X, and charges ClassInterCluster the
// composition updates |C|*M(C) + |C'|*M(C'): every node of every neighbour
// D of X hears X's new composition, |X|*|D| messages per D. Swaps keep
// every size fixed, so the expected totals follow from the move log alone.
func TestSwapChargeClosedForm(t *testing.T) {
	sizes := []int{4, 3, 6, 2, 5, 7}
	edges := [][2]ids.ClusterID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {0, 4}, {4, 5}, {3, 5}}
	mass := make([]int64, len(sizes))
	for _, e := range edges {
		mass[e[0]] += int64(sizes[e[1]])
		mass[e[1]] += int64(sizes[e[0]])
	}
	// expect sums the closed form over the swaps in the move log: each
	// swap is the transfer pair (a->b, b->a).
	expect := func(moves [][2]ids.ClusterID) (install, inter int64, swaps int) {
		if len(moves)%2 != 0 {
			t.Fatalf("odd move log %v", moves)
		}
		for i := 0; i < len(moves); i += 2 {
			a, b := moves[i][0], moves[i][1]
			if moves[i+1] != [2]ids.ClusterID{b, a} {
				t.Fatalf("moves %v, %v are not one swap", moves[i], moves[i+1])
			}
			sa, sb := int64(sizes[a]), int64(sizes[b])
			install += sa + sb + mass[a] + mass[b]
			inter += sa*mass[a] + sb*mass[b]
		}
		return install, inter, len(moves) / 2
	}

	t.Run("Run", func(t *testing.T) {
		fw := newHandWorld(t, sizes, edges)
		var led metrics.Ledger
		rep, err := newExchanger(t, fw).Run(&led, xrand.New(41), ids.ClusterID(2))
		if err != nil {
			t.Fatal(err)
		}
		install, inter, swaps := expect(fw.moves)
		if swaps != rep.Swaps || swaps == 0 {
			t.Fatalf("move log holds %d swaps, report %d; want a non-zero match", swaps, rep.Swaps)
		}
		if got := led.MessagesBy(metrics.ClassExchange); got != install {
			t.Errorf("exchange class = %d, closed form %d", got, install)
		}
		if got := led.MessagesBy(metrics.ClassInterCluster); got != inter {
			t.Errorf("inter-cluster class = %d, closed form %d", got, inter)
		}
		if got := led.MessagesBy(metrics.ClassCascade); got != 0 {
			t.Errorf("cascade class = %d, want 0 outside a cascade round", got)
		}
	})

	t.Run("CascadeRound", func(t *testing.T) {
		fw := newHandWorld(t, sizes, edges)
		var led metrics.Ledger
		rep, err := newExchanger(t, fw).CascadeRound(&led, xrand.New(43), ids.ClusterID(0), []ids.ClusterID{1, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		install, inter, swaps := expect(fw.moves)
		if swaps != rep.Swaps || swaps == 0 {
			t.Fatalf("move log holds %d swaps, report %d; want a non-zero match", swaps, rep.Swaps)
		}
		if got := led.MessagesBy(metrics.ClassCascade); got != install {
			t.Errorf("cascade class = %d, closed form %d", got, install)
		}
		if got := led.MessagesBy(metrics.ClassInterCluster); got != inter {
			t.Errorf("inter-cluster class = %d, closed form %d", got, inter)
		}
		if got := led.MessagesBy(metrics.ClassExchange); got != 0 {
			t.Errorf("exchange class = %d, want 0 in a cascade round", got)
		}
	})
}

func TestReceiversDistinct(t *testing.T) {
	fw := newFakeWorld(t, 10, 8, 4, 8)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	rep, err := e.Run(&led, xrand.New(9), ids.ClusterID(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ids.ClusterID]bool{}
	for _, r := range rep.Receivers {
		if seen[r] {
			t.Errorf("receiver %v listed twice", r)
		}
		if r == ids.ClusterID(2) {
			t.Error("cluster listed as its own receiver")
		}
		seen[r] = true
	}
	if len(rep.Receivers) == 0 && rep.Swaps > 0 {
		t.Error("swaps happened but no receivers recorded")
	}
}

// cloneMembers snapshots the full partition for before/after comparisons.
func cloneMembers(fw *fakeWorld) map[ids.ClusterID][]ids.NodeID {
	out := make(map[ids.ClusterID][]ids.NodeID, len(fw.members))
	for c, ms := range fw.members {
		cp := make([]ids.NodeID, len(ms))
		copy(cp, ms)
		out[c] = cp
	}
	return out
}

func TestCascadeRoundOneSwapPerReceiver(t *testing.T) {
	fw := newFakeWorld(t, 12, 8, 4, 21)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	receivers := []ids.ClusterID{1, 3, 5, 7}
	before := cloneMembers(fw)
	total := len(fw.home)
	rep, err := e.CascadeRound(&led, xrand.New(13), ids.ClusterID(0), receivers)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one swap slot per receiver: each receiver swaps with a pool
	// partner or (with an empty pool) self-passes.
	if rep.Swaps+rep.SelfSwaps != len(receivers) {
		t.Errorf("swaps+self = %d, want one per receiver (%d)", rep.Swaps+rep.SelfSwaps, len(receivers))
	}
	for c, ms := range before {
		if len(fw.members[c]) != len(ms) {
			t.Errorf("cluster %v size changed %d -> %d", c, len(ms), len(fw.members[c]))
		}
	}
	if len(fw.home) != total {
		t.Errorf("population changed: %d -> %d", total, len(fw.home))
	}
	for x, c := range fw.home {
		found := false
		for _, m := range fw.members[c] {
			if m == x {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %v index points at %v but is not a member", x, c)
		}
	}
}

func TestCascadeRoundChargesCascadeClass(t *testing.T) {
	fw := newFakeWorld(t, 12, 8, 4, 22)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	rep, err := e.CascadeRound(&led, xrand.New(17), ids.ClusterID(10), []ids.ClusterID{0, 2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps == 0 {
		t.Fatal("no swaps happened; pick another seed")
	}
	if led.MessagesBy(metrics.ClassCascade) == 0 {
		t.Error("cascade swaps charged no cascade-class messages")
	}
	if led.MessagesBy(metrics.ClassExchange) != 0 {
		t.Errorf("cascade round charged %d exchange-class messages; cascade traffic must be separable",
			led.MessagesBy(metrics.ClassExchange))
	}
}

// TestCascadeRoundCheaperThanPerReceiverExchanges pins the amortization
// claim: one grouped round over k receivers must cost well under k full
// exchanges, in messages AND rounds, on identical starting states.
func TestCascadeRoundCheaperThanPerReceiverExchanges(t *testing.T) {
	receivers := []ids.ClusterID{1, 2, 3, 4, 5, 6}
	grouped := newFakeWorld(t, 14, 10, 4, 23)
	var gl metrics.Ledger
	if _, err := newExchanger(t, grouped).CascadeRound(&gl, xrand.New(19), ids.ClusterID(0), receivers); err != nil {
		t.Fatal(err)
	}
	classic := newFakeWorld(t, 14, 10, 4, 23)
	var cl metrics.Ledger
	ce := newExchanger(t, classic)
	r := xrand.New(19)
	for _, rc := range receivers {
		if _, err := ce.Run(&cl, r, rc); err != nil {
			t.Fatal(err)
		}
	}
	if gl.Messages()*2 >= cl.Messages() {
		t.Errorf("grouped round msgs %d not well under per-receiver msgs %d", gl.Messages(), cl.Messages())
	}
	if gl.Rounds()*2 >= cl.Rounds() {
		t.Errorf("grouped round rounds %d not well under per-receiver rounds %d", gl.Rounds(), cl.Rounds())
	}
}

// TestCascadeRoundWritesStayInPool pins the footprint property the op
// scheduler's admission relies on: every node the round moves travels
// between clusters of {source} ∪ receivers — the set the leave's primary
// exchange already wrote — so the cascade adds NO clusters to a leave
// plan's write footprint.
func TestCascadeRoundWritesStayInPool(t *testing.T) {
	fw := newFakeWorld(t, 16, 8, 4, 26)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	source := ids.ClusterID(9)
	receivers := []ids.ClusterID{2, 4, 11, 14}
	pool := map[ids.ClusterID]bool{source: true}
	for _, rc := range receivers {
		pool[rc] = true
	}
	before := cloneMembers(fw)
	rep, err := e.CascadeRound(&led, xrand.New(31), source, receivers)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps == 0 {
		t.Fatal("no swaps happened; pick another seed")
	}
	for _, p := range rep.Receivers {
		if !pool[p] {
			t.Errorf("round partner %v outside the pool", p)
		}
	}
	for c, ms := range before {
		if pool[c] {
			continue
		}
		if fmt.Sprint(fw.members[c]) != fmt.Sprint(ms) {
			t.Errorf("cluster %v outside the pool was mutated: %v -> %v", c, ms, fw.members[c])
		}
	}
}

func TestCascadeRoundSkipsDissolvedReceiver(t *testing.T) {
	fw := newFakeWorld(t, 10, 8, 4, 24)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	// Cluster 99 does not exist: the round must skip it, not fail.
	rep, err := e.CascadeRound(&led, xrand.New(23), ids.ClusterID(0), []ids.ClusterID{1, 99, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps+rep.SelfSwaps != 2 {
		t.Errorf("swaps+self = %d, want 2 (dissolved receiver skipped)", rep.Swaps+rep.SelfSwaps)
	}
}

// TestCascadeRoundNoSwapsNoRounds: a round that moves nothing (every
// receiver dissolved) must not charge round latency either.
func TestCascadeRoundNoSwapsNoRounds(t *testing.T) {
	fw := newFakeWorld(t, 6, 8, 3, 27)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	rep, err := e.CascadeRound(&led, xrand.New(33), ids.ClusterID(0), []ids.ClusterID{77, 88})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps != 0 {
		t.Fatalf("swaps = %d, want 0", rep.Swaps)
	}
	if led.Rounds() != 0 || led.Messages() != 0 {
		t.Errorf("empty round charged rounds=%d msgs=%d, want 0/0", led.Rounds(), led.Messages())
	}
}

func TestCascadeRoundDeterministic(t *testing.T) {
	run := func() map[ids.ClusterID][]ids.NodeID {
		fw := newFakeWorld(t, 12, 8, 4, 25)
		e := newExchanger(t, fw)
		var led metrics.Ledger
		if _, err := e.CascadeRound(&led, xrand.New(29), ids.ClusterID(6), []ids.ClusterID{0, 1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
		return fw.members
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("cascade round is not deterministic under a fixed seed")
	}
}

func TestExchangeRandomizesByzantinePlacement(t *testing.T) {
	// A fully-Byzantine cluster exchanged against an honest network must
	// end up near the global Byzantine fraction — Lemma 1 in miniature.
	fw := newFakeWorld(t, 20, 10, 5, 10)
	target := ids.ClusterID(0)
	for _, x := range fw.members[target] {
		fw.byz[x] = true
	}
	e := newExchanger(t, fw)
	var led metrics.Ledger
	if _, err := e.Run(&led, xrand.New(11), target); err != nil {
		t.Fatal(err)
	}
	if after := fw.Byz(target); after > 5 {
		t.Errorf("byzantine members after exchange = %d of 10, want near global 5%%", after)
	}
}
