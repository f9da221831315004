package exchange

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nowover/internal/graph"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// fakeWorld implements World over a walk.View literal and explicit
// member lists. Its overlay is fixed; Swap edits the member lists and the
// view's rows in place, as core.World.Swap does.
type fakeWorld struct {
	view    walk.View
	members map[ids.ClusterID][]ids.NodeID
	byz     map[ids.NodeID]bool
	home    map[ids.NodeID]ids.ClusterID
	// moves logs each swap as its two moves, (a, b) then (b, a), in call
	// order.
	moves [][2]ids.ClusterID
	// failSwap, when positive, makes the failSwap-th Swap call fail.
	failSwap int
	swaps    int
}

func newFakeWorld(t *testing.T, clusters, size, degree int, seed uint64) *fakeWorld {
	t.Helper()
	g := graph.New[ids.ClusterID]()
	vs := make([]ids.ClusterID, clusters)
	sizes := make([]int, clusters)
	for i := range vs {
		vs[i], sizes[i] = ids.ClusterID(i), size
		g.AddVertex(vs[i])
	}
	if err := graph.RandomRegularish(g, xrand.New(seed), vs, degree); err != nil {
		t.Fatal(err)
	}
	return fakeOver(g, sizes)
}

// newHandWorld builds a fakeWorld over an explicit topology: cluster i has
// sizes[i] honest members, and edges lists the overlay edges.
func newHandWorld(t *testing.T, sizes []int, edges [][2]ids.ClusterID) *fakeWorld {
	t.Helper()
	g := graph.New[ids.ClusterID]()
	for i := range sizes {
		g.AddVertex(ids.ClusterID(i))
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return fakeOver(g, sizes)
}

// fakeOver builds the view of g, whose vertices are 0..len(sizes)-1, with
// cluster i holding sizes[i] honest members.
func fakeOver(g *graph.Graph[ids.ClusterID], sizes []int) *fakeWorld {
	fw := &fakeWorld{
		view: walk.View{
			Rows:        make([]walk.Row, len(sizes)),
			Adj:         make([][]ids.ClusterID, len(sizes)),
			NumClusters: len(sizes),
			NumEdges:    g.NumEdges(),
		},
		members: make(map[ids.ClusterID][]ids.NodeID),
		byz:     make(map[ids.NodeID]bool),
		home:    make(map[ids.NodeID]ids.ClusterID),
	}
	next := ids.NodeID(0)
	for i, size := range sizes {
		c := ids.ClusterID(i)
		for range size {
			fw.members[c] = append(fw.members[c], next)
			fw.home[next] = c
			next++
		}
		fw.view.Rows[c] = walk.Row{Size: int32(size)}
		fw.view.Adj[c] = g.Neighbors(c)
		fw.view.MaxSize = max(fw.view.MaxSize, size)
	}
	return fw
}

func (f *fakeWorld) View() walk.View                            { return f.view }
func (f *fakeWorld) MemberAt(c ids.ClusterID, i int) ids.NodeID { return f.members[c][i] }

// size and byzOf read c's row.
func (f *fakeWorld) size(c ids.ClusterID) int  { return int(f.view.Row(c).Size) }
func (f *fakeWorld) byzOf(c ids.ClusterID) int { return int(f.view.Row(c).Byz) }

// NeighborMass recounts the sizes over c's adjacency.
func (f *fakeWorld) NeighborMass(c ids.ClusterID) int64 {
	var mass int64
	for _, d := range f.view.Adjacent(c) {
		mass += int64(f.size(d))
	}
	return mass
}

// corrupt makes every member of c Byzantine.
func (f *fakeWorld) corrupt(c ids.ClusterID) {
	for _, x := range f.members[c] {
		f.byz[x] = true
	}
	f.view.Rows[c].Byz = f.view.Rows[c].Size
}

// Swap leaves the member lists in the order core.World.Swap does, and
// moves the Byzantine counts of a's and b's rows in place.
func (f *fakeWorld) Swap(a ids.ClusterID, x ids.NodeID, b ids.ClusterID, j int) error {
	if f.swaps++; f.swaps == f.failSwap {
		return errInjected
	}
	if a == b || f.home[x] != a || j < 0 || j >= len(f.members[b]) {
		return fmt.Errorf("bad swap of %v in %v with %v[%d]", x, a, b, j)
	}
	as := f.members[a]
	i := slices.Index(as, x)
	y := f.members[b][j]
	last := len(as) - 1
	as[i], as[last] = as[last], y
	f.members[b][j] = x
	f.home[x], f.home[y] = b, a
	if f.byz[x] != f.byz[y] {
		d := int32(1)
		if f.byz[x] {
			d = -1
		}
		f.view.Rows[a].Byz += d
		f.view.Rows[b].Byz -= d
	}
	f.moves = append(f.moves, [2]ids.ClusterID{a, b}, [2]ids.ClusterID{b, a})
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
	fw.corrupt(target)
	e := newExchanger(t, fw)
	var led metrics.Ledger
	if _, err := e.Run(&led, xrand.New(11), target); err != nil {
		t.Fatal(err)
	}
	if after := fw.byzOf(target); after > 5 {
		t.Errorf("byzantine members after exchange = %d of 10, want near global 5%%", after)
	}
}

var errInjected = errors.New("injected failure")

// failingGen delegates to Ideal and fails its failAt-th Draw (never when
// failAt is 0). Wrapped, Ideal is not recognised by the walker, so a
// walker built on one draws every hop through it, out of line.
type failingGen struct {
	calls, failAt int
}

func (g *failingGen) Draw(led *metrics.Ledger, r *xrand.Rand, p randnum.Params, obj randnum.Objective) (int64, randnum.Security, error) {
	if g.calls++; g.calls == g.failAt {
		return 0, 0, errInjected
	}
	return randnum.Ideal{}.Draw(led, r, p, obj)
}

// serialBranches replays Run's draws and charges on its own world,
// generator and stream, one member at a time on a plain ledger: each
// member's walk plus its partner draw is one branch, whose rounds it
// returns in member order. It stops at the first error, returning the
// failing branch's rounds last.
func serialBranches(t *testing.T, fw *fakeWorld, walker *walk.Walker, gen randnum.Generator, r *xrand.Rand, c ids.ClusterID) (branches []int64, swaps int, msgs int64, err error) {
	t.Helper()
	var led metrics.Ledger
	members := slices.Clone(fw.members[c])
	cs, cm := int64(len(members)), fw.NeighborMass(c)
	for _, x := range members {
		before := led.Snapshot()
		err = func() error {
			out, err := walker.Biased(&led, r, c)
			if err != nil || out.End == c {
				return err
			}
			psize := fw.size(out.End)
			idx, _, err := gen.Draw(&led, r, randnum.Params{Size: psize, Byz: fw.byzOf(out.End), R: int64(psize)}, nil)
			if err != nil {
				return err
			}
			if err := fw.Swap(c, x, out.End, int(idx)); err != nil {
				return err
			}
			chargeSwap(&led, metrics.ClassExchange, cs, cm, int64(psize), fw.NeighborMass(out.End))
			swaps++
			return nil
		}()
		branches = append(branches, led.Since(before).Rounds)
		if err != nil {
			break
		}
	}
	return branches, swaps, led.Messages(), err
}

// TestRunRoundsAreTheLongestBranch: Run's rounds are the maximum over
// members of walk plus partner draw rounds, plus 2 if any swap happened,
// and its messages are the serial replay's sum.
func TestRunRoundsAreTheLongestBranch(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		ref := newFakeWorld(t, 10, 8, 3, seed)
		walker, err := walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{}}, ref)
		if err != nil {
			t.Fatal(err)
		}
		c := ids.ClusterID(seed % 10)
		branches, swaps, msgs, err := serialBranches(t, ref, walker, randnum.Ideal{}, xrand.New(seed), c)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Max(branches)
		if swaps > 0 {
			want += 2
		}
		fw := newFakeWorld(t, 10, 8, 3, seed)
		var led metrics.Ledger
		led.AddRounds(100)
		rep, err := newExchanger(t, fw).Run(&led, xrand.New(seed), c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Swaps != swaps {
			t.Fatalf("seed %d: Run swapped %d times, replay %d", seed, rep.Swaps, swaps)
		}
		if led.Messages() != msgs {
			t.Errorf("seed %d: Run charged %d messages, serial replay %d", seed, led.Messages(), msgs)
		}
		if got := led.Rounds() - 100; got != want {
			t.Errorf("seed %d: Run charged %d rounds, longest of %v plus swaps = %d", seed, got, branches, want)
		}
		if sum := sumOf(branches); len(branches) > 1 && led.Rounds()-100 >= sum {
			t.Errorf("seed %d: Run charged %d rounds, no fewer than the serial sum %d", seed, led.Rounds()-100, sum)
		}
	}
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestRunAllSelfSwapsAddNoSwapRounds: on a single-cluster world every walk
// ends where it started, so Run swaps nothing and charges no swap rounds;
// its rounds are the longest walk's.
func TestRunAllSelfSwapsAddNoSwapRounds(t *testing.T) {
	ref := newHandWorld(t, []int{6}, nil)
	walker, err := walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{}}, ref)
	if err != nil {
		t.Fatal(err)
	}
	branches, swaps, _, err := serialBranches(t, ref, walker, randnum.Ideal{}, xrand.New(3), 0)
	if err != nil || swaps != 0 {
		t.Fatalf("replay: %d swaps, err %v; want none", swaps, err)
	}
	fw := newHandWorld(t, []int{6}, nil)
	var led metrics.Ledger
	rep, err := newExchanger(t, fw).Run(&led, xrand.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps != 0 || rep.SelfSwaps != 6 {
		t.Fatalf("swaps %d, self-swaps %d; want 0, 6", rep.Swaps, rep.SelfSwaps)
	}
	if got, want := led.Rounds(), slices.Max(branches); got != want {
		t.Errorf("all-self-swap Run charged %d rounds, longest walk %d", got, want)
	}
}

// TestRunClosesSectionOnEveryExit fails Run in each of its error returns
// (the walk, the partner draw, the swap) at several members: the ledger
// must hold the rounds before Run plus the longest branch charged before
// the failure, the failing branch included, and no swap rounds.
func TestRunClosesSectionOnEveryExit(t *testing.T) {
	const c = ids.ClusterID(2)
	setups := []struct {
		name string
		// build returns the world, the walker's and the exchanger's
		// generators, all failing at the k-th call of the failing part.
		build func(k int) (*fakeWorld, randnum.Generator, randnum.Generator)
	}{
		{"walk", func(k int) (*fakeWorld, randnum.Generator, randnum.Generator) {
			return newFakeWorld(t, 10, 8, 3, 5), &failingGen{failAt: 7 * k}, randnum.Ideal{}
		}},
		{"partner draw", func(k int) (*fakeWorld, randnum.Generator, randnum.Generator) {
			return newFakeWorld(t, 10, 8, 3, 5), randnum.Ideal{}, &failingGen{failAt: k}
		}},
		{"swap", func(k int) (*fakeWorld, randnum.Generator, randnum.Generator) {
			fw := newFakeWorld(t, 10, 8, 3, 5)
			fw.failSwap = k
			return fw, randnum.Ideal{}, randnum.Ideal{}
		}},
	}
	for _, s := range setups {
		for _, k := range []int{1, 3, 6} {
			t.Run(fmt.Sprintf("%s/%d", s.name, k), func(t *testing.T) {
				ref, walkGen, gen := s.build(k)
				walker, err := walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 32, Gen: walkGen}, ref)
				if err != nil {
					t.Fatal(err)
				}
				branches, _, msgs, refErr := serialBranches(t, ref, walker, gen, xrand.New(9), c)
				if !errors.Is(refErr, errInjected) {
					t.Fatalf("replay ended with %v, want the injected failure", refErr)
				}

				fw, walkGen, gen := s.build(k)
				walker, err = walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 32, Gen: walkGen}, fw)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(fw, walker, gen)
				if err != nil {
					t.Fatal(err)
				}
				var led metrics.Ledger
				led.AddRounds(50)
				if _, err := e.Run(&led, xrand.New(9), c); !errors.Is(err, errInjected) {
					t.Fatalf("Run returned %v, want the injected failure", err)
				}
				if got, want := led.Rounds(), 50+slices.Max(branches); got != want {
					t.Errorf("after a failed Run the ledger holds %d rounds, want 50 + longest of %v = %d", got, branches, want)
				}
				if led.Messages() != msgs {
					t.Errorf("after a failed Run the ledger holds %d messages, replay %d", led.Messages(), msgs)
				}
			})
		}
	}
}

// serialCascade replays CascadeRound's draws, swaps and charges on its own
// world, generator and stream, one receiver after another on a plain
// ledger: each live receiver's three draws and its swap are one branch,
// whose rounds it returns in round order. It stops at the first error,
// returning the failing branch's rounds last.
func serialCascade(fw *fakeWorld, gen randnum.Generator, r *xrand.Rand, source ids.ClusterID, receivers []ids.ClusterID) (branches []int64, swaps int, msgs int64, err error) {
	var led metrics.Ledger
	var live []ids.ClusterID
	for _, c := range append([]ids.ClusterID{source}, receivers...) {
		if fw.size(c) > 0 {
			live = append(live, c)
		}
	}
	first := 0
	if fw.size(source) > 0 {
		first = 1
	}
	draw := func(c ids.ClusterID, n int) (int, error) {
		v, _, err := gen.Draw(&led, r, randnum.Params{Size: fw.size(c), Byz: fw.byzOf(c), R: int64(n)}, nil)
		return int(v), err
	}
	for self := first; self < len(live) && len(live) > 1; self++ {
		rc := live[self]
		before := led.Snapshot()
		err = func() error {
			p, err := draw(rc, len(live)-1)
			if err != nil {
				return err
			}
			if p >= self {
				p++
			}
			partner := live[p]
			i, err := draw(rc, fw.size(rc))
			if err != nil {
				return err
			}
			j, err := draw(partner, fw.size(partner))
			if err != nil {
				return err
			}
			if err := fw.Swap(rc, fw.members[rc][i], partner, j); err != nil {
				return err
			}
			chargeSwap(&led, metrics.ClassCascade, int64(fw.size(rc)), fw.NeighborMass(rc),
				int64(fw.size(partner)), fw.NeighborMass(partner))
			swaps++
			return nil
		}()
		branches = append(branches, led.Since(before).Rounds)
		if err != nil {
			break
		}
	}
	return branches, swaps, led.Messages(), err
}

// TestCascadeRoundRoundsAreOneReceiver: the receivers of a grouped round
// act simultaneously, so a round over k = 2, 4 or 8 receivers costs one
// receiver's three draws plus the swaps' 2 rounds (3*5 + 2 = 17 with
// Ideal's 5-round draws), not 15k + 2, and its messages and memberships
// equal a serial replay's.
func TestCascadeRoundRoundsAreOneReceiver(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			var receivers []ids.ClusterID
			for i := 1; i <= k; i++ {
				receivers = append(receivers, ids.ClusterID(i))
			}
			ref := newFakeWorld(t, 12, 8, 4, seed)
			branches, swaps, msgs, err := serialCascade(ref, randnum.Ideal{}, xrand.New(seed), 0, receivers)
			if err != nil {
				t.Fatal(err)
			}
			fw := newFakeWorld(t, 12, 8, 4, seed)
			var led metrics.Ledger
			led.AddRounds(100)
			rep, err := newExchanger(t, fw).CascadeRound(&led, xrand.New(seed), 0, receivers)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Swaps != swaps || swaps != k {
				t.Fatalf("k=%d seed %d: round swapped %d times, replay %d", k, seed, rep.Swaps, swaps)
			}
			if led.Messages() != msgs {
				t.Errorf("k=%d seed %d: round charged %d messages, serial replay %d", k, seed, led.Messages(), msgs)
			}
			if fmt.Sprint(fw.members) != fmt.Sprint(ref.members) {
				t.Errorf("k=%d seed %d: memberships differ from the serial replay", k, seed)
			}
			if got, want := led.Rounds()-100, slices.Max(branches)+2; got != want || got != 17 {
				t.Errorf("k=%d seed %d: round charged %d rounds, want longest of %v plus 2 = %d (17); serial sum %d",
					k, seed, got, branches, want, sumOf(branches)+2)
			}
		}
	}
}

// TestCascadeRoundClosesSectionOnEveryExit fails CascadeRound in each of
// its error returns (partner pick, member pick, partner draw, swap) at the
// first and a later receiver: the ledger must hold the rounds before the
// round plus the longest branch charged before the failure, the failing
// branch included, no swap rounds, and the serial replay's messages.
func TestCascadeRoundClosesSectionOnEveryExit(t *testing.T) {
	receivers := []ids.ClusterID{1, 2, 3, 4}
	cases := []struct {
		name              string
		failDraw, failSwp int
	}{
		{"partner pick/1", 1, 0}, {"member pick/1", 2, 0}, {"partner draw/1", 3, 0},
		{"partner pick/3", 7, 0}, {"member pick/3", 8, 0}, {"partner draw/3", 9, 0},
		{"swap/1", 0, 1}, {"swap/3", 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newFakeWorld(t, 12, 8, 4, 7)
			ref.failSwap = tc.failSwp
			branches, _, msgs, refErr := serialCascade(ref, &failingGen{failAt: tc.failDraw}, xrand.New(7), 0, receivers)
			if !errors.Is(refErr, errInjected) {
				t.Fatalf("replay ended with %v, want the injected failure", refErr)
			}
			fw := newFakeWorld(t, 12, 8, 4, 7)
			fw.failSwap = tc.failSwp
			walker, err := walk.NewWalker(walk.Config{DurationFactor: 1, MaxRestarts: 32, Gen: randnum.Ideal{}}, fw)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(fw, walker, &failingGen{failAt: tc.failDraw})
			if err != nil {
				t.Fatal(err)
			}
			var led metrics.Ledger
			led.AddRounds(50)
			if _, err := e.CascadeRound(&led, xrand.New(7), 0, receivers); !errors.Is(err, errInjected) {
				t.Fatalf("CascadeRound returned %v, want the injected failure", err)
			}
			if got, want := led.Rounds(), 50+slices.Max(branches); got != want {
				t.Errorf("after a failed round the ledger holds %d rounds, want 50 + longest of %v = %d", got, branches, want)
			}
			if led.Messages() != msgs {
				t.Errorf("after a failed round the ledger holds %d messages, replay %d", led.Messages(), msgs)
			}
		})
	}
}
