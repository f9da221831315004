package xrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	matches := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split streams collided %d times", matches)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() uint64 { return New(9).Split(5).Uint64() }
	if mk() != mk() {
		t.Fatal("Split is not deterministic")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// testStreams returns one stream from every constructor, SplitInto's
// first use and its in-place reseed included.
func testStreams() []struct {
	name string
	r    *Rand
} {
	var into, reseeded Rand
	New(5).SplitInto(&into, 9)
	New(5).SplitInto(&reseeded, 9)
	New(6).SplitInto(&reseeded, 10) // reseeds in place
	return []struct {
		name string
		r    *Rand
	}{
		{"New", New(3)},
		{"Split", New(4).Split(8)},
		{"Derive", Derive(12, 1, 2)},
		{"SplitInto", &into},
		{"SplitInto reseeded", &reseeded},
	}
}

// twinOf returns a math/rand/v2 generator over a PCG holding r's state.
func twinOf(t *testing.T, r *Rand) *rand.Rand {
	t.Helper()
	state, err := r.pcg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var twin rand.PCG
	if err := twin.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	return rand.New(&twin)
}

// TestIntnMatchesMathRand: Intn, which reduces words of the stream's PCG
// itself, draws what math/rand/v2's IntN draws on a twin PCG holding the
// same state, for streams from every constructor and for ranges that take
// the power-of-two mask, the rejection loop rarely (small n) and often
// (n just above 2^62), and the largest int. It still panics for n <= 0.
//
// The word-plus-reduction path, IntnFrom(PCG().Uint64(), n), draws the
// same values as IntN (Uint64N where n is wider than int) for the powers
// of two up to 2^63, which take the mask, and for n = 2^63+1, where about
// half of all first words are rejected and redrawn.
func TestIntnMatchesMathRand(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 72, 1 << 16, 1<<31 - 1, 1<<62 + 1, math.MaxInt}
	for _, s := range testStreams() {
		name, r := s.name, s.r
		ref := twinOf(t, r)
		for _, n64 := range ns {
			if n64 > math.MaxInt {
				continue // wider than int on this platform
			}
			n := int(n64)
			for i := 0; i < 500; i++ {
				if got, want := r.Intn(n), ref.IntN(n); got != want {
					t.Fatalf("%s: Intn(%d) draw %d = %d, math/rand/v2 IntN = %d", name, n, i, got, want)
				}
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("%s: streams diverged after the Intn draws", name)
		}
		for _, n := range []int{0, -1, math.MinInt} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Intn(%d) did not panic", name, n)
					}
				}()
				r.Intn(n)
			}()
		}
	}

	fromNs := []uint64{3, 72, 1<<62 + 1, 1<<63 + 1}
	for k := 0; k < 64; k++ {
		fromNs = append(fromNs, 1<<k)
	}
	for _, s := range testStreams() {
		name, r := s.name, s.r
		ref := twinOf(t, r)
		pcg := r.PCG()
		for _, n := range fromNs {
			rejected := 0
			const draws = 500
			for i := 0; i < draws; i++ {
				word := pcg.Uint64()
				if _, lo := bits.Mul64(word, n); n&(n-1) != 0 && lo < -n%n {
					rejected++
				}
				got := r.IntnFrom(word, n)
				var want uint64
				if n <= math.MaxInt {
					want = uint64(ref.IntN(int(n)))
				} else {
					want = ref.Uint64N(n)
				}
				if got != want {
					t.Fatalf("%s: IntnFrom(word, %d) draw %d = %d, math/rand/v2 = %d", name, n, i, got, want)
				}
			}
			if n == 1<<63+1 && (rejected < draws/3 || rejected > 2*draws/3) {
				t.Errorf("%s: n = 2^63+1 rejected %d of %d first words, want about half", name, rejected, draws)
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("%s: streams diverged after the IntnFrom draws", name)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(5)
	for _, rate := range []float64{0.5, 1, 4} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			x := r.Exp(rate)
			if x < 0 {
				t.Fatalf("Exp(%v) returned negative %v", rate, x)
			}
			sum += x
		}
		mean := sum / n
		if math.Abs(mean-1/rate) > 0.05/rate {
			t.Errorf("Exp(%v) mean %.4f, want ~%.4f", rate, mean, 1/rate)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%100 + 1
		m := int(mRaw) % (n + 1)
		s := SampleWithoutReplacement(New(seed), n, m)
		if len(s) != m {
			return false
		}
		seen := make(map[int]bool, m)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementCoverage(t *testing.T) {
	// Every index should be reachable, including index 0 and n-1.
	r := New(17)
	hit := make(map[int]bool)
	for i := 0; i < 500; i++ {
		for _, v := range SampleWithoutReplacement(r, 5, 3) {
			hit[v] = true
		}
	}
	for i := 0; i < 5; i++ {
		if !hit[i] {
			t.Errorf("index %d never sampled", i)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	const draws = 50000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency %.4f", frac)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, 3, 7)
	b := Derive(42, 3, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with equal labels diverged at draw %d", i)
		}
	}
}

func TestDeriveLabelSeparation(t *testing.T) {
	// Distinct label tuples — including permutations of the same labels, the
	// directed-link case — must give distinct streams.
	streams := []*Rand{
		Derive(42),
		Derive(42, 3),
		Derive(42, 7),
		Derive(42, 3, 7),
		Derive(42, 7, 3),
		Derive(43, 3, 7),
	}
	firsts := make(map[uint64]int)
	for i, s := range streams {
		v := s.Uint64()
		if j, dup := firsts[v]; dup {
			t.Errorf("streams %d and %d collide on first draw", i, j)
		}
		firsts[v] = i
	}
}

func TestDerivePure(t *testing.T) {
	// Derive is a pure function of (base, labels): unlike Split it consumes
	// no parent state, so creation order must not matter.
	a := Derive(42, 5, 6)
	_ = Derive(42, 9, 9).Uint64() // interleaved derivation
	b := Derive(42, 5, 6)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derivation order changed the stream at draw %d", i)
		}
	}
}

// TestPCGMatchesMathRand: PCG is math/rand/v2's PCG bit for bit. For a
// stream from every constructor, 10 000 words equal those of a rand.PCG
// holding the same state, and New, Split and SplitInto (fresh and
// reseeded) derive the states math/rand/v2's PCG derives from the same
// seeds. rand.New over a PCG and over its rand.PCG twin gives the same
// Perm, Shuffle, Float64 and IntN, and MarshalBinary writes what
// rand.PCG.UnmarshalBinary reads back and re-marshals byte for byte.
func TestPCGMatchesMathRand(t *testing.T) {
	const golden = 0x9e3779b97f4a7c15
	split := func(parent *rand.PCG, label uint64) *rand.PCG {
		a, b := parent.Uint64(), parent.Uint64()
		return rand.NewPCG(mix(a, label), mix(b, ^label))
	}
	reseeded := rand.NewPCG(6, 6^golden) // testStreams' reseed of a SplitInto target
	derived := map[string]*rand.PCG{
		"New":                rand.NewPCG(3, 3^golden),
		"Split":              split(rand.NewPCG(4, 4^golden), 8),
		"SplitInto":          split(rand.NewPCG(5, 5^golden), 9),
		"SplitInto reseeded": split(reseeded, 10),
	}
	for _, s := range testStreams() {
		name, p := s.name, s.r.PCG()
		hi, lo := p.State()
		var twin rand.PCG
		state, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(state) != 20 {
			t.Fatalf("%s: MarshalBinary wrote %d bytes, want 20", name, len(state))
		}
		if err := twin.UnmarshalBinary(state); err != nil {
			t.Fatalf("%s: rand.PCG rejects MarshalBinary's %x: %v", name, state, err)
		}
		if again, _ := twin.MarshalBinary(); string(again) != string(state) {
			t.Fatalf("%s: MarshalBinary wrote %x, rand.PCG re-marshals %x", name, state, again)
		}

		// rand.Rand's derived draws over the port and over the twin.
		var port PCG
		port.SetState(hi, lo)
		twinCopy := twin
		a, b := rand.New(&port), rand.New(&twinCopy)
		if pa, pb := a.Perm(50), b.Perm(50); !slices.Equal(pa, pb) {
			t.Fatalf("%s: Perm %v, math/rand/v2 %v", name, pa, pb)
		}
		sa, sb := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		a.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
		b.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
		if !slices.Equal(sa, sb) {
			t.Fatalf("%s: Shuffle %v, math/rand/v2 %v", name, sa, sb)
		}
		for i := 0; i < 1000; i++ {
			if fa, fb := a.Float64(), b.Float64(); fa != fb {
				t.Fatalf("%s: Float64 draw %d = %v, math/rand/v2 %v", name, i, fa, fb)
			}
			if ia, ib := a.IntN(1000003), b.IntN(1000003); ia != ib {
				t.Fatalf("%s: IntN draw %d = %d, math/rand/v2 %d", name, i, ia, ib)
			}
		}

		ref := derived[name]
		for i := 0; i < 10000; i++ {
			w, tw := p.Uint64(), twin.Uint64()
			if w != tw {
				t.Fatalf("%s: word %d = %#x, rand.PCG in the same state %#x", name, i, w, tw)
			}
			if ref != nil {
				if rw := ref.Uint64(); w != rw {
					t.Fatalf("%s: word %d = %#x, math/rand/v2 derives %#x from the same seeds", name, i, w, rw)
				}
			}
			if i == 0 {
				// Next is Uint64 on state held outside the PCG.
				nhi, nlo, word := Next(hi, lo)
				if word != w || !equalState(p, nhi, nlo) {
					t.Fatalf("%s: Next(%#x, %#x) = (%#x, %#x, %#x), Uint64 drew %#x", name, hi, lo, nhi, nlo, word, w)
				}
			}
		}
	}
}

func equalState(p *PCG, hi, lo uint64) bool {
	phi, plo := p.State()
	return phi == hi && plo == lo
}

// TestReduceMatchesIntnFrom pins the inline reduction the walk loop runs
// to IntnFrom: wherever Reduce settles a word, IntnFrom returns the same
// value and draws nothing more from the stream; Reduce declines exactly
// the words whose Lemire low product falls below n, never for a power of
// two, and often for n near 2^63. A
// crafted word, 0 with n = 3, is declined, and IntnFrom rejects it and
// reduces the stream's next word instead.
func TestReduceMatchesIntnFrom(t *testing.T) {
	r, twin := New(21), New(21)
	words := New(22)
	ns := []uint64{1, 2, 3, 7, 72, 1 << 16, 1<<31 - 1, 1<<62 + 1, 1<<63 + 1}
	declined := 0
	for _, n := range ns {
		for i := 0; i < 2000; i++ {
			word := words.Uint64()
			v, ok := Reduce(word, n)
			_, lo := bits.Mul64(word, n)
			if want := n&(n-1) != 0 && lo < n; ok == want {
				t.Fatalf("Reduce(%#x, %d) ok = %v, want %v", word, n, ok, !want)
			}
			if !ok {
				declined++
				continue
			}
			if got := r.IntnFrom(word, n); got != v {
				t.Fatalf("Reduce(%#x, %d) = %d, IntnFrom = %d", word, n, v, got)
			}
		}
	}
	if r.Uint64() != twin.Uint64() {
		t.Fatal("IntnFrom drew from the stream for a word Reduce settles")
	}
	if _, ok := Reduce(0, 4); !ok {
		t.Error("Reduce declined a word for a power of two")
	}
	if _, ok := Reduce(0, 3); ok {
		t.Fatal("Reduce settled word 0 for n = 3, whose low product 0 is rejected")
	}
	next := twin.PCG().Uint64()
	want, _ := Reduce(next, 3)
	if got := r.IntnFrom(0, 3); got != want {
		t.Errorf("IntnFrom(0, 3) = %d, want the next word's reduction %d", got, want)
	}
	if r.Uint64() != twin.Uint64() {
		t.Error("IntnFrom(0, 3) did not draw exactly one more word")
	}
	if declined == 0 {
		t.Error("Reduce declined no random word; n near 2^62 and 2^63 should decline about a quarter and a half")
	}
}

// wordSource is a rand.Source that returns one fixed word.
type wordSource uint64

func (s wordSource) Uint64() uint64 { return uint64(s) }

// TestCoinsMatchMathRand: Float64, Bool and Exp, which draw from the
// stream's PCG without math/rand/v2, draw what math/rand/v2's Float64 (and
// Float64() < p, -log(1-Float64())/rate) draws on a twin PCG holding the
// same state, for streams from every constructor, draw for draw, and leave
// the stream where the twin is. Bool runs at p = 0, 2^-60, 0.01, 0.5,
// 1-2^-53, 1 and 1.5, and at the value its own draw takes. Float64From, the mapping an inline loop compares
// against p, equals rand.Float64 on crafted words too: the extremes of the
// low 53 bits, with and without high bits set.
func TestCoinsMatchMathRand(t *testing.T) {
	ps := []float64{0, 0x1p-60, 0.01, 0.5, 1 - 0x1p-53, 1, 1.5}
	for _, s := range testStreams() {
		name, r := s.name, s.r
		ref := twinOf(t, r)
		for i := 0; i < 500; i++ {
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("%s: Float64 draw %d = %v, math/rand/v2 %v", name, i, got, want)
			}
			for _, p := range ps {
				if got, want := r.Bool(p), ref.Float64() < p; got != want {
					t.Fatalf("%s: Bool(%v) draw %d = %v, math/rand/v2 %v", name, p, i, got, want)
				}
			}
			// A tie: p is the value the coin's own draw takes, which
			// Float64() < p rejects.
			tie := twinOf(t, r).Float64()
			if got, want := r.Bool(tie), ref.Float64() < tie; got || want {
				t.Fatalf("%s: Bool at its own draw's value %v, draw %d = %v, math/rand/v2 %v", name, tie, i, got, want)
			}
			for _, rate := range []float64{0.5, 1, 3} {
				if got, want := r.Exp(rate), -math.Log(1-ref.Float64())/rate; got != want {
					t.Fatalf("%s: Exp(%v) draw %d = %v, math/rand/v2 %v", name, rate, i, got, want)
				}
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("%s: streams diverged after the coin draws", name)
		}
	}

	words := []uint64{0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 63, 1<<63 | 1<<53 - 1, math.MaxUint64}
	for w := New(31); len(words) < 64; {
		words = append(words, w.Uint64())
	}
	for _, word := range words {
		want := rand.New(wordSource(word)).Float64()
		if got := Float64From(word); got != want {
			t.Fatalf("Float64From(%#x) = %v, math/rand/v2 %v", word, got, want)
		}
	}
	if Float64From(1<<53-1) >= 1 || Float64From(math.MaxUint64) != 1-0x1p-53 {
		t.Error("Float64From leaves [0, 1) or misses its largest value 1-2^-53")
	}
}
