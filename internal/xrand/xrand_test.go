package xrand

import (
	"math"
	"math/rand/v2"
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

// TestIntnMatchesMathRand: Intn, which reduces words of the stream's PCG
// itself, draws what math/rand/v2's IntN draws on a twin PCG holding the
// same state, for streams from every constructor and for ranges that take
// the power-of-two mask, the rejection loop rarely (small n) and often
// (n just above 2^62), and the largest int. It still panics for n <= 0.
func TestIntnMatchesMathRand(t *testing.T) {
	var into, reseeded Rand
	New(5).SplitInto(&into, 9)
	New(5).SplitInto(&reseeded, 9)
	New(6).SplitInto(&reseeded, 10) // reseeds in place
	streams := []struct {
		name string
		r    *Rand
	}{
		{"New", New(3)},
		{"Split", New(4).Split(8)},
		{"Derive", Derive(12, 1, 2)},
		{"SplitInto", &into},
		{"SplitInto reseeded", &reseeded},
	}
	ns := []uint64{1, 2, 3, 7, 72, 1 << 16, 1<<31 - 1, 1<<62 + 1, math.MaxInt}
	for _, s := range streams {
		name, r := s.name, s.r
		state, err := r.pcg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var twin rand.PCG
		if err := twin.UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		ref := rand.New(&twin)
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
