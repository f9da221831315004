package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLedgerChargeAndSnapshot(t *testing.T) {
	var l Ledger
	l.Charge(ClassWalk, 10)
	l.Charge(ClassRandNum, 5)
	l.AddRounds(3)
	snap := l.Snapshot()
	l.Charge(ClassWalk, 7)
	l.AddRounds(2)
	cost := l.Since(snap)
	if cost.Messages != 7 {
		t.Errorf("delta messages = %d, want 7", cost.Messages)
	}
	if cost.Rounds != 2 {
		t.Errorf("delta rounds = %d, want 2", cost.Rounds)
	}
	if cost.ByClass[ClassWalk] != 7 {
		t.Errorf("walk delta = %d, want 7", cost.ByClass[ClassWalk])
	}
	if _, ok := cost.ByClass[ClassRandNum]; ok {
		t.Error("unchanged class appears in delta")
	}
	if l.Messages() != 22 || l.Rounds() != 5 {
		t.Errorf("totals = %d/%d, want 22/5", l.Messages(), l.Rounds())
	}
	if l.MessagesBy(ClassRandNum) != 5 {
		t.Errorf("MessagesBy(randnum) = %d", l.MessagesBy(ClassRandNum))
	}
}

func TestLedgerNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	var l Ledger
	l.Charge(ClassWalk, -1)
}

func TestCostString(t *testing.T) {
	var l Ledger
	s := l.Snapshot()
	l.Charge(ClassExchange, 4)
	l.AddRounds(1)
	if got := l.Since(s).String(); got == "" {
		t.Error("empty cost string")
	}
}

// TestEmptyAccumulatorContract pins the shared empty-state contract:
// Mean/Min/Max/Quantile answer NaN before the first observation — never a
// silent, plausible-looking 0 — while counts are 0 and Welford's variance
// keeps its conventional 0 for n < 2.
func TestEmptyAccumulatorContract(t *testing.T) {
	var w Welford
	var s Sample
	for name, v := range map[string]float64{
		"Welford.Mean": w.Mean(), "Welford.Min": w.Min(), "Welford.Max": w.Max(),
		"Sample.Mean": s.Mean(), "Sample.Quantile": s.Quantile(0.5), "Sample.Max": s.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
	if w.N() != 0 || s.N() != 0 {
		t.Errorf("empty counts: welford %d sample %d", w.N(), s.N())
	}
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Errorf("empty variance/sd = %v/%v, want 0 (documented convention)", w.Variance(), w.StdDev())
	}
	// One observation: extremes and mean are that observation, spread 0.
	w.Add(5)
	s.Add(5)
	if w.Mean() != 5 || w.Min() != 5 || w.Max() != 5 || w.Variance() != 0 {
		t.Errorf("single-observation welford: %v", w.String())
	}
	if s.Mean() != 5 || s.Quantile(0.5) != 5 || s.Max() != 5 {
		t.Errorf("single-observation sample: mean %v p50 %v max %v", s.Mean(), s.Quantile(0.5), s.Max())
	}
}

// TestSampleMergeConcatenates: Sample.Merge is concatenation, so a
// sharded accumulation answers exactly what a single stream would.
func TestSampleMergeConcatenates(t *testing.T) {
	var a, b, single Sample
	for i := 1; i <= 50; i++ {
		single.Add(float64(i))
		if i <= 25 {
			a.Add(float64(i))
		} else {
			b.Add(float64(i))
		}
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.N() != single.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), single.N())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got, want := a.Quantile(q), single.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if a.Mean() != single.Mean() {
		t.Errorf("Mean = %v, want %v", a.Mean(), single.Mean())
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Known dataset: population variance 4, sample variance 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(clean)-1)
		return math.Abs(w.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(w.Variance()-wantVar) < 1e-6*(1+wantVar)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestTVDistance(t *testing.T) {
	cases := []struct {
		p, q []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{0, 1}, 1},
		{[]float64{1, 1}, []float64{1, 1}, 0},
		{[]float64{2, 2}, []float64{1, 1}, 0}, // normalization
		{[]float64{0.5, 0.5}, []float64{0.75, 0.25}, 0.25},
	}
	for _, c := range cases {
		if got := TVDistance(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("TV(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestTVDistanceSymmetryProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := 0; i < n; i++ {
			p[i] = float64(raw[i]) + 1
			q[i] = float64(raw[n+i]) + 1
			sp += p[i]
			sq += q[i]
		}
		d1 := TVDistance(p, q)
		d2 := TVDistance(q, p)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquare(t *testing.T) {
	obs := []int64{25, 25, 25, 25}
	exp := []float64{1, 1, 1, 1}
	if got := ChiSquare(obs, exp); got != 0 {
		t.Errorf("uniform chi-square = %v, want 0", got)
	}
	obs2 := []int64{50, 0}
	exp2 := []float64{0.5, 0.5}
	if got := ChiSquare(obs2, exp2); math.Abs(got-50) > 1e-9 {
		t.Errorf("chi-square = %v, want 50", got)
	}
	if got := ChiSquare([]int64{1, 1}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("impossible cell should give +Inf, got %v", got)
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit := FitLinear(x, y)
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept-1) > 1e-9 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %v on exact data", fit.R2)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3 x^2.5
	var x, y []float64
	for _, v := range []float64{2, 4, 8, 16, 32} {
		x = append(x, v)
		y = append(y, 3*math.Pow(v, 2.5))
	}
	fit := FitPowerLaw(x, y)
	if math.Abs(fit.Slope-2.5) > 1e-9 {
		t.Errorf("power-law exponent = %v, want 2.5", fit.Slope)
	}
}

func TestFitPolylog(t *testing.T) {
	// y = 5 (log2 x)^3
	var x, y []float64
	for _, v := range []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		x = append(x, v)
		y = append(y, 5*math.Pow(math.Log2(v), 3))
	}
	fit := FitPolylog(x, y)
	if math.Abs(fit.Slope-3) > 1e-9 {
		t.Errorf("polylog exponent = %v, want 3", fit.Slope)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %v on exact polylog data", fit.R2)
	}
}

func TestClassString(t *testing.T) {
	if ClassWalk.String() != "walk" {
		t.Errorf("ClassWalk = %q", ClassWalk.String())
	}
	if Class(99).String() == "" {
		t.Error("out-of-range class produced empty string")
	}
}
