package randnum

import (
	"math"
	"testing"

	"nowover/internal/metrics"
	"nowover/internal/xrand"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		size, byz int
		want      Security
	}{
		{9, 0, Secure},
		{9, 2, Secure},
		{9, 3, Degraded},  // exactly 1/3
		{9, 4, Degraded},  // below 1/2
		{10, 5, Captured}, // exactly 1/2
		{9, 5, Captured},
		{3, 1, Degraded},
		{2, 1, Captured},
	}
	for _, c := range cases {
		if got := Classify(c.size, c.byz); got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.size, c.byz, got, c.want)
		}
	}
}

func TestSecurityString(t *testing.T) {
	for _, s := range []Security{Secure, Degraded, Captured, Security(9)} {
		if s.String() == "" {
			t.Errorf("empty string for %d", int(s))
		}
	}
}

func TestIdealUniform(t *testing.T) {
	var led metrics.Ledger
	r := xrand.New(1)
	gen := Ideal{}
	const rng = 8
	counts := make([]int64, rng)
	const draws = 40000
	for i := 0; i < draws; i++ {
		v, sec, err := gen.Draw(&led, r, Params{Size: 20, Byz: 5, R: rng}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sec != Secure {
			t.Fatalf("security = %v with 5/20 byzantine", sec)
		}
		counts[v]++
	}
	want := float64(draws) / rng
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIdealIgnoresObjectiveWhileSecure(t *testing.T) {
	var led metrics.Ledger
	r := xrand.New(2)
	gen := Ideal{}
	obj := func(v int64) float64 { return float64(-v) } // prefers 0
	zeros := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		v, _, err := gen.Draw(&led, r, Params{Size: 12, Byz: 3, R: 4}, obj)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / draws
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("objective influenced a secure Ideal draw: P(0) = %.3f", frac)
	}
}

func TestCapturedDrawIsAdversarial(t *testing.T) {
	var led metrics.Ledger
	r := xrand.New(3)
	obj := func(v int64) float64 {
		if v == 5 {
			return 1
		}
		return 0
	}
	for _, gen := range []Generator{Ideal{}, CommitReveal{}} {
		v, sec, err := gen.Draw(&led, r, Params{Size: 10, Byz: 5, R: 8}, obj)
		if err != nil {
			t.Fatal(err)
		}
		if sec != Captured {
			t.Fatalf("%T: security = %v with 5/10", gen, sec)
		}
		if v != 5 {
			t.Errorf("%T: captured draw = %d, want adversary's 5", gen, v)
		}
	}
}

func TestCommitRevealUnbiasedWithoutObjective(t *testing.T) {
	var led metrics.Ledger
	r := xrand.New(4)
	gen := CommitReveal{}
	const rng = 6
	counts := make([]int64, rng)
	const draws = 30000
	for i := 0; i < draws; i++ {
		v, _, err := gen.Draw(&led, r, Params{Size: 15, Byz: 4, R: rng}, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	want := float64(draws) / rng
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestCommitRevealBias(t *testing.T) {
	// With b Byzantine members and an objective preferring value 0, the
	// hit rate on 0 must exceed uniform — the last-revealer advantage.
	var led metrics.Ledger
	r := xrand.New(5)
	gen := CommitReveal{}
	obj := func(v int64) float64 {
		if v == 0 {
			return 1
		}
		return 0
	}
	const rng, draws = 4, 30000
	hits := 0
	for i := 0; i < draws; i++ {
		v, sec, err := gen.Draw(&led, r, Params{Size: 16, Byz: 5, R: rng}, obj)
		if err != nil {
			t.Fatal(err)
		}
		if sec != Secure {
			t.Fatalf("unexpected security %v", sec)
		}
		if v == 0 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// 5 greedy reveal/abort choices: P(miss) ~ (3/4)^6 ~ 0.18 (first state
	// plus five optional additions), so expect well above 0.25 uniform.
	if frac < 0.4 {
		t.Errorf("biased hit rate %.3f, want substantially above uniform 0.25", frac)
	}
}

func TestCommitRevealBiasGrowsWithByz(t *testing.T) {
	gen := CommitReveal{}
	obj := func(v int64) float64 {
		if v == 0 {
			return 1
		}
		return 0
	}
	rate := func(byz int) float64 {
		var led metrics.Ledger
		r := xrand.New(77)
		hits := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			v, _, err := gen.Draw(&led, r, Params{Size: 16, Byz: byz, R: 4}, obj)
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				hits++
			}
		}
		return float64(hits) / draws
	}
	if r1, r4 := rate(1), rate(4); r4 <= r1 {
		t.Errorf("bias with 4 byz (%.3f) not above bias with 1 byz (%.3f)", r4, r1)
	}
}

// rejectedParams are compositions no generator may draw for.
func rejectedParams() []Params {
	return []Params{
		{Size: 0, Byz: 0, R: 4},
		{Size: 5, Byz: -1, R: 4},
		{Size: 5, Byz: 6, R: 4},
		{Size: 5, Byz: 0, R: 0},
	}
}

// TestDrawCostModel pins the per-class split of one draw at every security
// level, for both generators: 2|C|(|C|-1)
// randNum messages (commit and reveal, all-to-all), |C|(|C|-1) agreement
// messages (the reveal set) and 5 rounds. A rejected Params charges
// nothing.
func TestDrawCostModel(t *testing.T) {
	cases := []struct {
		name      string
		size, byz int
		want      Security
		total     int64
	}{
		{"secure", 10, 0, Secure, 270},
		{"degraded", 9, 3, Degraded, 216},
		{"captured", 10, 5, Captured, 270},
	}
	for _, tc := range cases {
		for _, gen := range []Generator{Ideal{}, CommitReveal{}} {
			var led metrics.Ledger
			_, sec, err := gen.Draw(&led, xrand.New(6), Params{Size: tc.size, Byz: tc.byz, R: 4}, nil)
			if err != nil {
				t.Fatalf("%s %T: %v", tc.name, gen, err)
			}
			if sec != tc.want {
				t.Errorf("%s %T: security %v, want %v", tc.name, gen, sec, tc.want)
			}
			allToAll := int64(tc.size) * int64(tc.size-1)
			if got := led.MessagesBy(metrics.ClassRandNum); got != 2*allToAll {
				t.Errorf("%s %T: randnum class %d, want %d", tc.name, gen, got, 2*allToAll)
			}
			if got := led.MessagesBy(metrics.ClassAgreement); got != allToAll {
				t.Errorf("%s %T: agreement class %d, want %d", tc.name, gen, got, allToAll)
			}
			if got := led.Messages(); got != tc.total {
				t.Errorf("%s %T: %d messages, want %d", tc.name, gen, got, tc.total)
			}
			if got := led.Rounds(); got != 5 {
				t.Errorf("%s %T: %d rounds, want 5", tc.name, gen, got)
			}
		}
	}
	for _, p := range rejectedParams() {
		for _, gen := range []Generator{Ideal{}, CommitReveal{}} {
			var led metrics.Ledger
			if _, _, err := gen.Draw(&led, xrand.New(6), p, nil); err == nil {
				t.Errorf("%T accepted %+v", gen, p)
			}
			if led.Messages() != 0 || led.Rounds() != 0 {
				t.Errorf("%T charged %d messages and %d rounds for rejected %+v", gen, led.Messages(), led.Rounds(), p)
			}
		}
	}
}

// TestTallyMatchesIdealDraw: a run of Tally draws below capture returns
// the values Ideal.Draw returns on a twin stream, and one Charge leaves the
// ledger the draws one by one leave. Charge empties the tally.
func TestTallyMatchesIdealDraw(t *testing.T) {
	var tally Tally
	var tallied, drawn metrics.Ledger
	rt, rd, pick := xrand.New(21), xrand.New(21), xrand.New(22)
	for i := 0; i < 2000; i++ {
		size := 1 + pick.Intn(60)
		byz := pick.Intn(size)
		if Classify(size, byz) == Captured {
			continue
		}
		n := 1 + pick.Intn(1<<16)
		got := tally.Draw(rt, size, n)
		want, _, err := Ideal{}.Draw(&drawn, rd, Params{Size: size, Byz: byz, R: int64(n)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != want {
			t.Fatalf("draw %d at |C|=%d, n=%d: tally %d, Ideal.Draw %d", i, size, n, got, want)
		}
	}
	tally.Charge(&tallied)
	if tallied != drawn {
		t.Errorf("one Charge left %+v, the draws one by one %+v", tallied, drawn)
	}
	if drawn.Messages() == 0 {
		t.Error("no draw was charged")
	}
	tally.Charge(&tallied)
	if tallied != drawn {
		t.Error("a second Charge charged again: Charge did not empty the tally")
	}
}

func TestParamValidation(t *testing.T) {
	var led metrics.Ledger
	r := xrand.New(7)
	for _, p := range rejectedParams() {
		if _, _, err := (Ideal{}).Draw(&led, r, p, nil); err == nil {
			t.Errorf("Ideal accepted %+v", p)
		}
		if _, _, err := (CommitReveal{}).Draw(&led, r, p, nil); err == nil {
			t.Errorf("CommitReveal accepted %+v", p)
		}
	}
}

// TestRejectionMessages pins what a rejected Params says.
func TestRejectionMessages(t *testing.T) {
	want := []string{
		"randnum: non-positive cluster size 0",
		"randnum: byzantine count -1 out of [0,5]",
		"randnum: byzantine count 6 out of [0,5]",
		"randnum: non-positive range 0",
	}
	for i, p := range rejectedParams() {
		if got := p.validate(); got == nil || got.Error() != want[i] {
			t.Errorf("validate(%+v) = %v, want %q", p, got, want[i])
		}
	}
	if err := (Params{Size: 5, Byz: 5, R: 1}).validate(); err != nil {
		t.Errorf("validate rejected a drawable composition: %v", err)
	}
}

// BenchmarkIdealDraw is one secure Ideal draw at a churn-sized cluster
// through the Generator interface, as the exchanger and a walk's
// acceptance coin make it: the validation, the cost model's charges and
// the value, with nothing allocated.
func BenchmarkIdealDraw(b *testing.B) {
	var led metrics.Ledger
	r := xrand.New(8)
	var gen Generator = Ideal{}
	p := Params{Size: 36, Byz: 7, R: 1 << 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.Draw(&led, r, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
