package ba

import (
	"testing"
	"testing/quick"
)

func inputs(vs ...Value) []Value { return vs }

func TestPhaseKingAllHonestUnanimous(t *testing.T) {
	cfg := Config{N: 5, Inputs: inputs(1, 1, 1, 1, 1)}
	res, err := PhaseKing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agree(cfg.Byzantine)
	if !ok || v != 1 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
}

func TestPhaseKingValidity(t *testing.T) {
	// All honest nodes propose the same value; it must be decided even
	// with a Byzantine minority (n=5 > 4t with t=1).
	for _, b := range []Behavior{Silent{}, Liar{}, Equivocator{}} {
		cfg := Config{
			N:         5,
			Inputs:    inputs(1, 1, 1, 1, 0),
			Byzantine: map[int]Behavior{4: b},
		}
		res, err := PhaseKing(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Agree(cfg.Byzantine)
		if !ok {
			t.Errorf("%T: honest nodes disagree: %v", b, res.Decisions)
		}
		if v != 1 {
			t.Errorf("%T: validity violated, decided %d", b, v)
		}
	}
}

func TestPhaseKingAgreementMixedInputs(t *testing.T) {
	// Split honest inputs; agreement (not validity) is required.
	behaviors := []Behavior{Silent{}, Liar{}, Equivocator{}}
	for _, b := range behaviors {
		cfg := Config{
			N:         9, // t=2 needs n > 8
			Inputs:    inputs(0, 1, 0, 1, 0, 1, 0, 1, 1),
			Byzantine: map[int]Behavior{2: b, 6: b},
		}
		res, err := PhaseKing(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Agree(cfg.Byzantine); !ok {
			t.Errorf("%T: honest disagreement: %v", b, res.Decisions)
		}
	}
}

func TestPhaseKingRoundsAndMessages(t *testing.T) {
	cfg := Config{N: 5, Inputs: inputs(0, 0, 0, 0, 0)}
	res, err := PhaseKing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 { // 2 rounds per phase, t+1 = 2 phases
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
	if res.Messages <= 0 {
		t.Error("no messages counted")
	}
}

func TestPhaseKingConfigValidation(t *testing.T) {
	if _, err := PhaseKing(Config{N: 0}, 0); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := PhaseKing(Config{N: 2, Inputs: inputs(1)}, 0); err == nil {
		t.Error("accepted mismatched inputs")
	}
	if _, err := PhaseKing(Config{N: 2, Inputs: inputs(1, 1), Byzantine: map[int]Behavior{5: Liar{}}}, 0); err == nil {
		t.Error("accepted out-of-range byzantine index")
	}
	if _, err := PhaseKing(Config{N: 2, Inputs: inputs(1, 1)}, -1); err == nil {
		t.Error("accepted negative fault bound")
	}
}

func TestPhaseKingPropertyRandomByzantine(t *testing.T) {
	// For random honest inputs and up to t < n/4 scripted liars, honest
	// agreement must always hold.
	if err := quick.Check(func(seed uint64, inputBits uint16, byzMask uint8) bool {
		const n, tFaults = 9, 2
		cfg := Config{N: n, Inputs: make([]Value, n), Byzantine: map[int]Behavior{}}
		for i := 0; i < n; i++ {
			cfg.Inputs[i] = Value((inputBits >> i) & 1)
		}
		byzCount := 0
		for i := 0; i < n && byzCount < tFaults; i++ {
			if (byzMask>>i)&1 == 1 {
				switch i % 3 {
				case 0:
					cfg.Byzantine[i] = Liar{}
				case 1:
					cfg.Byzantine[i] = Equivocator{}
				default:
					cfg.Byzantine[i] = Silent{}
				}
				byzCount++
			}
		}
		res, err := PhaseKing(cfg, tFaults)
		if err != nil {
			return false
		}
		_, ok := res.Agree(cfg.Byzantine)
		return ok
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEIGUnanimous(t *testing.T) {
	cfg := Config{N: 4, Inputs: inputs(1, 1, 1, 1)}
	res, err := EIG(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agree(cfg.Byzantine)
	if !ok || v != 1 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
}

func TestEIGOptimalResilience(t *testing.T) {
	// n=4, t=1: below phase-king's n>4t threshold but within EIG's n>3t.
	for _, b := range []Behavior{Liar{}, Equivocator{}, Silent{}} {
		cfg := Config{
			N:         4,
			Inputs:    inputs(1, 1, 1, 0),
			Byzantine: map[int]Behavior{3: b},
		}
		res, err := EIG(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Agree(cfg.Byzantine)
		if !ok {
			t.Errorf("%T: honest disagreement: %v", b, res.Decisions)
		}
		if v != 1 {
			t.Errorf("%T: validity violated: %v", b, res.Decisions)
		}
	}
}

func TestEIGTwoFaults(t *testing.T) {
	// n=7, t=2 (7 > 3*2): agreement with two equivocators.
	cfg := Config{
		N:         7,
		Inputs:    inputs(0, 1, 0, 1, 0, 1, 0),
		Byzantine: map[int]Behavior{1: Equivocator{}, 5: Liar{}},
	}
	res, err := EIG(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Agree(cfg.Byzantine); !ok {
		t.Fatalf("honest disagreement: %v", res.Decisions)
	}
}

func TestEIGValidityAllHonest(t *testing.T) {
	cfg := Config{N: 7, Inputs: inputs(1, 1, 1, 1, 1, 1, 1)}
	res, err := EIG(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Agree(cfg.Byzantine)
	if !ok || v != 1 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
}

func TestEIGFaultCap(t *testing.T) {
	cfg := Config{N: 20, Inputs: make([]Value, 20)}
	if _, err := EIG(cfg, 5); err == nil {
		t.Error("EIG accepted fault bound above cap")
	}
}

func TestEIGRounds(t *testing.T) {
	cfg := Config{N: 4, Inputs: inputs(0, 0, 0, 0)}
	res, err := EIG(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 { // t+1 rounds
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

// TestDecideCostsCharges: k agreements cost their clusters' ordered
// member pairs |C|(|C|-1) in messages and k times one agreement's
// (non-zero) rounds.
func TestDecideCostsCharges(t *testing.T) {
	_, one := DecideCosts(1, 90)
	if one <= 0 {
		t.Fatalf("one agreement charged %d rounds", one)
	}
	cases := []struct{ k, pairs int64 }{
		{1, 10 * 9},
		{3, 10*9 + 5*4 + 3*2},
		{0, 0},
	}
	for _, c := range cases {
		msgs, rounds := DecideCosts(c.k, c.pairs)
		if msgs != c.pairs || rounds != c.k*one {
			t.Errorf("DecideCosts(%d, %d) = (%d, %d), want (%d, %d)", c.k, c.pairs, msgs, rounds, c.pairs, c.k*one)
		}
	}
}

func TestBehaviors(t *testing.T) {
	if (Silent{}).Send(0, 0, 0, 1) != Absent {
		t.Error("Silent not absent")
	}
	if (Liar{}).Send(0, 0, 0, 1) != 0 {
		t.Error("Liar(1) != 0")
	}
	eq := Equivocator{}
	if eq.Send(0, 0, 0, 1) == eq.Send(0, 0, 1, 1) {
		t.Error("Equivocator sent consistent values")
	}
}
