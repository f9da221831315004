package metrics

import (
	"testing"

	"nowover/internal/xrand"
)

// step is one item of a charged sequence: a charge, or a concurrent section
// whose branches are sequences themselves.
type step struct {
	class    Class
	msgs     int64
	rounds   int64
	branches [][]step // non-nil: a section
	// openLast leaves the last branch to EndConcurrent instead of closing
	// it with EndBranch.
	openLast bool
}

// critical is the reference: a sequence's rounds are the sum of its steps',
// and a section's rounds are its longest branch's.
func critical(seq []step) int64 {
	var r int64
	for _, s := range seq {
		if s.branches == nil {
			r += s.rounds
			continue
		}
		var longest int64
		for _, b := range s.branches {
			longest = max(longest, critical(b))
		}
		r += longest
	}
	return r
}

// sent is the reference message count: every charge, wherever it sits.
func sent(seq []step) int64 {
	var m int64
	for _, s := range seq {
		m += s.msgs
		for _, b := range s.branches {
			m += sent(b)
		}
	}
	return m
}

func randomSeq(r *xrand.Rand, depth int) []step {
	seq := make([]step, r.Intn(4))
	for i := range seq {
		if depth > 0 && r.Intn(3) == 0 {
			b := make([][]step, r.Intn(4))
			for j := range b {
				b[j] = randomSeq(r, depth-1)
			}
			seq[i] = step{branches: b, openLast: r.Intn(2) == 0}
			continue
		}
		seq[i] = step{class: Class(r.Intn(NumClasses)), msgs: int64(r.Intn(50)), rounds: int64(r.Intn(20))}
	}
	return seq
}

// apply charges seq to l, and checks each section's Since against the
// reference as it closes.
func apply(t *testing.T, l *Ledger, seq []step) {
	t.Helper()
	for _, s := range seq {
		if s.branches == nil {
			l.ChargeRounds(s.class, s.msgs, s.rounds)
			continue
		}
		before := l.Snapshot()
		sec := l.BeginConcurrent()
		for j, b := range s.branches {
			apply(t, l, b)
			if !s.openLast || j < len(s.branches)-1 {
				l.EndBranch(&sec)
			}
		}
		l.EndConcurrent(sec)
		cost := l.Since(before)
		if want := critical([]step{s}); cost.Rounds != want {
			t.Fatalf("section of %d branches added %d rounds, critical path %d", len(s.branches), cost.Rounds, want)
		}
		if want := sent([]step{s}); cost.Messages != want {
			t.Fatalf("section of %d branches added %d messages, plain sum %d", len(s.branches), cost.Messages, want)
		}
	}
}

// TestSectionsMatchCriticalPath builds random trees of sections and
// branches with random charges: messages equal the plain sum, every
// section's and the whole tree's Since equal the recursive critical path,
// and the per-class counts equal a ledger charged with no sections at all.
func TestSectionsMatchCriticalPath(t *testing.T) {
	r := xrand.New(47)
	for i := 0; i < 2000; i++ {
		seq := randomSeq(r, 3)
		var l, flat Ledger
		l.ChargeRounds(ClassWalk, 5, 7)
		start := l.Snapshot()
		apply(t, &l, seq)
		cost := l.Since(start)
		if want := critical(seq); cost.Rounds != want {
			t.Fatalf("tree %d: %d rounds, critical path %d", i, cost.Rounds, want)
		}
		if want := sent(seq); cost.Messages != want {
			t.Fatalf("tree %d: %d messages, plain sum %d", i, cost.Messages, want)
		}
		var charge func([]step)
		charge = func(seq []step) {
			for _, s := range seq {
				flat.Charge(s.class, s.msgs)
				for _, b := range s.branches {
					charge(b)
				}
			}
		}
		flat.Charge(ClassWalk, 5)
		charge(seq)
		for c := Class(0); c < numClasses; c++ {
			if l.MessagesBy(c) != flat.MessagesBy(c) {
				t.Fatalf("tree %d: %v holds %d messages, plain ledger %d", i, c, l.MessagesBy(c), flat.MessagesBy(c))
			}
		}
	}
}

// TestEmptySectionAddsNoRounds: a section with no branch, or whose branches
// charge messages only, leaves the rounds where they were.
func TestEmptySectionAddsNoRounds(t *testing.T) {
	var l Ledger
	l.AddRounds(9)
	s := l.BeginConcurrent()
	l.EndConcurrent(s)
	s = l.BeginConcurrent()
	l.Charge(ClassExchange, 3)
	l.EndBranch(&s)
	l.Charge(ClassExchange, 4)
	l.EndBranch(&s)
	l.EndConcurrent(s)
	if l.Rounds() != 9 || l.Messages() != 7 {
		t.Errorf("after empty sections: rounds %d, messages %d; want 9, 7", l.Rounds(), l.Messages())
	}
}
