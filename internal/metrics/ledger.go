// Package metrics provides cost accounting (messages, rounds) and the
// statistics toolkit used by the experiment harness: streaming moments,
// quantiles, distribution distances and polylog/power-law exponent fits.
//
// Every protocol primitive charges its communication cost to a Ledger using
// the paper's cost rules (all-to-all within a cluster, |Ci|x|Cj| between
// adjacent clusters, majority-accept). Experiments snapshot the ledger
// around an operation to obtain exact per-operation costs.
package metrics

import (
	"fmt"
	"strings"
)

// Class labels a category of protocol traffic. Classes let experiments
// decompose an operation's cost into its constituent primitives.
type Class int

// Traffic classes, one per protocol primitive or phase.
const (
	ClassIntraCluster Class = iota // all-to-all within one cluster
	ClassInterCluster              // cluster-to-cluster announcements
	ClassWalk                      // CTRW forwarding between clusters
	ClassRandNum                   // distributed random number generation
	ClassExchange                  // node shuffling transfers
	ClassDiscovery                 // initialization flooding
	ClassAgreement                 // Byzantine agreement traffic
	ClassApplication               // application-layer traffic (broadcast etc.)
	ClassCascade                   // grouped leave-cascade shuffle rounds
	ClassTransport                 // transport-layer overhead (acks, retransmissions)
	numClasses
)

// NumClasses is the number of traffic classes, for callers that keep
// per-class accumulators (e.g. one Hist per class).
const NumClasses = int(numClasses)

var _classNames = [numClasses]string{
	"intra-cluster",
	"inter-cluster",
	"walk",
	"randnum",
	"exchange",
	"discovery",
	"agreement",
	"application",
	"cascade",
	"transport",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return _classNames[c]
}

// Ledger accumulates message and round counts. The zero value is ready to
// use. Ledger is not safe for concurrent use; the simulator is single
// threaded and the live runtime aggregates per-goroutine counts itself.
type Ledger struct {
	msgs   [numClasses]int64
	rounds int64
}

// Charge records n messages of class c. Negative charges are rejected so a
// buggy cost model cannot silently shrink totals.
func (l *Ledger) Charge(c Class, n int64) { l.ChargeRounds(c, n, 0) }

// AddRounds records r communication rounds.
func (l *Ledger) AddRounds(r int64) {
	if r < 0 {
		panic(negativeCharge(-1))
	}
	l.rounds += r
}

// ChargeRounds records n messages of class c sent over r communication
// rounds: Charge and AddRounds under one sign check.
func (l *Ledger) ChargeRounds(c Class, n, r int64) {
	if n|r < 0 {
		panic(negativeCharge(c))
	}
	l.msgs[c] += n
	l.rounds += r
}

// negativeCharge is the panic value of a negative charge: the class
// charged, or -1 for AddRounds. The message is built only when read, and
// the value carries no counts (the panic's stack trace has them), so the
// ledger's methods stay cheap enough for the cost model's callers to inline
// them and to inline in turn into every draw.
type negativeCharge Class

func (e negativeCharge) Error() string {
	if e < 0 {
		return "metrics: negative rounds"
	}
	return fmt.Sprintf("metrics: negative message or round count charged to %v", Class(e))
}

// Merge folds another ledger's totals into this one.
func (l *Ledger) Merge(other *Ledger) {
	for c := Class(0); c < numClasses; c++ {
		l.msgs[c] += other.msgs[c]
	}
	l.rounds += other.rounds
}

// Messages returns the total message count across all classes.
func (l *Ledger) Messages() int64 {
	var total int64
	for _, m := range l.msgs {
		total += m
	}
	return total
}

// MessagesBy returns the message count for one class.
func (l *Ledger) MessagesBy(c Class) int64 { return l.msgs[c] }

// Rounds returns the total round count.
func (l *Ledger) Rounds() int64 { return l.rounds }

// Section is a concurrent section in progress: branches that run in
// parallel, each charged to the same Ledger one after another. Messages
// add as usual; the section adds only its longest branch's rounds, the
// critical path. The value is held by the caller, so the Ledger carries
// no extra state and sections nest: a section opened inside a branch
// charges that branch its own critical path.
//
//	s := led.BeginConcurrent()
//	for ... { /* charge one branch */; led.EndBranch(&s) }
//	led.EndConcurrent(s)
type Section struct {
	start   int64 // the ledger's rounds when the section began
	longest int64 // the longest closed branch's rounds
}

// BeginConcurrent opens a concurrent section; the first branch starts now.
func (l *Ledger) BeginConcurrent() Section { return Section{start: l.rounds} }

// EndBranch closes the branch charged since the section began or since the
// previous EndBranch, and starts the next branch at the section's start.
func (l *Ledger) EndBranch(s *Section) {
	s.longest = max(s.longest, l.rounds-s.start)
	l.rounds = s.start
}

// EndConcurrent closes the section, counting rounds charged since the last
// EndBranch as one more branch, so an early exit from inside a branch
// closes it too. The ledger's rounds end at the section's start plus the
// longest branch; a section with no rounds charged adds none.
func (l *Ledger) EndConcurrent(s Section) {
	l.rounds = s.start + max(s.longest, l.rounds-s.start)
}

// Snapshot captures the current totals so a caller can compute the cost of
// a single operation as the difference of two snapshots.
type Snapshot struct {
	msgs   [numClasses]int64
	rounds int64
}

// Snapshot returns the current totals.
func (l *Ledger) Snapshot() Snapshot {
	return Snapshot{msgs: l.msgs, rounds: l.rounds}
}

// Cost is the resource consumption of one operation. ByClass holds every
// class, those with no messages at zero, so a Cost is a plain value and
// taking one allocates nothing.
type Cost struct {
	Messages int64
	Rounds   int64
	ByClass  [NumClasses]int64
}

// Since returns the cost accumulated after the given snapshot was taken.
func (l *Ledger) Since(s Snapshot) Cost {
	c := Cost{Rounds: l.rounds - s.rounds}
	for i := range c.ByClass {
		c.ByClass[i] = l.msgs[i] - s.msgs[i]
		c.Messages += c.ByClass[i]
	}
	return c
}

// String renders the cost compactly for logs and tables: the totals, then
// every class with a non-zero count in class order.
func (c Cost) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d rounds=%d", c.Messages, c.Rounds)
	sep := " ["
	for k, n := range c.ByClass {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%v=%d", sep, Class(k), n)
		sep = " "
	}
	if sep == " " {
		b.WriteString("]")
	}
	return b.String()
}
