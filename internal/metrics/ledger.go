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
	"sort"
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

// Cost is the resource consumption of one operation.
type Cost struct {
	Messages int64
	Rounds   int64
	ByClass  map[Class]int64
}

// Since returns the cost accumulated after the given snapshot was taken.
func (l *Ledger) Since(s Snapshot) Cost {
	c := Cost{
		Rounds:  l.rounds - s.rounds,
		ByClass: make(map[Class]int64, int(numClasses)),
	}
	for i := Class(0); i < numClasses; i++ {
		d := l.msgs[i] - s.msgs[i]
		if d != 0 {
			c.ByClass[i] = d
		}
		c.Messages += d
	}
	return c
}

// CostVec is Cost with a dense per-class vector instead of a map: the
// value form allocates nothing, so per-operation cost sampling inside hot
// simulation loops stays garbage-free. Classes with zero delta simply hold
// zero (the map form omits them).
type CostVec struct {
	Messages int64
	Rounds   int64
	ByClass  [numClasses]int64
}

// SinceVec is Since in the allocation-free vector form.
func (l *Ledger) SinceVec(s Snapshot) CostVec {
	c := CostVec{Rounds: l.rounds - s.rounds}
	for i := Class(0); i < numClasses; i++ {
		d := l.msgs[i] - s.msgs[i]
		c.ByClass[i] = d
		c.Messages += d
	}
	return c
}

// String renders the cost compactly for logs and tables.
func (c Cost) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d rounds=%d", c.Messages, c.Rounds)
	if len(c.ByClass) == 0 {
		return b.String()
	}
	keys := make([]Class, 0, len(c.ByClass))
	for k := range c.ByClass {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b.WriteString(" [")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v=%d", k, c.ByClass[k])
	}
	b.WriteString("]")
	return b.String()
}
