// Package mutglobal is a lint fixture for mutable-global: package-level
// vars written after initialisation or holding sync state, versus the
// assertions, sentinels, read-only tables and init-time writes the rule
// must leave alone. It is loaded under a nowover/internal/ import path;
// under any other path the same file produces no findings.
package mutglobal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

type counter struct{ n int }

func (c *counter) bump()   { c.n++ }
func (c counter) get() int { return c.n }

// Written after initialisation.
var (
	assigned        int        // want mutable-global
	incremented     int        // want mutable-global
	indexed         [4]int     // want mutable-global
	fieldSet        counter    // want mutable-global
	addressed       int        // want mutable-global
	methodAddressed counter    // want mutable-global
	rangeAssigned   int        // want mutable-global
	grown           = []int{1} // want mutable-global
	initViaMethod   int        // want mutable-global
)

// sync state, written or not.
var (
	mu   sync.Mutex    // want mutable-global
	hits atomic.Int64  // want mutable-global
	once *sync.Once    // want mutable-global
	pool [2]sync.Mutex // want mutable-global
)

// Never written outside the declaration or init.
var (
	_           fmt.Stringer = (*stringer)(nil)
	ErrSentinel              = errors.New("mutglobal: sentinel")
	table                    = map[string]int{"a": 1}
	readOnly    counter
	initOnly    int
	shadowed    = 1
	// Shared is written only by another package (see mgwriter), which
	// is flagged at that write site.
	Shared int
)

type stringer struct{}

func (*stringer) String() string { return "" }

func init() { initOnly = len(table) }

// init with a receiver is an ordinary method, not package initialisation.
func (c *counter) init() { initViaMethod = c.n }

func writes(xs []int) *int {
	assigned = 1
	incremented++
	indexed[2] = 3
	fieldSet.n = 4
	methodAddressed.bump()
	for _, rangeAssigned = range xs {
	}
	grown = append(grown, 2)
	mu.Lock()
	mu.Unlock()
	hits.Add(1)
	return &addressed
}

func reads() int {
	shadowed := shadowed + 1 // a local, not the package var
	shadowed++
	return table["a"] + readOnly.get() + initOnly + shadowed + len(ErrSentinel.Error()) + Shared
}
