package core

import (
	"cmp"
	"slices"
)

// Deterministic map-walk helpers. The determinism contract (byte-identical
// tables and ledgers at any parallelism or plan-worker count) forbids letting Go's
// randomized map iteration order reach any observable output — including
// which invariant violation an oracle reports first. Every cluster/node map
// walk that feeds output, errors, or order-sensitive folds iterates one of
// these sorted key slices instead; `nowlint`'s map-order rule enforces the
// discipline mechanically.

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	return sortedKeysInto(make([]K, 0, len(m)), m)
}

// sortedKeysInto appends m's keys to buf[:0] and sorts them, reusing buf's
// backing array. Hot per-operation walks (settleSecurity) use this with a
// retained scratch slice so sorted iteration stays allocation-free.
func sortedKeysInto[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}
