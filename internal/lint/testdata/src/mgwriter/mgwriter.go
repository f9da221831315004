// Package mgwriter is a lint fixture for mutable-global's cross-package
// arm: a write to another internal package's var is flagged where it
// happens, whatever package the writer is in.
package mgwriter

import "nowover/internal/mutglobal"

func poke() int {
	mutglobal.Shared = 2 // want mutable-global
	mutglobal.Shared++   // want mutable-global
	return mutglobal.Shared
}
