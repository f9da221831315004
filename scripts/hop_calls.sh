#!/usr/bin/env sh
# hop_calls gate: the fused walk loop, walk.fusedWalk, which runs every
# Ideal walk below capture, stays call-free. The script builds nowsim,
# disassembles the loop's function and fails on any CALL outside the
# allowlist:
#   - xrand.(*Rand).IntnFrom, the reduction's rejection path (a word whose
#     Lemire low product falls below the range, about deg in 2^64);
#   - runtime.panicIndex*, the bounds checks of the adjacency reads;
#   - runtime.morestack*, the stack-growth prologue.
# A call anywhere else (an interface call, a PCG word through a method
# that stopped inlining, a float helper) is the per-hop cost the loop
# exists to remove. The allowlist, not the compiler version, is the
# contract: different Go releases may place the allowed calls
# differently, but must need no other.
#
# Run locally:  ./scripts/hop_calls.sh
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/nowsim" ./cmd/nowsim
go tool objdump -s 'walk\.fusedWalk$' "$dir/nowsim" >"$dir/dump"

if ! grep -q '^TEXT nowover/internal/walk\.fusedWalk(SB)' "$dir/dump"; then
	echo "hop_calls: walk.fusedWalk not found in the binary (renamed, or inlined into its caller)" >&2
	exit 1
fi

allowed='CALL (nowover/internal/xrand\.\(\*Rand\)\.IntnFrom|runtime\.panicIndex[A-Za-z0-9_]*|runtime\.morestack[A-Za-z0-9_.]*)\(SB\)'
grep -E '[[:space:]]CALL[[:space:]]' "$dir/dump" >"$dir/calls" || true
if grep -vE "$allowed" "$dir/calls" >"$dir/bad"; then
	echo "hop_calls: walk.fusedWalk makes calls outside the allowlist:" >&2
	cat "$dir/bad" >&2
	exit 1
fi
echo "hop_calls: walk.fusedWalk is call-free ($(wc -l <"$dir/calls") allowed call sites: rejection path, bounds panics, stack growth)"
