#!/usr/bin/env sh
# hop_calls gate: the walk loop, walk.(*Walker).fusedWalk, which runs
# every walk, takes its inline steps with no call. The script builds
# nowsim, disassembles the loop's function and fails on any CALL outside
# the allowlist:
#   - walk.(*Walker).hop and walk.(*Walker).coin, the out-of-line step
#     and acceptance coin (a captured or malformed cluster, an isolated
#     vertex, an ID past the tables, or a generator other than Ideal);
#   - xrand.(*Rand).IntnFrom, the reduction's rejection path (a word whose
#     Lemire low product falls below the range, about deg in 2^64);
#   - runtime.panicIndex*, the bounds checks of the adjacency reads;
#   - runtime.morestack*, the stack-growth prologue.
# A call anywhere else (an interface call, a PCG word through a method
# that stopped inlining, a float helper) is the per-hop cost the loop
# exists to remove. hop and coin are marked //go:noinline: the script
# also fails when either is missing from the binary, since inlined they
# would bring their Generator.Draw calls into the loop. The allowlist,
# not the compiler version, is the contract: different Go releases may
# place the allowed calls differently, but must need no other.
#
# Run locally:  ./scripts/hop_calls.sh
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/nowsim" ./cmd/nowsim
go tool objdump -s 'walk\.\(\*Walker\)\.(fusedWalk|hop|coin)$' "$dir/nowsim" >"$dir/all"

for fn in fusedWalk hop coin; do
	if ! grep -q "^TEXT nowover/internal/walk\.(\*Walker)\.$fn(SB)" "$dir/all"; then
		echo "hop_calls: walk.(*Walker).$fn not found in the binary (renamed, or inlined into its caller)" >&2
		exit 1
	fi
done
go tool objdump -s 'walk\.\(\*Walker\)\.fusedWalk$' "$dir/nowsim" >"$dir/dump"

allowed='CALL (nowover/internal/walk\.\(\*Walker\)\.(hop|coin)|nowover/internal/xrand\.\(\*Rand\)\.IntnFrom|runtime\.panicIndex[A-Za-z0-9_]*|runtime\.morestack[A-Za-z0-9_.]*)\(SB\)'
grep -E '[[:space:]]CALL[[:space:]]' "$dir/dump" >"$dir/calls" || true
if grep -vE "$allowed" "$dir/calls" >"$dir/bad"; then
	echo "hop_calls: walk.(*Walker).fusedWalk makes calls outside the allowlist:" >&2
	cat "$dir/bad" >&2
	exit 1
fi
echo "hop_calls: walk.(*Walker).fusedWalk makes only allowed calls ($(wc -l <"$dir/calls") sites: out-of-line hop and coin, rejection path, bounds panics, stack growth)"
