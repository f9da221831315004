#!/usr/bin/env sh
# benchmem gate: runs the allocation-sensitive benchmarks with -benchmem and
# fails when any allocs/op exceeds its recorded floor. The floors below are
# the measured steady-state numbers plus just enough headroom for amortized
# structural work (arena doublings, occasional splits) — NOT targets to grow
# into. The lean-regime op hot path (plan -> admit -> apply -> tail, exchange
# ops only) is pinned at exactly 0 allocs/op: the million-node sweeps stand
# on that, so any regression here is a merge blocker, not a soft warning.
#
# Run locally:  ./scripts/benchmem_gate.sh
#
# -benchtime is iteration-pinned (not wall-clock) so the gate measures the
# same amortization window on fast and slow runners alike.
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== benchmem gate: core hot paths =="
go test -run '^$' -bench 'BenchmarkExecBatchExchange|BenchmarkExecBatchHookedExchange|BenchmarkExecBatchChurn|BenchmarkSnapshotClusterInto' \
	-benchmem -benchtime 50x ./internal/core/ | tee -a "$out"

echo "== benchmem gate: sharded world batch (lean regime) =="
go test -run '^$' -bench 'BenchmarkShardedWorldBatch/lean' \
	-benchmem -benchtime 50x . | tee -a "$out"

# randCl and the exchange primitive read the overlay adjacency in place
# (Topology.Adjacent): a copy per hop or per neighbour-mass charge shows up
# here as allocs/op > 0. The world audit runs its connectivity BFS on the
# overlay's reused scratch: a map or queue per call shows up the same way.
echo "== benchmem gate: walk + exchange primitives, world audit =="
go test -run '^$' -bench 'BenchmarkRandClWalk|BenchmarkExchangePrimitive|BenchmarkWorldAudit' \
	-benchmem -benchtime 50x . | tee -a "$out"

# Floors: "<benchmark-prefix> <max allocs/op>". A line matches the longest
# applicable prefix listed here; benchmarks without a floor are informational.
floors='
BenchmarkExecBatchExchange 0
BenchmarkExecBatchHookedExchange 0
BenchmarkExecBatchChurn 8
BenchmarkSnapshotClusterInto 0
BenchmarkShardedWorldBatch/lean/ 10
BenchmarkRandClWalk 0
BenchmarkExchangePrimitive 0
BenchmarkWorldAudit 0
'

fail=0
for floor in $(printf '%s' "$floors" | awk 'NF {print $1 "=" $2}'); do
	prefix=${floor%%=*}
	max=${floor##*=}
	matched=0
	while IFS= read -r line; do
		case $line in
		"$prefix"*" allocs/op"*) ;;
		*) continue ;;
		esac
		matched=1
		allocs=$(printf '%s\n' "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}')
		name=$(printf '%s\n' "$line" | awk '{print $1}')
		if [ "$allocs" -gt "$max" ]; then
			echo "FAIL: $name allocated $allocs allocs/op, floor is $max" >&2
			fail=1
		else
			echo "ok:   $name $allocs allocs/op (floor $max)"
		fi
	done <"$out"
	if [ "$matched" -eq 0 ]; then
		echo "FAIL: no benchmark matched floor prefix $prefix (renamed? update the floors table)" >&2
		fail=1
	fi
done

exit "$fail"
