#!/usr/bin/env sh
# benchmem gate: runs the allocation-sensitive benchmarks with -benchmem and
# fails when any allocs/op exceeds its recorded floor. The floors below are
# the measured steady-state numbers plus just enough headroom for amortized
# structural work (arena doublings, occasional splits) — NOT targets to grow
# into. The lean-regime batch hot path (ExecBatch over exchange ops only) is
# pinned at exactly 0 allocs/op: the million-node sweeps stand on that, so
# any regression here is a merge blocker, not a soft warning.
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
go test -run '^$' -bench 'BenchmarkExecBatchExchange|BenchmarkExecBatchHookedExchange|BenchmarkExecBatchChurn' \
	-benchmem -benchtime 50x ./internal/core/ | tee -a "$out"

# randCl and the exchange primitive read the world's tables in place: a
# walk takes one Topology.View (the row table and the overlay's
# ClusterID-indexed adjacency, not copied), a
# neighbour-mass charge reads the mass the overlay keeps, and a swap
# rewrites three member slots where they stand, so a copy per hop, per
# segment, per charge or per swap shows up here as allocs/op > 0. Both
# randCl variants, /fused (Ideal steps below capture taken inline) and
# /interface (every step out of line, through Generator.Draw), sit under
# the one BenchmarkRandClWalk floor. Every BenchmarkExchangePrimitive
# size, N=262144 (the churn_large shape, walks running between swaps on
# one world) included, sits under the one BenchmarkExchangePrimitive
# floor.
# The world audit's overlay half is cached until the
# overlay changes: /unchanged times the cache hit, /after-mutation forces
# the degree scan and the connectivity BFS, which run on the overlay's
# reused scratch, so a map or queue per call shows up the same way.
# A simulation step reuses the runner's victims/ops/results scratch: a
# 50-step window makes a handful of structural mallocs, under 1 per step.
# A ContinueInto(res, nil, 8) with per-op cost sampling refills one Result
# in place, so a fresh Result (5.9 KB) or digest buffer per call crosses
# the floor; /fresh (Continue, a new Result per call) is informational.
echo "== benchmem gate: walk + exchange primitives, world audit, sim step, runner continue =="
go test -run '^$' -bench 'BenchmarkRandClWalk|BenchmarkExchangePrimitive|BenchmarkWorldAudit|BenchmarkSimulationStep|BenchmarkRunnerContinue' \
	-benchmem -benchtime 50x . | tee -a "$out"

# World construction as cmd/nowperf times a set-up: sim.New plus
# core.CheckInvariants at churn_batched's, churn_large's and churn_resize's
# shapes (n0 = 2^13, 2^17 and 128). The count is seeded and exact, and
# every table is sized once: the node and cluster tables to n0 and its
# clusters, the member arrays and the adjacency lists carved from one
# arena each (the lists at their exact degrees, counted by a first pass
# of the G(n, p) draw), the overlay's ID tables to the largest cluster
# ID, the cluster records held by value in the cluster table, and the
# Byzantine index, allegiance bitset and chunk edges to what the corrupted
# slots and n0 need. No alloc/op is per cluster or per node: what is left
# (50, 50 and 48) is the tables' single allocations and the runner's and
# the oracle's set-up. A heap record per cluster again (+292 and +3 641
# allocs/op at the two larger shapes), adjacency lists grown edge by edge
# (+1 510, +20 930 and +10), member arrays grown member by member (about
# +1 700 and +25 600), node tables grown node by node (+50 and +82), the
# Byzantine index, bitset and chunk edges grown by append (+26 and +47)
# or a per-node map in the oracle crosses the floor. Three iterations: one 2^17 set-up takes
# ~0.02 s.
echo "== benchmem gate: world construction =="
go test -run '^$' -bench 'BenchmarkWorldBootstrap' \
	-benchmem -benchtime 3x . | tee -a "$out"

# One Ideal randNum draw: validation, the cost model's charges and the
# value. A rejected Params builds its error only on its cold branch and a
# negative charge its panic value only when it panics, so a draw that
# allocates means one of them has moved onto the hot path.
echo "== benchmem gate: randnum draw =="
go test -run '^$' -bench 'BenchmarkIdealDraw' \
	-benchmem -benchtime 50x ./internal/randnum/ | tee -a "$out"

# The wire path: a warm stream decoder allocates only the payload copy it
# hands out, and a warm Node.Request round trip over localhost TCP only the
# two payload copies (request and response) — encode buffers, request
# waiters and their timers are all reused. A round-host decision (the
# wire_tcp committee on the loopback net, 48 requests and 48 acks) makes
# its processes and hosts, each host's dedupe table and two inbox arrays
# once, and otherwise only what it sends and delivers: 867 allocs/op
# (1088 before round frames, outputs and inboxes were reused), of which
# the loopback net's own encoding of each envelope and boxing of each
# scheduled event are 813. A frame per emission again (+48), an output
# slice per Step, inboxes regrown every round or a map per dedupe
# crosses the floor.
echo "== benchmem gate: wire path (stream reframing, TCP request echo, round-host decision) =="
go test -run '^$' -bench 'BenchmarkStreamReframe|BenchmarkTCPRequestEcho|BenchmarkRoundHostDecision' \
	-benchmem -benchtime 50x ./internal/nownet/ | tee -a "$out"

# Floors: "<benchmark-prefix> <max allocs/op>". A line matches the longest
# applicable prefix listed here; benchmarks without a floor are informational.
floors='
BenchmarkExecBatchExchange 0
BenchmarkExecBatchHookedExchange 0
BenchmarkExecBatchChurn 8
BenchmarkRandClWalk 0
BenchmarkExchangePrimitive 0
BenchmarkWorldAudit/unchanged 0
BenchmarkWorldAudit/after-mutation 0
BenchmarkIdealDraw 0
BenchmarkSimulationStep 0
BenchmarkRunnerContinue/into 0
BenchmarkWorldBootstrap/N=16384 64
BenchmarkWorldBootstrap/N=262144 63
BenchmarkWorldBootstrap/N=4096,n0=128 56
BenchmarkStreamReframe/empty 0
BenchmarkStreamReframe/payload 1
BenchmarkTCPRequestEcho 2
BenchmarkRoundHostDecision 870
'

fail=0
# A prefix may itself hold "=" (BenchmarkWorldBootstrap/N=16384), so the
# pair is split at the last one.
for floor in $(printf '%s' "$floors" | awk 'NF {print $1 "=" $2}'); do
	prefix=${floor%=*}
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
