#!/usr/bin/env sh
# cascade_modes: the security evidence behind the default leave cascade.
# Runs one nowsim churn simulation per (cascade mode, tau, seed) at
# N = 2^18, n0 = 2^17, 320 steps, K = 2, and prints per run the steps that
# ended with a captured cluster, the worst Byzantine fraction any cluster
# reached, the degraded-cluster events and the mean messages per leave;
# then the per-(mode, tau) means.
#
#   grouped       the default (core.DefaultConfig): one grouped shuffle
#                 round over a leave's receivers
#   per-receiver  -grouped-cascade=false: Algorithm 2's full exchange per
#                 receiver, the paper-faithful reference
#
# Run locally:  ./scripts/cascade_modes.sh   (about 25 s on 2 vCPUs,
# almost all of it in the per-receiver runs)
#
# At K = 2 both modes show the binomial tail of cluster sampling (see E1's
# tau gradient), so the figures are reported, not gated on: the script
# fails only when a simulation does.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/nowsim" ./cmd/nowsim

printf '%-13s %-5s %-4s %9s %14s %15s %16s\n' \
	mode tau seed captured maxByzFracEver degraded_events leave_msgs_mean
for mode in per-receiver grouped; do
	grouped=true
	[ "$mode" = per-receiver ] && grouped=false
	for tau in 0.15 0.2; do
		for seed in 1 2 3 4 5; do
			"$tmp/nowsim" -N 262144 -n0 131072 -steps 320 -tau "$tau" -seed "$seed" \
				-grouped-cascade="$grouped" >"$tmp/out"
			awk -v mode="$mode" -v tau="$tau" -v seed="$seed" '
				/^security:/ {
					for (i = 2; i <= NF; i++) {
						split($i, kv, "=")
						if (kv[1] == "maxByzFracEver") maxfrac = kv[2]
						if (kv[1] == "degradedEvents") degraded = kv[2]
					}
				}
				/captured steps:/ { split($NF, c, "/"); captured = c[1] }
				/^per-op:/ {
					for (i = 1; i <= NF; i++) if ($i == "leave") { sub("mean=", "", $(i + 1)); leave = $(i + 1) }
				}
				END {
					printf "%-13s %-5s %-4s %9d %14.3f %15d %16.3e\n", mode, tau, seed, captured, maxfrac, degraded, leave
				}' "$tmp/out" | tee -a "$tmp/rows"
		done
	done
done

echo
echo "means over seeds 1-5 (runs_captured = runs with any captured step):"
printf '%-13s %-5s %9s %13s %14s %15s %16s\n' \
	mode tau captured runs_captured maxByzFracEver degraded_events leave_msgs_mean
awk '
	{
		k = $1 " " $2
		if (!(k in n)) order[++nk] = k
		n[k]++; cap[k] += $4; frac[k] += $5; deg[k] += $6; leave[k] += $7
		if ($4 > 0) hit[k]++
	}
	END {
		for (i = 1; i <= nk; i++) {
			k = order[i]; split(k, f, " ")
			printf "%-13s %-5s %9.1f %11d/%d %14.3f %15.1f %16.3e\n", f[1], f[2],
				cap[k] / n[k], hit[k], n[k], frac[k] / n[k], deg[k] / n[k], leave[k] / n[k]
		}
	}' "$tmp/rows"
