#!/usr/bin/env bash
# golden_columns.sh <rev> <column>... diffs results/golden/* against the
# same files at git revision <rev>. For each changed line of a table row it
# prints the file, line, experiment, the row's first cell and every changed
# column with its old and new value; a changed line outside a table row
# (a header, Claim or note, or a row whose cell count differs) is printed
# whole. It fails if a file's line count changed, if a non-row line
# changed, or if a column not named in the arguments changed.
#
#   scripts/golden_columns.sh 9bc1843 joinRounds leaveRounds
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: $0 <rev> <column>..." >&2
	exit 2
fi
rev=$1
shift
allowed=" $* "
status=0
for f in results/golden/*; do
	if ! git cat-file -e "$rev:$f" 2>/dev/null; then
		echo "$f: not present at $rev"
		status=1
		continue
	fi
	awk -v allowed="$allowed" -v file="$f" '
		NR == FNR { old[FNR] = $0; nold = FNR; next }
		/^== / { id = $2; sub(/:$/, "", id); intable = 0 }
		/^-+$/ { ncols = split(prev, cols); intable = 1 }
		/^$/ { intable = 0 }
		{
			line = $0
			if (FNR <= nold && old[FNR] != line) {
				n = split(line, cur)
				m = split(old[FNR], was)
				if (intable && line !~ /^-+$/ && n == ncols && m == ncols) {
					out = ""
					for (i = 1; i <= n; i++) {
						if (cur[i] == was[i]) continue
						out = out sprintf(" %s %s -> %s", cols[i], was[i], cur[i])
						if (index(allowed, " " cols[i] " ") == 0) bad = 1
					}
					printf "%s:%d %s %s=%s:%s\n", file, FNR, id, cols[1], cur[1], out
				} else {
					printf "%s:%d %s: line changed\n  was: %s\n  now: %s\n", file, FNR, id, old[FNR], line
					bad = 1
				}
			}
			prev = line
		}
		END {
			if (FNR != nold) {
				printf "%s: %d lines at the revision, %d now\n", file, nold, FNR
				bad = 1
			}
			exit bad
		}
	' <(git show "$rev:$f") "$f" || status=1
done
if [ "$status" -ne 0 ]; then
	echo "golden_columns: changes outside the allowed columns:$allowed" >&2
fi
exit "$status"
