#!/bin/sh
# Coverage ratchet: per-package statement coverage is compared against
# the committed baseline in scripts/coverage_baseline.txt and may only
# move up. A drop of more than 0.5pt fails the build; after genuinely
# raising coverage (or adding a package), refresh the floor with
#
#   scripts/cover.sh -update
#
# -update keeps, for each package, the higher of its old floor and its
# current coverage, adds new packages and drops deleted ones, so it never
# lowers a floor. The 0.5pt slack absorbs churn from moving statements
# around; it is not room to delete tests.
set -e
cd "$(dirname "$0")/.."
baseline=scripts/coverage_baseline.txt

current=$(mktemp)
merged=$(mktemp)
trap 'rm -f "$current" "$merged"' EXIT
go test -cover ./... | awk '
	$1 == "ok" {
		for (i = 3; i <= NF; i++) if ($i ~ /%$/) {
			pct = $i; sub(/%/, "", pct)
			print $2, pct
		}
	}' | sort > "$current"

if [ "$1" = "-update" ]; then
	old=$baseline
	[ -f "$old" ] || old=/dev/null
	awk '
		FILENAME == ARGV[1] { base[$1] = $2; next }
		{
			v = $2
			if ($1 in base && base[$1] + 0 > v + 0) v = base[$1]
			print $1, v
		}
	' "$old" "$current" > "$merged"
	cp "$merged" "$baseline"
	echo "wrote $baseline:"
	cat "$baseline"
	exit 0
fi

if [ ! -f "$baseline" ]; then
	echo "no $baseline; run scripts/cover.sh -update to create it" >&2
	exit 1
fi

awk '
	NR == FNR { base[$1] = $2; next }
	{ cur[$1] = $2 }
	END {
		bad = 0
		for (p in base) {
			if (!(p in cur)) {
				printf "%s: in baseline (%.1f%%) but produced no coverage — package or its tests removed?\n", p, base[p]
				bad = 1
			} else if (cur[p] + 0.5 < base[p]) {
				printf "%s: coverage %.1f%% fell below the %.1f%% baseline\n", p, cur[p], base[p]
				bad = 1
			}
		}
		for (p in cur) if (!(p in base))
			printf "note: %s (%.1f%%) is not in the baseline; run scripts/cover.sh -update to ratchet it in\n", p, cur[p]
		exit bad
	}' "$baseline" "$current"
echo "coverage at or above baseline for every package"
