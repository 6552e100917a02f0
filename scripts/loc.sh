#!/usr/bin/env bash
# Go line counts per package (directory): all .go lines and the non-test
# ones, for the working tree. Given a git revision, it also prints the
# counts at that revision, read from git's object store, and the delta.
#
#   scripts/loc.sh          # working tree
#   scripts/loc.sh HEAD~1   # working tree, HEAD~1 and the change
#
# The working tree means tracked and untracked, not ignored .go files as
# they are on disk. Lines are counted by wc -l.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-}"
if [[ -n "$rev" ]]; then
	git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
		echo "loc.sh: unknown revision $rev" >&2
		exit 2
	}
fi

declare -A all=() code=() rall=() rcode=() seen=()
pkgs=()

pkgof() {
	if [[ $1 == */* ]]; then pkg=${1%/*}; else pkg=.; fi
	if [[ -z ${seen[$pkg]:-} ]]; then
		seen[$pkg]=1
		pkgs+=("$pkg")
	fi
}

# add counts n lines of file f into the named all/non-test maps.
add() {
	local -n a=$1 c=$2
	local n=$3 f=$4
	pkgof "$f"
	a[$pkg]=$((${a[$pkg]:-0} + n))
	if [[ $f != *_test.go ]]; then
		c[$pkg]=$((${c[$pkg]:-0} + n))
	fi
}

files=()
while IFS= read -r f; do
	[[ -f $f ]] && files+=("$f")
done < <(git ls-files --cached --others --exclude-standard -- '*.go')
if ((${#files[@]})); then
	while read -r n f; do
		[[ $f == total ]] && continue # wc's sum line
		add all code "$n" "$f"
	done < <(wc -l -- "${files[@]}")
fi

if [[ -n "$rev" ]]; then
	while IFS= read -r f; do
		[[ $f == *.go ]] || continue
		add rall rcode "$(git show "$rev:$f" | wc -l)" "$f"
	done < <(git ls-tree -r --name-only "$rev")
fi

# Sort the package names (insertion sort: bash only).
for ((i = 1; i < ${#pkgs[@]}; i++)); do
	p=${pkgs[i]}
	for ((j = i - 1; j >= 0; j--)); do
		[[ ${pkgs[j]} > $p ]] || break
		pkgs[j + 1]=${pkgs[j]}
	done
	pkgs[j + 1]=$p
done

row() {
	if [[ -n "$rev" ]]; then
		printf '%-24s %8s %8s %8s %8s %8s %8s\n' "$@"
	else
		printf '%-24s %8s %8s\n' "$@"
	fi
}
delta() {
	if (($1 > 0)); then echo "+$1"; else echo "$1"; fi
}

if [[ -n "$rev" ]]; then
	printf '%-24s %17s %17s %17s\n' "" "working tree" "$rev" change
	row package all non-test all non-test all non-test
else
	row package all non-test
fi
ta=0 tc=0 ra=0 rc=0
for p in "${pkgs[@]}"; do
	a=${all[$p]:-0} c=${code[$p]:-0}
	ta=$((ta + a)) tc=$((tc + c))
	if [[ -n "$rev" ]]; then
		x=${rall[$p]:-0} y=${rcode[$p]:-0}
		ra=$((ra + x)) rc=$((rc + y))
		row "$p" "$a" "$c" "$x" "$y" "$(delta $((a - x)))" "$(delta $((c - y)))"
	else
		row "$p" "$a" "$c"
	fi
done
if [[ -n "$rev" ]]; then
	row total "$ta" "$tc" "$ra" "$rc" "$(delta $((ta - ra)))" "$(delta $((tc - rc)))"
else
	row total "$ta" "$tc"
fi
