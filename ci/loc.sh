#!/bin/sh
# ci/loc.sh [ROOT] — non-test, non-generated Go code lines per package
# of the module rooted at ROOT (default: this repository). Every file is
# passed through gofmt first, and blank lines and comment-only lines are
# not counted, so reformatting or (un)commenting never moves the numbers.
# Informational: ROADMAP.md asks every PR to report its net non-test LOC;
# run this on the parent commit and on the change and diff the tables.
set -eu

ROOT="${1:-$(dirname "$0")/..}"
cd "$ROOT"

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort |
while read -r f; do
    if head -n 5 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$'; then
        continue
    fi
    n=$(gofmt "$f" | awk '
        inblock { if (index($0, "*/")) inblock = 0; next }
        /^[ \t]*$/ { next }
        /^[ \t]*\/\// { next }
        /^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
        { n++ }
        END { print n + 0 }')
    echo "$(dirname "$f" | sed 's|^\./||') $n"
done | awk '
    { loc[$1] += $2; total += $2 }
    END {
        for (p in loc) printf "%6d  %s\n", loc[p], p | "sort -k2"
        close("sort -k2")
        printf "%6d  total\n", total
    }'
