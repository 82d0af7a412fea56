#!/bin/sh
# ci/loc.sh [-base REF] [ROOT] — non-test, non-generated Go code lines per
# package of the module rooted at ROOT (default: this repository). Every
# file is passed through gofmt first, and blank lines and comment-only
# lines are not counted, so reformatting or (un)commenting never moves the
# numbers.
#
# With -base REF (a git ref of ROOT's repository, e.g. HEAD~1) the ref is
# unpacked with `git archive` into a temporary directory and both trees are
# counted: one `base -> change  delta  package` row per package that
# differs, then the totals. Informational: ROADMAP.md asks every PR to
# report its net non-test LOC; paste this table into the CHANGES.md entry.
set -eu

BASE=""
if [ "${1:-}" = "-base" ]; then
    BASE="${2:?usage: ci/loc.sh [-base REF] [ROOT]}"
    shift 2
fi
ROOT="${1:-$(dirname "$0")/..}"

# count DIR prints "package lines" for every package under DIR, then the total.
count() (
    cd "$1"
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
            for (p in loc) print p, loc[p] | "sort"
            close("sort")
            print "total", total
        }'
)

if [ -z "$BASE" ]; then
    count "$ROOT" | awk '{ printf "%6d  %s\n", $2, $1 }'
    exit 0
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/base"
count "$TMP/base" > "$TMP/base.loc"
count "$ROOT" | awk -v basefile="$TMP/base.loc" '
    function row(p) { printf "%6d -> %6d  %+6d  %s\n", base[p], change[p], change[p] - base[p], p }
    BEGIN {
        while ((getline line < basefile) > 0) { split(line, f, " "); base[f[1]] = f[2] }
        printf "%6s    %6s  %6s  %s\n", "base", "change", "delta", "package"
    }
    { change[$1] = $2 }
    $1 != "total" && base[$1] + 0 != $2 { row($1) }
    END {
        for (p in base) if (!(p in change)) row(p)   # packages the change deleted
        row("total")
    }'
