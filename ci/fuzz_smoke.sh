#!/bin/sh
# ci/fuzz_smoke.sh — short fuzzing pass over every fuzz target in the
# repository, run by the CI fuzz job. Each target fuzzes for FUZZTIME
# (default 30s); any crasher fails the script and leaves its input under
# the package's testdata/fuzz/ corpus directory for reproduction.
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-30s}"

fuzz() {
    pkg="$1"
    target="$2"
    # A listed target that no longer exists must fail the script, not
    # no-op: `go test -fuzz` with an unmatched pattern exits 0, which
    # would silently drop the target from coverage on a rename.
    if ! go test "$pkg" -run='^$' -list "^${target}\$" | grep -qx "$target"; then
        echo "fuzz target $target not found in $pkg (renamed or deleted?)" >&2
        exit 1
    fi
    echo "== fuzz $pkg $target ($FUZZTIME) =="
    go test "$pkg" -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME"
}

fuzz ./internal/cigar FuzzParseRoundTrip
fuzz ./internal/cigar FuzzValidate
fuzz ./internal/seq FuzzFromStringPackRoundTrip
fuzz ./internal/core FuzzLinearVsQuadratic
fuzz ./internal/core FuzzBandedNeverBeatsOptimal
fuzz ./internal/core FuzzNarrowWideEquivalence
fuzz ./internal/admission/config FuzzAdmissionConfig
fuzz ./internal/cache FuzzWALRecordRoundTrip
fuzz ./cmd/alignd FuzzPairDecoder

echo "FUZZ SMOKE PASS"
