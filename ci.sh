#!/bin/sh
# ci.sh — the tier-1 gate for this repository (see ROADMAP.md).
#
# Runs, in order:
#   1. gofmt -l          (fails if any file is unformatted)
#   2. go vet ./...      (plus GOARCH=arm64 go vet ./internal/core, so the
#                         !amd64 twin of the assembly kernels keeps
#                         compiling, and GOARCH=386 go test -short
#                         ./internal/core, its only end-to-end run: on
#                         amd64 the portable window loop runs only as the
#                         oracle of TestNarrowStepAsmMatchesPortable)
#   3. arm64 FMA check   (the arm64 compiler may fuse a float multiply
#                         and add into one instruction that rounds once,
#                         which can move modelled seconds in the last bit;
#                         the simulator, host and projection packages must
#                         compile to none, so every architecture prints
#                         amd64's numbers)
#   4. go build ./...
#   5. go test -race ./...
#   6. golden reports x5 (the report goldens and the session
#                         determinism test again, five times under -race:
#                         a report that depends on goroutine schedule,
#                         batch size or linger must fail here, not one
#                         run in four)
#   7. benchmark smoke   (every benchmark compiles and runs once)
#   8. allocation gate   (core-engine allocs/op must not exceed the
#                         committed baseline; see cmd/benchgate)
#   9. alignd smoke      (serve over HTTP, diff against the one-shot
#                         CLI, all-against-all under fleet and faults,
#                         draining healthz, graceful SIGTERM drain; see
#                         ci/alignd_smoke.sh; the shed ladder and cache
#                         latency under load are TestServerUnderLoad in
#                         step 5)
#  10. code-size table    (informational, never fails: non-test Go code
#                         lines per package; see ci/loc.sh)
#
# Any step failing fails the script. This is a superset of ROADMAP.md's
# minimal `go build ./... && go test ./...` gate.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
# Check the whole module, not just cmd/ and internal/ — top-level files
# like bench_test.go and doc.go are covered by the walk from ".".
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    gofmt -d $unformatted >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
GOARCH=arm64 go vet ./internal/core
GOARCH=386 go test -short ./internal/core

echo "== arm64 FMA check =="
# The -S listing is replayed from the build cache, so this is cheap.
asm="${TMPDIR:-/tmp}/pimnw_arm64_asm.txt"
GOARCH=arm64 go build -gcflags=-S ./internal/pim ./internal/host ./internal/xp > "$asm" 2>&1
if grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$asm" >&2; then
    echo "fused multiply-add on arm64: round the product with float64(...)" >&2
    exit 1
fi
rm -f "$asm"

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== golden reports, repeated under -race =="
go test -race -count=5 -run 'TestReportGoldenDifferential|TestSessionReportDeterministic' ./internal/host

echo "== benchmark smoke (-benchtime=1x) =="
go test -run='^$' -bench=. -benchtime=1x ./...

echo "== allocation gate =="
# -benchtime=60x amortises the sync.Pool warm-up into the iteration
# count, so the steady-state allocs/op floor (0 for the score path) is
# what gets compared: a pooled Scratch re-grown after a GC is ~20 objects,
# which at 20x reads as a whole extra alloc/op on the traceback
# benchmarks most runs. Timing is ignored in -allocs-only mode, so the
# short benchtime is fine.
go run ./cmd/benchgate -allocs-only -count=1 -benchtime=60x \
    -out "${TMPDIR:-/tmp}/bench_allocs.json"

echo "== alignd smoke =="
./ci/alignd_smoke.sh

echo "== code size (informational) =="
./ci/loc.sh || true

echo "CI PASS"
