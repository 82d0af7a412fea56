#!/bin/sh
# ci/alignd_smoke.sh — end-to-end smoke test of the serving path: build
# alignd and pimalign, start the daemon on a random port, align a small
# generated dataset over HTTP, diff the streamed output against the
# one-shot CLI's (they must match line for line), then SIGTERM the
# daemon and require a graceful exit 0. First, -check-config must echo
# a config file's values in canonical form. Before the daemon starts, the
# one-shot CLI's all-against-all mode is held to the pipeline's contract:
# placement and injected faults never change an answer, and a traceback
# run prints the same bytes under -lanes auto and -lanes 64.
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/alignd_smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$WORK/alignd" ./cmd/alignd
go build -o "$WORK/pimalign" ./cmd/pimalign
go build -o "$WORK/datagen" ./cmd/datagen

echo "== config =="
# -check-config validates the file plus flags and prints the effective
# config in canonical form, without serving.
cat > "$WORK/align.yaml" <<'EOF'
server:
  addr: "127.0.0.1:0"
  drain_wait: 200ms
align:
  ranks: 1
  verify: true
queues:
  slots: 1
  interactive: 2
  bulk: 2
shed:
  sample_interval: 10ms
  high_water: 0.7
  low_water: 0.3
  raise_after: 3
  release_after: 5
EOF

"$WORK/alignd" -config "$WORK/align.yaml" -check-config > "$WORK/canonical.yaml"
grep -q '^queues:' "$WORK/canonical.yaml" || {
    echo "-check-config output missing the queues section" >&2; exit 1; }
grep -q '  slots: 1' "$WORK/canonical.yaml" || {
    echo "-check-config did not reflect the config file's slots" >&2
    cat "$WORK/canonical.yaml" >&2; exit 1; }

echo "== dataset =="
"$WORK/datagen" -dataset s1000 -scale 0.00002 -seed 7 -out "$WORK"
A="$WORK/s1000_a.fa"
B="$WORK/s1000_b.fa"

echo "== all-against-all is a pair list on the one pipeline =="
# pimalign -mode allpairs inherits fleets, recovery and the ladder. The
# fleet run must print what the single fabric prints; the fault-injected
# run what the fault-free one prints. Escalation may relabel a clipped
# pair, so it is on both sides of the second comparison; backend names
# are not on pimalign's result lines.
"$WORK/datagen" -dataset 16s -scale 0.002 -seed 7 -out "$WORK"
S="$WORK/16s.fa"
"$WORK/pimalign" -mode allpairs -a "$S" > "$WORK/ap_plain.out" 2>/dev/null
[ -s "$WORK/ap_plain.out" ] || { echo "allpairs output is empty" >&2; exit 1; }
"$WORK/pimalign" -mode allpairs -a "$S" -fleet pim:20,cpu:4 > "$WORK/ap_fleet.out" 2>/dev/null
diff -u "$WORK/ap_plain.out" "$WORK/ap_fleet.out" || {
    echo "allpairs: fleet placement changed an answer" >&2; exit 1; }
"$WORK/pimalign" -mode allpairs -a "$S" -escalation > "$WORK/ap_esc.out" 2>/dev/null
"$WORK/pimalign" -mode allpairs -a "$S" -escalation -fault-rate 0.05 \
    > "$WORK/ap_escf.out" 2> "$WORK/ap_escf.err"
diff -u "$WORK/ap_esc.out" "$WORK/ap_escf.out" || {
    echo "allpairs: injected faults changed an answer" >&2; exit 1; }
grep -q 'fault recovery: [1-9]' "$WORK/ap_escf.err" || {
    echo "allpairs: -fault-rate injected nothing" >&2
    cat "$WORK/ap_escf.err" >&2; exit 1; }
if "$WORK/pimalign" -mode allpair -a "$S" > /dev/null 2>&1; then
    echo "pimalign accepted an unknown -mode" >&2; exit 1
fi

echo "== traceback: 16-bit lanes under auto vs the pinned full-width engine =="
# Under -lanes auto a traceback run is computed in 16-bit lanes with an
# in-engine fallback; -lanes 64 pins the full-width engine. Scores and
# CIGARs must be byte-identical, plain and with clipped pairs climbing the
# ladder (band 64 clips part of this sample).
"$WORK/pimalign" -a "$A" -b "$B" -ranks 2 -band 128 -lanes auto > "$WORK/tb_auto.out" 2>/dev/null
"$WORK/pimalign" -a "$A" -b "$B" -ranks 2 -band 128 -lanes 64 > "$WORK/tb_wide.out" 2>/dev/null
[ -s "$WORK/tb_auto.out" ] || { echo "traceback output is empty" >&2; exit 1; }
diff -u "$WORK/tb_wide.out" "$WORK/tb_auto.out" || {
    echo "traceback: -lanes auto and -lanes 64 disagree" >&2; exit 1; }
"$WORK/pimalign" -a "$A" -b "$B" -ranks 2 -band 64 -escalation -lanes auto \
    > "$WORK/tb_esc_auto.out" 2> "$WORK/tb_esc_auto.err"
"$WORK/pimalign" -a "$A" -b "$B" -ranks 2 -band 64 -escalation -lanes 64 \
    > "$WORK/tb_esc_wide.out" 2>/dev/null
diff -u "$WORK/tb_esc_wide.out" "$WORK/tb_esc_auto.out" || {
    echo "traceback under -escalation: -lanes auto and -lanes 64 disagree" >&2; exit 1; }
grep -q 'escalation: .* [1-9][0-9]* re-dispatches' "$WORK/tb_esc_auto.err" || {
    echo "traceback under -escalation: no pair climbed the ladder" >&2
    cat "$WORK/tb_esc_auto.err" >&2; exit 1; }

echo "== daemon on a random port =="
"$WORK/alignd" -addr 127.0.0.1:0 -addr-file "$WORK/addr" -ranks 2 -band 128 -drain-wait 2s &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "alignd died during startup" >&2; exit 1; }
    [ -s "$WORK/addr" ] && break
    sleep 0.05
done
[ -s "$WORK/addr" ] || { echo "alignd never wrote its address" >&2; exit 1; }
ADDR="$(cat "$WORK/addr")"
echo "   bound to $ADDR"

# Bounded readiness poll: the address file appears when the listener is
# bound, but only /healthz answering marks the serving loop live. A daemon
# that dies mid-boot must fail the poll immediately, not hang it out.
READY=0
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "alignd died before becoming healthy" >&2; exit 1; }
    if curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
        READY=1
        break
    fi
    sleep 0.05
done
[ "$READY" -eq 1 ] || { echo "alignd never became healthy at $ADDR" >&2; exit 1; }

echo "== align over HTTP vs one-shot CLI =="
"$WORK/alignd" -post "http://$ADDR/align" -a "$A" -b "$B" > "$WORK/served.out"
"$WORK/pimalign" -a "$A" -b "$B" -ranks 2 -band 128 > "$WORK/oneshot.out" 2>/dev/null
diff -u "$WORK/oneshot.out" "$WORK/served.out"
[ -s "$WORK/served.out" ] || { echo "served output is empty" >&2; exit 1; }

curl -fsS "http://$ADDR/metrics" -D "$WORK/metrics.hdr" > "$WORK/metrics.txt"
grep -q '^session_pairs_total' "$WORK/metrics.txt" || {
    echo "metrics endpoint missing session counters" >&2; exit 1; }
grep -qi '^Content-Type: text/plain; version=0.0.4; charset=utf-8' "$WORK/metrics.hdr" || {
    echo "metrics endpoint missing the Prometheus content type" >&2
    cat "$WORK/metrics.hdr" >&2; exit 1; }

echo "== trace-ID propagation =="
printf '{"id":0,"a":"ACGTACGTACGT","b":"ACGTACGAACGT"}\n' \
    | curl -fsS -X POST -H 'X-Trace-Id: t-123' --data-binary @- \
        "http://$ADDR/align" > "$WORK/traced.ndjson"
grep -q '"trace_id":"t-123"' "$WORK/traced.ndjson" || {
    echo "NDJSON results missing the posted trace ID" >&2
    cat "$WORK/traced.ndjson" >&2; exit 1; }

echo "== /debug surface =="
curl -fsS "http://$ADDR/debug/vars" > "$WORK/vars.json"
grep -q '"alignd_requests_total"' "$WORK/vars.json" || {
    echo "/debug/vars missing the request counter" >&2; exit 1; }
grep -q '"goroutines"' "$WORK/vars.json" || {
    echo "/debug/vars missing runtime stats" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/flight" > "$WORK/flight.json"
grep -q '"trace_id": "t-123"' "$WORK/flight.json" || {
    echo "/debug/flight missing the traced request's admission" >&2
    cat "$WORK/flight.json" >&2; exit 1; }

echo "== graceful SIGTERM drain =="
kill -TERM "$DAEMON_PID"
# During the -drain-wait window the listener is still up but /healthz
# must advertise draining with 503, so load balancers route away before
# the socket closes.
sleep 0.3
DRAIN_CODE="$(curl -s -o "$WORK/drain.body" -w '%{http_code}' --max-time 2 "http://$ADDR/healthz" || true)"
if [ "$DRAIN_CODE" != "503" ] || ! grep -q 'draining' "$WORK/drain.body"; then
    echo "/healthz during drain = $DRAIN_CODE '$(cat "$WORK/drain.body" 2>/dev/null)', want 503 draining" >&2
    exit 1
fi
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "alignd exited $STATUS on SIGTERM, want 0" >&2
    exit 1
fi

echo "== cache-enabled daemon =="
# Result-cache replay contract: the same FASTA batch served twice by a
# cache-enabled daemon must render byte-identically (hits keep the
# original score, status and provenance — the cache never relabels), the
# raw NDJSON of a replayed pair must carry the cached marker, and after
# a kill -9 the daemon must reopen the WAL and keep serving the same
# answers.
"$WORK/alignd" -addr 127.0.0.1:0 -addr-file "$WORK/addr3" -ranks 2 -band 128 \
    -drain-wait 1s -cache-dir "$WORK/rcache" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "cache-enabled alignd died during startup" >&2; exit 1; }
    [ -s "$WORK/addr3" ] && break
    sleep 0.05
done
[ -s "$WORK/addr3" ] || { echo "cache-enabled alignd never wrote its address" >&2; exit 1; }
ADDR="$(cat "$WORK/addr3")"
for _ in $(seq 1 100); do
    if curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.05
done

echo "== replay the batch twice ($ADDR) =="
"$WORK/alignd" -post "http://$ADDR/align" -a "$A" -b "$B" > "$WORK/run1.out"
"$WORK/alignd" -post "http://$ADDR/align" -a "$A" -b "$B" > "$WORK/run2.out"
diff -u "$WORK/run1.out" "$WORK/run2.out" || {
    echo "cached replay diverged from the first serving" >&2; exit 1; }
[ -s "$WORK/run1.out" ] || { echo "cached run output is empty" >&2; exit 1; }

echo "== cached marker on the wire =="
BODY='{"id":0,"a":"ACGTACGTACGTACGTACGT","b":"ACGTACGAACGTACGTACGT"}'
printf '%s\n' "$BODY" | curl -fsS -X POST -H 'X-Trace-Id: t-cache' \
    --data-binary @- "http://$ADDR/align" > "$WORK/miss.ndjson"
printf '%s\n' "$BODY" | curl -fsS -X POST -H 'X-Trace-Id: t-cache' \
    --data-binary @- "http://$ADDR/align" > "$WORK/hit.ndjson"
grep -q '"cached":true' "$WORK/hit.ndjson" || {
    echo "replayed pair missing the cached marker" >&2
    cat "$WORK/hit.ndjson" >&2; exit 1; }
grep -q '"cached"' "$WORK/miss.ndjson" && {
    echo "first serving of a pair unexpectedly marked cached" >&2; exit 1; }
# Apart from the marker, a hit line is the miss line: same score, same
# status, same provenance.
sed 's/,"cached":true//' "$WORK/hit.ndjson" > "$WORK/hit.stripped"
diff -u "$WORK/miss.ndjson" "$WORK/hit.stripped" || {
    echo "cache hit relabelled the result" >&2; exit 1; }

curl -fsS "http://$ADDR/debug/vars" > "$WORK/cache_vars.json"
grep -q '"cache_hits_total"' "$WORK/cache_vars.json" || {
    echo "/debug/vars missing the cache hit counter" >&2; exit 1; }

echo "== kill -9 and WAL reopen =="
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
rm -f "$WORK/addr3"
"$WORK/alignd" -addr 127.0.0.1:0 -addr-file "$WORK/addr3" -ranks 2 -band 128 \
    -drain-wait 1s -cache-dir "$WORK/rcache" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "alignd died reopening the crashed cache" >&2; exit 1; }
    [ -s "$WORK/addr3" ] && break
    sleep 0.05
done
ADDR="$(cat "$WORK/addr3")"
for _ in $(seq 1 100); do
    if curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.05
done
"$WORK/alignd" -post "http://$ADDR/align" -a "$A" -b "$B" > "$WORK/run3.out"
diff -u "$WORK/run1.out" "$WORK/run3.out" || {
    echo "post-crash serving diverged from the pre-crash answers" >&2; exit 1; }

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "cache-enabled alignd exited $STATUS on SIGTERM, want 0" >&2
    exit 1
fi

echo "== multi-backend fleet daemon =="
# Fleet serving contract: a daemon sharding micro-batches across two
# heterogeneous simulated PiM servers must render byte-identically to
# the single-fabric one-shot CLI (placement moves the modelled timeline,
# never the answers), match a fleet-mode pimalign run, and stamp each
# raw NDJSON result with the backend that served it.
FLEET="pim:2,pim:3@450"
"$WORK/alignd" -addr 127.0.0.1:0 -addr-file "$WORK/addr4" -band 128 \
    -drain-wait 1s -fleet "$FLEET" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "fleet alignd died during startup" >&2; exit 1; }
    [ -s "$WORK/addr4" ] && break
    sleep 0.05
done
[ -s "$WORK/addr4" ] || { echo "fleet alignd never wrote its address" >&2; exit 1; }
ADDR="$(cat "$WORK/addr4")"
for _ in $(seq 1 100); do
    if curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.05
done

echo "== fleet vs one-shot vs fleet CLI ($ADDR) =="
"$WORK/alignd" -post "http://$ADDR/align" -a "$A" -b "$B" > "$WORK/fleet.out"
diff -u "$WORK/oneshot.out" "$WORK/fleet.out" || {
    echo "fleet serving diverged from the single-fabric answers" >&2; exit 1; }
"$WORK/pimalign" -a "$A" -b "$B" -band 128 -fleet "$FLEET" > "$WORK/fleetcli.out" 2>/dev/null
diff -u "$WORK/fleetcli.out" "$WORK/fleet.out" || {
    echo "fleet serving diverged from fleet-mode pimalign" >&2; exit 1; }

echo "== backend provenance on the wire =="
printf '{"id":0,"a":"ACGTACGTACGTACGTACGT","b":"ACGTACGAACGTACGTACGT"}\n' \
    | curl -fsS -X POST --data-binary @- "http://$ADDR/align" > "$WORK/fleet.ndjson"
grep -q '"backend":"pim[01]"' "$WORK/fleet.ndjson" || {
    echo "fleet NDJSON results missing the serving backend" >&2
    cat "$WORK/fleet.ndjson" >&2; exit 1; }

kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "fleet alignd exited $STATUS on SIGTERM, want 0" >&2
    exit 1
fi

echo "ALIGND SMOKE PASS"
