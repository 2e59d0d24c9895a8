#!/usr/bin/env bash
# End-to-end server smoke: boot a proust-server, drive it with
# proust-loadgen (closed loop, zipfian skew, a MULTI share), and require
# zero protocol errors, zero lost updates, and a drained shutdown.
# The loadgen binary exits non-zero on any anomaly, so this script is a
# pass/fail gate as well as a report producer.
#
# Also gates the telemetry pipeline: the Prometheus endpoint must serve
# the required metric families, the commit counter must move across the
# load run, and a TRACE START/DUMP round-trip must yield a Chrome trace
# document with phase spans (validated by the proust-obs example).
#
# The ordered map gets its own round trip: OPUT seeds two keys, and SCAN
# must return exactly the keys inside the half-open range, in order. The
# load run then carries a SCAN share so range scans race point writes.
#
# The binary wire gets three legs of its own: a loadgen --selftest on each
# wire (round-trips every opcode, including BATCH and ORD_SCAN, through
# the real codec), a 1000-connection open-loop soak over the binary
# protocol with a p999 budget (the reactor's readiness path under fan-in),
# and — in kill-recover mode — the mid-load SIGKILL drill itself runs over
# the binary wire, so WAL acknowledgement bounds are exercised end-to-end
# through the frame codec.
#
# Usage: scripts/server_smoke.sh [json-out] [-- server flags...]
#        scripts/server_smoke.sh --kill-recover
#   SMOKE_SECS / SMOKE_THREADS override the run length and client count.
#   SMOKE_SOAK_CONNS overrides the soak's connection count (0 disables).
#   KILL_SEED seeds the kill-recover timing (printed, reproducible).
#
# --kill-recover is the durability gate: a WAL-backed server is SIGKILLed
# mid-load, restarted, and the recovered counters are checked against the
# load generator's client-side ack journal (no acknowledged update lost,
# no phantom update visible). A drain-then-checkpoint shutdown must bound
# the next restart's replay to zero, and a --chaos-torn-tail restart must
# detect and truncate the injected torn tail.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE=smoke
if [[ "${1:-}" == "--kill-recover" ]]; then
    MODE=kill-recover
    shift
fi

JSON_OUT="${1:-}"
shift || true
if [[ "${1:-}" == "--" ]]; then shift; fi
SERVER_FLAGS=("$@")

SECS="${SMOKE_SECS:-2}"
THREADS="${SMOKE_THREADS:-8}"
SOAK_CONNS="${SMOKE_SOAK_CONNS:-1000}"

# The connection soak holds $SOAK_CONNS sockets on each side; lift the
# soft fd limit toward the hard limit where the default (often 1024)
# would otherwise starve the accept loop mid-soak.
if (( SOAK_CONNS > 0 )); then
    ulimit -n $(( SOAK_CONNS * 4 )) 2>/dev/null || true
fi

cargo build --release -q -p proust-server -p proust-loadgen
cargo build --release -q -p proust-obs --example validate_chrome_trace

if [[ "$MODE" == "kill-recover" ]]; then
    SEED="${KILL_SEED:-51966}"
    KILL_MS=$(( 500 + SEED % 1200 ))
    echo "kill-recover: seed $SEED (kill after ${KILL_MS}ms; rerun: KILL_SEED=$SEED $0 --kill-recover)"

    DATA_DIR="$(mktemp -d)"
    JOURNAL="$(mktemp)"
    LOG="$(mktemp)"
    SERVER_PID=""
    trap 'kill -9 "$SERVER_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"; rm -f "$JOURNAL" "$LOG"' EXIT

    # Start (or restart) the durable server; fills ADDR/METRICS/RECOVERY_*.
    start_server() {
        : >"$LOG"
        ./target/release/proust-server --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
            --data-dir "$DATA_DIR" "$@" >"$LOG" &
        SERVER_PID=$!
        ADDR=""; METRICS=""
        for _ in $(seq 1 100); do
            ADDR="$(sed -n 's/^LISTENING //p' "$LOG" | head -n1)"
            METRICS="$(sed -n 's/^METRICS //p' "$LOG" | head -n1)"
            [[ -n "$ADDR" && -n "$METRICS" ]] && break
            sleep 0.1
        done
        [[ -n "$ADDR" && -n "$METRICS" ]] || { echo "server never came up; log:" >&2; cat "$LOG" >&2; exit 1; }
        RECOVERY_LINE="$(sed -n 's/^RECOVERY //p' "$LOG" | head -n1)"
        [[ -n "$RECOVERY_LINE" ]] || { echo "durable server printed no RECOVERY line" >&2; exit 1; }
        RECOVERY_REPLAYED="$(sed -n 's/.*replayed=\([0-9]*\).*/\1/p' <<<"$RECOVERY_LINE")"
        RECOVERY_TRUNCATED="$(sed -n 's/.*truncated_bytes=\([0-9]*\).*/\1/p' <<<"$RECOVERY_LINE")"
        RECOVERY_TORN="$(sed -n 's/.*torn_tails=\([0-9]*\).*/\1/p' <<<"$RECOVERY_LINE")"
        echo "kill-recover: RECOVERY $RECOVERY_LINE"
    }

    scrape_metric() { # family name -> integer value (summed)
        exec 9<>"/dev/tcp/${METRICS%:*}/${METRICS##*:}"
        printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$METRICS" >&9
        local body
        body="$(sed -e '1,/^\r\{0,1\}$/d' <&9 | tr -d '\r')"
        exec 9>&- 9<&-
        awk -v fam="$1" '$1 == fam {sum += $2} END {print int(sum)}' <<<"$body"
    }

    graceful_shutdown() {
        exec 8<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
        printf 'SHUTDOWN\r\n' >&8
        cat <&8 >/dev/null || true
        exec 8>&- 8<&-
        wait "$SERVER_PID"
        grep -q "shutdown: drained" "$LOG" || {
            echo "server did not report a drained shutdown" >&2
            exit 1
        }
    }

    verify_journal() {
        ./target/release/proust-loadgen --addr "$ADDR" --verify-journal "$JOURNAL"
    }

    # Phase 1: load with an ack journal, SIGKILL mid-run. The loadgen must
    # tolerate the cut and exit clean (its journal is the artifact). The
    # drill runs over the binary wire so the ack-journal bounds cover the
    # frame codec's acknowledgement path, not just the text protocol.
    start_server
    ./target/release/proust-loadgen --addr "$ADDR" --threads "$THREADS" --secs 30 \
        --binary --inc-frac 0.4 --seed "$SEED" --ack-journal "$JOURNAL" \
        --tolerate-disconnect --quiet &
    LOADGEN_PID=$!
    sleep "$(awk -v ms="$KILL_MS" 'BEGIN {printf "%.3f", ms / 1000}')"
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null || true
    wait "$LOADGEN_PID" || { echo "loadgen did not tolerate the kill" >&2; exit 1; }
    ACKS="$(grep -c '^ACK ' "$JOURNAL" || true)"
    (( ACKS > 0 )) || { echo "no acknowledged INCs before the kill (seed $SEED too fast?)" >&2; exit 1; }
    echo "kill-recover: $ACKS acknowledged INCs journaled before the kill"

    # Phase 2: restart, replay, verify the ack-journal bounds.
    start_server
    (( RECOVERY_REPLAYED > 0 )) || { echo "recovery replayed nothing after a mid-load kill" >&2; exit 1; }
    REPLAYED_METRIC="$(scrape_metric proust_recovery_replayed_total)"
    (( REPLAYED_METRIC > 0 )) || { echo "proust_recovery_replayed_total is zero after recovery" >&2; exit 1; }
    verify_journal

    # Phase 3: drain-then-checkpoint shutdown must bound the next replay
    # to zero while preserving the exact recovered state. Nothing crashed
    # this time, so the live segment's preallocated padding must not read
    # as a tear. (Phase 2 cannot assert this: a SIGKILL may split a write.)
    graceful_shutdown
    start_server
    (( RECOVERY_REPLAYED == 0 )) || { echo "checkpoint did not bound replay (replayed=$RECOVERY_REPLAYED)" >&2; exit 1; }
    (( RECOVERY_TORN == 0 && RECOVERY_TRUNCATED == 0 )) || {
        echo "clean restart reported a torn tail (torn_tails=$RECOVERY_TORN truncated_bytes=$RECOVERY_TRUNCATED)" >&2
        exit 1
    }
    CKPT_LSN="$(scrape_metric proust_wal_checkpoint_lsn)"
    (( CKPT_LSN > 0 )) || { echo "no checkpoint recorded after a drained shutdown" >&2; exit 1; }
    verify_journal
    graceful_shutdown

    # Phase 4: torn-tail self-test — inject a CRC-corrupt partial record,
    # and recovery must detect it, truncate it, and keep every committed
    # update. If the CRC gate ever stops biting, this leg goes red.
    start_server --chaos-torn-tail
    (( RECOVERY_TORN == 1 )) || { echo "injected torn tail was not detected (torn_tails=$RECOVERY_TORN)" >&2; exit 1; }
    (( RECOVERY_TRUNCATED > 0 )) || { echo "torn tail detected but nothing truncated" >&2; exit 1; }
    TORN_METRIC="$(scrape_metric proust_wal_torn_tails_total)"
    (( TORN_METRIC == 1 )) || { echo "proust_wal_torn_tails_total=$TORN_METRIC, expected 1" >&2; exit 1; }
    verify_journal
    graceful_shutdown

    echo "kill-recover OK (seed $SEED; $ACKS acked INCs survived SIGKILL, checkpoint bounded replay, torn tail truncated)"
    exit 0
fi

LOG="$(mktemp)"
TRACE_JSON="$(mktemp)"
./target/release/proust-server --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
    ${SERVER_FLAGS[@]+"${SERVER_FLAGS[@]}"} >"$LOG" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$LOG" "$TRACE_JSON"' EXIT

# The server binds :0 and prints the real addresses; poll for them.
ADDR=""
METRICS=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^LISTENING //p' "$LOG" | head -n1)"
    METRICS="$(sed -n 's/^METRICS //p' "$LOG" | head -n1)"
    [[ -n "$ADDR" && -n "$METRICS" ]] && break
    sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "server never printed LISTENING" >&2; exit 1; }
[[ -n "$METRICS" ]] || { echo "server never printed METRICS" >&2; exit 1; }

# Raw-bash Prometheus scrape: GET /metrics, strip the HTTP head.
scrape() {
    exec 9<>"/dev/tcp/${METRICS%:*}/${METRICS##*:}"
    printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$METRICS" >&9
    sed -e '1,/^\r\{0,1\}$/d' <&9 | tr -d '\r'
    exec 9>&- 9<&-
}

# Every family the golden header file pins must be present before any
# load arrives: the server writes every header unconditionally, so the
# pre-load scrape already carries them all. One list, shared with
# crates/server/tests/golden.rs.
BASELINE_SCRAPE="$(scrape)"
FAMILIES="$(awk '$1 == "#" && $2 == "TYPE" { print $3 }' crates/server/tests/golden/prometheus_headers.txt)"
[[ -n "$FAMILIES" ]] || { echo "no families in the golden header file" >&2; exit 1; }
for fam in $FAMILIES; do
    grep -q "^# TYPE $fam " <<<"$BASELINE_SCRAPE" || {
        echo "metrics endpoint is missing family $fam" >&2
        exit 1
    }
done

# Flight-recorder round trip: sample everything, commit a write, and the
# dump must be a loadable Chrome trace with phase spans. The ops are
# acknowledged before TRACE DUMP is sent, so their spans are retained.
exec 8<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'TRACE START 1\r\nPUT __smoke_trace 1\r\nGET __smoke_trace\r\n' >&8
for _ in 1 2 3; do IFS= read -r _ <&8; done
printf 'TRACE DUMP\r\nTRACE STOP\r\nQUIT\r\n' >&8
sed -n 's/^TRACE //p' <&8 | head -n1 | tr -d '\r' >"$TRACE_JSON"
exec 8>&- 8<&-
./target/release/examples/validate_chrome_trace "$TRACE_JSON"

# With sampling at 1, the dump must also carry the request-lifecycle
# waterfall: a "request" envelope span plus nested stage spans.
for span in request stm_exec resp_encode; do
    grep -q "\"name\": *\"$span\"" "$TRACE_JSON" || grep -q "\"name\":\"$span\"" "$TRACE_JSON" || {
        echo "TRACE DUMP carries no $span waterfall span" >&2
        exit 1
    }
done

# Ordered-map SCAN round trip: seed two keys, then a half-open range scan
# must return both in key order, and shrinking the range by one must drop
# exactly the excluded upper bound.
exec 8<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'OPUT __smoke_scan 5 50\r\nOPUT __smoke_scan 9 90\r\nSCAN __smoke_scan 0 10\r\nSCAN __smoke_scan 0 9\r\nQUIT\r\n' >&8
IFS= read -r _ <&8; IFS= read -r _ <&8
IFS= read -r SCAN_FULL <&8; IFS= read -r SCAN_HALF <&8
exec 8>&- 8<&-
SCAN_FULL="${SCAN_FULL%$'\r'}"; SCAN_HALF="${SCAN_HALF%$'\r'}"
[[ "$SCAN_FULL" == "VALUE 2 5=50 9=90" ]] || {
    echo "SCAN round trip returned '$SCAN_FULL', expected 'VALUE 2 5=50 9=90'" >&2
    exit 1
}
[[ "$SCAN_HALF" == "VALUE 1 5=50" ]] || {
    echo "SCAN upper bound is not exclusive: got '$SCAN_HALF', expected 'VALUE 1 5=50'" >&2
    exit 1
}

# Opcode round trip on both wires: the selftest drives every verb
# (including MULTI/BATCH, ORD_SCAN, STATS, and a validation error that
# must not wedge the connection) through the real client codecs.
./target/release/proust-loadgen --addr "$ADDR" --selftest
./target/release/proust-loadgen --addr "$ADDR" --selftest --binary

COMMITS_BEFORE="$(awk '$1 == "proust_txn_commits_total" {print int($2)}' <<<"$(scrape)")"

LOADGEN_ARGS=(--addr "$ADDR" --threads "$THREADS" --secs "$SECS"
              --dist zipfian --theta 0.99 --multi-frac 0.1
              --scan-frac 0.1 --scan-span 16
              --metrics-addr "$METRICS")
[[ -n "$JSON_OUT" ]] && LOADGEN_ARGS+=(--json "$JSON_OUT")
./target/release/proust-loadgen "${LOADGEN_ARGS[@]}"

# The load must be visible to Prometheus: commits moved, and the per-op
# latency histograms now have series.
AFTER_SCRAPE="$(scrape)"
COMMITS_AFTER="$(awk '$1 == "proust_txn_commits_total" {print int($2)}' <<<"$AFTER_SCRAPE")"
if (( COMMITS_AFTER <= COMMITS_BEFORE )); then
    echo "proust_txn_commits_total did not increase across the load run" >&2
    echo "  before=$COMMITS_BEFORE after=$COMMITS_AFTER" >&2
    exit 1
fi
grep -q '^proust_request_latency_ns_bucket{' <<<"$AFTER_SCRAPE" || {
    echo "no per-op latency histogram series after the load run" >&2
    exit 1
}

# Every request-waterfall stage must have accumulated samples under
# load, and the commit-batch occupancy histogram must have series.
for stage in sock_read parse batch_wait stm_exec wal_append fsync_wait resp_encode sock_flush; do
    STAGE_COUNT="$(awk -v s="proust_request_stage_ns_count{stage=\"$stage\"}" '$1 == s {print int($2)}' <<<"$AFTER_SCRAPE")"
    (( STAGE_COUNT > 0 )) || {
        echo "proust_request_stage_ns{stage=\"$stage\"} recorded no samples under load" >&2
        exit 1
    }
done
grep -q '^proust_batch_occupancy_bucket{' <<<"$AFTER_SCRAPE" || {
    echo "no batch-occupancy histogram series after the load run" >&2
    exit 1
}

# Contention counters must move under a zipfian multi-writer load: a run
# this skewed has to either queue on a lock (lock_waits) or abort on a
# conflict. Parks and serial escalations may legitimately stay zero in a
# short run, so only the always-firing pair is asserted.
CONTENTION="$(awk '$1 == "proust_lock_waits_total" || index($1, "proust_txn_conflicts_total{") == 1 {sum += $2} END {print int(sum)}' <<<"$AFTER_SCRAPE")"
if (( CONTENTION <= 0 )); then
    echo "contention counters did not move under load (lock_waits + conflicts = $CONTENTION)" >&2
    exit 1
fi

# The reactor must have been woken (inbox doorbells, readiness events)
# and seen every connection the run opened.
WAKEUPS="$(awk '$1 == "proust_reactor_wakeups_total" {sum += $2} END {print int(sum)}' <<<"$AFTER_SCRAPE")"
(( WAKEUPS > 0 )) || { echo "proust_reactor_wakeups_total did not move under load" >&2; exit 1; }

# Open-loop connection soak over the binary wire: hold $SOAK_CONNS
# concurrent connections against the same server, offered load pinned
# well below the closed-loop ceiling, and require zero anomalies plus a
# bounded p999. This is the readiness path's gate: a thread-per-
# connection design would not survive it on a CI runner.
if (( SOAK_CONNS > 0 )); then
    ./target/release/proust-loadgen --addr "$ADDR" --binary \
        --mode open --rate 2000 --threads 4 --connections "$SOAK_CONNS" \
        --secs "$SECS" --p999-budget-us 500000 --metrics-addr "$METRICS"
    SOAK_SCRAPE="$(scrape)"
    SOAK_TOTAL="$(awk '$1 == "proust_connections_total" {print int($2)}' <<<"$SOAK_SCRAPE")"
    (( SOAK_TOTAL >= SOAK_CONNS )) || {
        echo "server counted $SOAK_TOTAL connections, soak opened $SOAK_CONNS" >&2
        exit 1
    }
fi

# Shut the server down ourselves (the loadgen run left it up so the
# post-load scrape above had a live endpoint).
exec 8<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'SHUTDOWN\r\n' >&8
cat <&8 >/dev/null || true
exec 8>&- 8<&-

# The server must exit cleanly after draining in-flight transactions.
wait "$SERVER_PID"
grep -q "shutdown: drained" "$LOG" || {
    echo "server did not report a drained shutdown" >&2
    exit 1
}
echo "server smoke OK (${SERVER_FLAGS[*]:-default config}; commits +$((COMMITS_AFTER - COMMITS_BEFORE)))"
