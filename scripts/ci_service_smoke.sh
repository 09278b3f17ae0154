#!/usr/bin/env bash
# CI smoke for the check service: start `ufilter serve` on an ephemeral
# loopback port, drive a scripted client session (catalog add, check,
# batch, checkall fan-out, stats, metrics, shutdown), and fail on any
# non-OK reply, missing Prometheus metric family, or hang. A second phase SIGKILLs a durable (--data-dir) server mid-session
# and asserts the restarted server recovers to byte-identical replies. A
# third phase asserts that, under every --strategy, checking never changes
# the database a check slot holds.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${UFILTER_BIN:-target/release/ufilter}
OUT=$(mktemp)
SCRIPT=$(mktemp)
DATA_DIR=$(mktemp -d)
SERVE_PID=""
SERVE2_PID=""
trap 'rm -f "$OUT" "$SCRIPT"; rm -rf "$DATA_DIR"; \
      kill "$SERVE_PID" 2>/dev/null || true; \
      kill "$SERVE2_PID" 2>/dev/null || true' EXIT

cat > "$SCRIPT" <<'EOF'
ping
add ci_books fixtures/bookview.xq
add ci_stats fixtures/bookstats.xq
list
check ci_books fixtures/u8.xq
check ci_stats fixtures/u_agg.xq
batch fixtures/batch.ubatch
checkall fixtures/u8.xq
metrics
stats
drop ci_books
drop ci_stats
shutdown
EOF

# The many-view manifest exercises real fan-out: checkall must route to a
# strict subset of the 26 registered views.
"$BIN" --schema fixtures/book.sql --views fixtures/views_many.cat \
       --listen 127.0.0.1:0 --workers 2 serve > "$OUT" &
SERVE_PID=$!

for _ in $(seq 1 100); do
    grep -q LISTENING "$OUT" && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: serve died early"; exit 1; }
    sleep 0.1
done
grep -q LISTENING "$OUT" || { echo "FAIL: serve never bound"; exit 1; }
ADDR=$(awk '/^LISTENING/{print $2; exit}' "$OUT")
echo "serve bound at $ADDR"

# The client exits non-zero on any ERR reply; the timeout catches hangs.
CLIENT_OUT=$(timeout 60 "$BIN" client "$ADDR" "$SCRIPT")
echo "$CLIENT_OUT"
if grep -q '^ERR' <<< "$CLIENT_OUT"; then
    echo "FAIL: server sent a non-OK reply"
    exit 1
fi
grep -q 'OK pong' <<< "$CLIENT_OUT" || { echo "FAIL: no PING reply"; exit 1; }
grep -q 'translatable' <<< "$CLIENT_OUT" || { echo "FAIL: no check outcome"; exit 1; }

# The aggregate view must be *served*: the CHECK against it comes back OK
# with the aggregate/Distinct extension's untranslatable reason code — a
# classified outcome, not an ERR (the pre-extension server refused the view
# at CATALOG ADD time).
grep -q 'untranslatable non-injective' <<< "$CLIENT_OUT" \
    || { echo "FAIL: aggregate CHECK did not return the non-injective reason code"; exit 1; }

# The checkall fan-out must report pruning over the many-view catalog.
grep -q '^--- views=' <<< "$CLIENT_OUT" || { echo "FAIL: no checkall END trailer"; exit 1; }
PRUNED=$(sed -n 's/^--- views=[0-9]* candidates=[0-9]* pruned=\([0-9]*\) .*/\1/p' \
         <<< "$CLIENT_OUT" | head -1)
[[ "$PRUNED" =~ ^[0-9]+$ ]] || { echo "FAIL: checkall trailer did not parse"; exit 1; }
# 27 views at checkall time: the 26-view manifest plus ci_books added above.
[ "$PRUNED" -gt 0 ] || { echo "FAIL: checkall pruned nothing over 27 views"; exit 1; }

# The STATS reply must carry the stable-ordered fan-out counters and the
# routing-index gauges, and they must parse as integers (fanout_requests
# counts the one checkall above).
STATS_LINE=$(grep '^OK workers=' <<< "$CLIENT_OUT" | head -1)
for key in fanout_requests candidates pruned fallbacks \
           trie_nodes trie_postings trie_bytes trie_inserts trie_removes; do
    VAL=$(tr ' ' '\n' <<< "$STATS_LINE" | sed -n "s/^${key}=\([0-9]*\)$/\1/p")
    [[ "$VAL" =~ ^[0-9]+$ ]] || { echo "FAIL: STATS ${key} missing or non-numeric"; exit 1; }
    echo "STATS ${key}=${VAL}"
done
FANOUT_REQS=$(tr ' ' '\n' <<< "$STATS_LINE" | sed -n 's/^fanout_requests=\([0-9]*\)$/\1/p')
[ "$FANOUT_REQS" -ge 1 ] || { echo "FAIL: STATS fanout_requests did not count checkall"; exit 1; }
# The routing trie is populated (26-view manifest registered at startup).
TRIE_NODES=$(tr ' ' '\n' <<< "$STATS_LINE" | sed -n 's/^trie_nodes=\([0-9]*\)$/\1/p')
[ "$TRIE_NODES" -ge 1 ] || { echo "FAIL: STATS trie_nodes is zero with views registered"; exit 1; }

# The METRICS scrape (mid-session, after real check/batch/checkall traffic)
# must expose the required Prometheus families with sane values. Helper:
# first whitespace token is the full series name incl. labels.
metric_value() {
    awk -v k="$1" '$1 == k {print $2; exit}' <<< "$CLIENT_OUT"
}
grep -q '^# TYPE ufilter_requests_total counter' <<< "$CLIENT_OUT" \
    || { echo "FAIL: METRICS lacks the ufilter_requests_total family"; exit 1; }
grep -q '^# TYPE ufilter_request_duration_seconds summary' <<< "$CLIENT_OUT" \
    || { echo "FAIL: METRICS lacks the request-latency summary"; exit 1; }
for series in 'ufilter_request_duration_seconds_count{verb="check"}' \
              'ufilter_check_stage_duration_seconds_count{stage="parse"}' \
              'ufilter_check_stage_duration_seconds_count{stage="star"}' \
              'ufilter_route_candidates_count' \
              'ufilter_queue_wait_seconds_count'; do
    VAL=$(metric_value "$series")
    [[ "$VAL" =~ ^[0-9.]+$ ]] || { echo "FAIL: METRICS ${series} missing or non-numeric"; exit 1; }
    awk -v v="$VAL" 'BEGIN { exit !(v >= 1) }' \
        || { echo "FAIL: METRICS ${series}=${VAL}, expected >= 1 after traffic"; exit 1; }
    echo "METRICS ${series}=${VAL}"
done
WORKERS_METRIC=$(metric_value ufilter_workers)
[ "${WORKERS_METRIC%%.*}" = "2" ] \
    || { echo "FAIL: METRICS ufilter_workers=${WORKERS_METRIC}, expected 2"; exit 1; }
P99=$(metric_value 'ufilter_request_duration_seconds{verb="check",quantile="0.99"}')
awk -v v="$P99" 'BEGIN { exit !(v > 0 && v < 60) }' \
    || { echo "FAIL: METRICS check p99=${P99}s is not a sane latency"; exit 1; }
echo "METRICS check p99=${P99}s"

# SHUTDOWN must actually stop the server.
for _ in $(seq 1 300); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: serve still running after SHUTDOWN"
    exit 1
fi
wait "$SERVE_PID"
echo "service smoke OK"

# ---- crash-recovery phase: SIGKILL mid-session, restart warm ------------
# A durable server is killed with SIGKILL (no shutdown snapshot, no flush
# beyond the per-append fsync) and restarted on the same --data-dir. The
# recovered catalog must serve CATALOG LIST and CHECK replies byte-identical
# to the pre-kill session.

"$BIN" --schema fixtures/book.sql --data-dir "$DATA_DIR" \
       --listen 127.0.0.1:0 --workers 2 serve > "$OUT" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q LISTENING "$OUT" && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: durable serve died early"; exit 1; }
    sleep 0.1
done
grep -q LISTENING "$OUT" || { echo "FAIL: durable serve never bound"; exit 1; }
ADDR=$(awk '/^LISTENING/{print $2; exit}' "$OUT")
echo "durable serve bound at $ADDR"

cat > "$SCRIPT" <<'EOF'
add ci_books fixtures/bookview.xq
add ci_stats fixtures/bookstats.xq
EOF
timeout 60 "$BIN" client "$ADDR" "$SCRIPT" > /dev/null

# The probe session replayed verbatim before the kill and after recovery.
cat > "$SCRIPT" <<'EOF'
list
check ci_books fixtures/u8.xq
check ci_stats fixtures/u_agg.xq
EOF
PRE_KILL=$(timeout 60 "$BIN" client "$ADDR" "$SCRIPT")
grep -q '^ERR' <<< "$PRE_KILL" && { echo "FAIL: pre-kill probe got an ERR"; exit 1; }
grep -q 'translatable' <<< "$PRE_KILL" || { echo "FAIL: pre-kill probe has no check outcome"; exit 1; }

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
echo "durable serve killed with SIGKILL"

: > "$OUT"
"$BIN" --schema fixtures/book.sql --data-dir "$DATA_DIR" \
       --listen 127.0.0.1:0 --workers 2 serve > "$OUT" &
SERVE2_PID=$!
for _ in $(seq 1 100); do
    grep -q LISTENING "$OUT" && break
    kill -0 "$SERVE2_PID" 2>/dev/null || { echo "FAIL: restarted serve died early"; exit 1; }
    sleep 0.1
done
grep -q LISTENING "$OUT" || { echo "FAIL: restarted serve never bound"; exit 1; }
grep -q '^RECOVERED' "$OUT" || { echo "FAIL: restarted serve did not report RECOVERED"; exit 1; }
ADDR2=$(awk '/^LISTENING/{print $2; exit}' "$OUT")
echo "restarted serve bound at $ADDR2 ($(grep '^RECOVERED' "$OUT" | head -1))"

POST_KILL=$(timeout 60 "$BIN" client "$ADDR2" "$SCRIPT")
if [ "$PRE_KILL" != "$POST_KILL" ]; then
    echo "FAIL: recovered replies differ from pre-kill replies"
    diff <(echo "$PRE_KILL") <(echo "$POST_KILL") || true
    exit 1
fi
echo "recovered LIST + CHECK replies byte-identical to pre-kill session"

# The recovered store must pass an online integrity check, then stop cleanly.
cat > "$SCRIPT" <<'EOF'
verify
shutdown
EOF
VERIFY_OUT=$(timeout 60 "$BIN" client "$ADDR2" "$SCRIPT")
grep -q '^ERR' <<< "$VERIFY_OUT" && { echo "FAIL: CATALOG VERIFY errored after recovery"; exit 1; }
grep -q '^OK generation=' <<< "$VERIFY_OUT" || { echo "FAIL: no CATALOG VERIFY reply"; exit 1; }
grep -q 'match=yes' <<< "$VERIFY_OUT" \
    || { echo "FAIL: on-disk records do not fold to the live view set"; exit 1; }

for _ in $(seq 1 300); do
    kill -0 "$SERVE2_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE2_PID" 2>/dev/null; then
    echo "FAIL: restarted serve still running after SHUTDOWN"
    exit 1
fi
wait "$SERVE2_PID" 2>/dev/null || true
echo "crash-recovery smoke OK"

# ---- strategy-drift phase: a check never changes its slot's database ----
# One check slot per server, so every request runs on the same database
# clone and probe cache. U9 deletes the books over $40; if checking it
# changed the slot's database, the second U13 (a review inserted under
# book 98003) would be answered differently from the first.
cat > "$SCRIPT" <<'EOF'
add ci_books fixtures/bookview.xq
check ci_books fixtures/u13.xq
check ci_books fixtures/u9.xq
check ci_books fixtures/u13.xq
shutdown
EOF
for STRATEGY in outside hybrid internal; do
    : > "$OUT"
    "$BIN" --schema fixtures/book.sql --strategy "$STRATEGY" \
           --listen 127.0.0.1:0 --workers 1 serve > "$OUT" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        grep -q LISTENING "$OUT" && break
        kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: $STRATEGY serve died early"; exit 1; }
        sleep 0.1
    done
    grep -q LISTENING "$OUT" || { echo "FAIL: $STRATEGY serve never bound"; exit 1; }
    ADDR=$(awk '/^LISTENING/{print $2; exit}' "$OUT")
    DRIFT_OUT=$(timeout 60 "$BIN" client "$ADDR" "$SCRIPT") \
        || { echo "FAIL: $STRATEGY session got an ERR"; echo "$DRIFT_OUT"; exit 1; }
    mapfile -t CHECKS < <(grep '^ci_books: ' <<< "$DRIFT_OUT")
    [ "${#CHECKS[@]}" -eq 3 ] \
        || { echo "FAIL: $STRATEGY: expected 3 check replies"; echo "$DRIFT_OUT"; exit 1; }
    [[ "${CHECKS[0]}" == "ci_books: translatable "* ]] \
        || { echo "FAIL: $STRATEGY: U13 not translatable: ${CHECKS[0]}"; exit 1; }
    if [ "${CHECKS[0]}" != "${CHECKS[2]}" ]; then
        echo "FAIL: $STRATEGY: U13 answered differently after checking U9"
        diff <(echo "${CHECKS[0]}") <(echo "${CHECKS[2]}") || true
        exit 1
    fi
    wait "$SERVE_PID"
    echo "strategy $STRATEGY: U13 replies byte-identical around U9"
done
echo "strategy-drift smoke OK"

# ---- route-scale phase: 10k-view trie build + warm route ratio ----------
# Bounded scale check on the shared path-trie router: build a 10^4-view
# signature catalog into the trie AND the legacy linear index, route a
# 50-update stream plus each family's last-partition key through both, and
# fail on any candidate-set divergence (the binary exits non-zero on
# mismatch). Both indexes are timed warm in one process, so their ratio
# does not depend on the host's speed: the trie must route at least 300x
# faster than the linear walk.
FIGS=${PAPER_FIGURES_BIN:-target/release/paper-figures}
SMOKE=$(timeout 120 "$FIGS" routesmoke --n 10000 --updates 50)
echo "$SMOKE"
grep -q '^route-smoke OK n=10000 updates=50 ' <<< "$SMOKE" \
    || { echo "FAIL: route-scale smoke did not report OK"; exit 1; }
NODES=$(tr ' ' '\n' <<< "$SMOKE" | sed -n 's/^trie_nodes=\([0-9]*\)$/\1/p')
[ "$NODES" -ge 1 ] || { echo "FAIL: route-scale smoke built an empty trie"; exit 1; }
TRIE_US=$(tr ' ' '\n' <<< "$SMOKE" | sed -n 's/^trie_us=\([0-9.]*\)$/\1/p')
LINEAR_US=$(tr ' ' '\n' <<< "$SMOKE" | sed -n 's/^linear_us=\([0-9.]*\)$/\1/p')
[[ "$TRIE_US" =~ ^[0-9.]+$ && "$LINEAR_US" =~ ^[0-9.]+$ ]] \
    || { echo "FAIL: route-scale smoke lacks trie_us/linear_us"; exit 1; }
RATIO=$(awk -v t="$TRIE_US" -v l="$LINEAR_US" 'BEGIN { printf "%.1f", (t > 0 ? l / t : 1e9) }')
awk -v r="$RATIO" 'BEGIN { exit !(r >= 300) }' \
    || { echo "FAIL: warm trie routes only ${RATIO}x faster than the linear walk (need >= 300x)"; exit 1; }
echo "route-scale smoke OK (linear/trie = ${RATIO}x)"
