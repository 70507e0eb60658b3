#!/usr/bin/env bash
# End-to-end smoke for the campaign service daemon (docs/SERVICE.md).
#
# Drives the real binaries the way an operator would and checks the
# headline contracts:
#   1. the daemon comes up and answers /healthz;
#   2. a campaign submitted over HTTP returns report bytes identical to
#      campaign_cli --json for the same (preset, config, runs, seed),
#      including a seed past 2^63;
#   3. the same submission over the framed wire transport returns the
#      same bytes (and hits the result cache);
#   4. hostile requests are answered, not dropped: a Content-Length of -1
#      gets 400, a body over the 1 MiB cap gets 413, and the daemon keeps
#      serving afterwards;
#   5. SIGTERM drains gracefully: in-flight work is spooled, the daemon
#      exits 0, and a restarted daemon replays the spool.
#
# Usage: tools/service_smoke.sh <build-dir>   (e.g. ./build)
set -euo pipefail

BUILD=${1:?usage: service_smoke.sh <build-dir>}
DAEMON="$BUILD/examples/campaign_service"
SUBMIT="$BUILD/examples/campaign_submit"
CLI="$BUILD/examples/campaign_cli"

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cat > "$WORK/cfg.json" <<'EOF'
{"n_uavs": 2, "n_persons": 2, "max_time_s": 150.0}
EOF

# --- 1. daemon up -----------------------------------------------------------
"$DAEMON" --http-port 0 --wire-port 0 --executors 2 --spool "$WORK/spool" \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^listening' "$WORK/daemon.log" && break
  sleep 0.2
done
HTTP_PORT=$(grep -oE 'http=[0-9]+' "$WORK/daemon.log" | cut -d= -f2)
WIRE_PORT=$(grep -oE 'wire=[0-9]+' "$WORK/daemon.log" | cut -d= -f2)
[ -n "$HTTP_PORT" ] && [ -n "$WIRE_PORT" ] || fail "daemon did not bind"
curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null || fail "healthz"
echo "ok: daemon up (http=$HTTP_PORT wire=$WIRE_PORT)"

# --- 2. HTTP submission is byte-identical to campaign_cli -------------------
"$CLI" --preset nominal --config "$WORK/cfg.json" --runs 2 --seed 7 --jobs 2 \
  --json "$WORK/cli.json" >/dev/null
"$SUBMIT" --port "$HTTP_PORT" --preset nominal --config "$WORK/cfg.json" \
  --runs 2 --seed 7 --out "$WORK/http.json" 2>/dev/null
cmp "$WORK/cli.json" "$WORK/http.json" \
  || fail "HTTP report differs from campaign_cli bytes"
echo "ok: HTTP report byte-identical to campaign_cli"
# Seeds past 2^63 as well: both CLIs parse the whole uint64 range, as the
# service's JSON path does.
MAX_SEED=18446744073709551615
"$CLI" --preset nominal --config "$WORK/cfg.json" --runs 1 --seed $MAX_SEED \
  --json "$WORK/cli_max.json" >/dev/null
"$SUBMIT" --port "$HTTP_PORT" --preset nominal --config "$WORK/cfg.json" \
  --runs 1 --seed $MAX_SEED --out "$WORK/http_max.json" 2>/dev/null
cmp "$WORK/cli_max.json" "$WORK/http_max.json" \
  || fail "seed $MAX_SEED: HTTP report differs from campaign_cli bytes"
grep -q "\"seed\":\"$MAX_SEED\"}" "$WORK/http_max.json" \
  || fail "seed $MAX_SEED not in the report"
echo "ok: seed $MAX_SEED byte-identical over HTTP and campaign_cli"

# --- 3. wire submission: same bytes, served from the cache ------------------
"$SUBMIT" --port "$WIRE_PORT" --transport wire --preset nominal \
  --config "$WORK/cfg.json" --runs 2 --seed 7 \
  --out "$WORK/wire.json" 2> "$WORK/wire.log"
cmp "$WORK/cli.json" "$WORK/wire.json" \
  || fail "wire report differs from campaign_cli bytes"
grep -q cache_hit "$WORK/wire.log" \
  || fail "repeat submission did not hit the result cache"
curl -fsS "http://127.0.0.1:$HTTP_PORT/metrics" \
  | grep -q sesame_service_cache_hits_total || fail "cache metric missing"
echo "ok: wire report byte-identical and cache hit recorded"

# --- 4. bad Content-Length -> 400, oversized body -> 413, still serving -----
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Length: -1' \
  "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns")
[ "$CODE" = 400 ] || fail "Content-Length: -1 got $CODE, want 400"
head -c 1048577 /dev/zero > "$WORK/big.bin"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'Expect: 100-continue' \
  --data-binary @"$WORK/big.bin" "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns")
[ "$CODE" = 413 ] || fail "1 MiB + 1 body got $CODE, want 413"
curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null \
  || fail "daemon stopped serving after hostile requests"
echo "ok: hostile requests answered 400/413, daemon still serving"

# --- 5. graceful drain spools in-flight work --------------------------------
curl -fsS -X POST "http://127.0.0.1:$HTTP_PORT/api/v1/campaigns" \
  -d '{"preset": "nominal", "runs": 500, "seed": 99}' >/dev/null
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited non-zero on SIGTERM"
DAEMON_PID=""
ls "$WORK/spool/"*.json >/dev/null 2>&1 || fail "drain left no spool file"
echo "ok: drain spooled the in-flight campaign"

"$DAEMON" --http-port 0 --wire-port 0 --spool "$WORK/spool" \
  > "$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do
  grep -q '^listening' "$WORK/daemon2.log" && break
  sleep 0.2
done
grep -q 'replayed 1 spooled' "$WORK/daemon2.log" \
  || fail "restart did not replay the spool"
kill -TERM "$DAEMON_PID" && wait "$DAEMON_PID" || true
DAEMON_PID=""
echo "ok: restart replayed the spool"

echo "service smoke passed"
