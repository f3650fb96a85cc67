#!/usr/bin/env bash
# Serving smoke: modbd, loadgen and chaosproxy end to end over the wire.
#
#   tools/serve_smoke.sh BUILD_DIR OUT_DIR [full|small]
#
# BUILD_DIR is a build tree with modbd, loadgen, chaosproxy, json_check
# and bench_compare built; OUT_DIR receives BENCH_serving.json and
# BENCH_ingest.json. Logs, stores and /metrics dumps go to
# BUILD_DIR/serve_smoke/. "small" (the ctest registration) ingests fewer
# fixes than "full" (the default, which tools/verify.sh runs on the
# release build). bench_compare adds --require-release when BUILD_DIR is
# a Release tree, and the dedup counter check is skipped when BUILD_DIR
# compiled the metrics registry out.
#
# Checks, in order:
#   serving   loadgen --verify: every reply byte-identical to an
#             in-process Db; json_check + bench_compare --serving gate
#             the snapshot; SIGTERM drains modbd to exit 0, and a
#             loadgen whose connection the drain severs exits non-zero.
#   overload  a 1-thread budget with no queue under 2-thread requests
#             yields typed rejections only.
#   ingest    a store-backed live relation; loadgen streams fixes while
#             clients query, then --verify byte-compares every query kind
#             with a local replay; json_check + bench_compare --ingest.
#   drain     SIGTERM mid-ingest: modbd still exits 0, loadgen reports
#             the severed stream, and restarts recover the store.
#   chaos     the same loop through chaosproxy's stalls and resets:
#             exactly-once ingest, dedup re-acks, proxy = direct = local
#             replay, and ingest.dedup_hits > 0 in /metrics.
#   flags     loadgen rejects non-positive sizes with exit 2 in every
#             mode, before connecting to anything.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR [full|small]" >&2
  exit 2
fi
build="$1"
out="$2"
sizes="${3:-full}"
case "$sizes" in
  full) ingest_fixes=2048 chaos_fixes=1024 ;;
  small) ingest_fixes=512 chaos_fixes=256 ;;
  *) echo "serve_smoke: unknown size '$sizes' (full|small)" >&2; exit 2 ;;
esac
bin="$build/tools"
work="$build/serve_smoke"
mkdir -p "$work" "$out"

gate=()
if grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$build/CMakeCache.txt"; then
  gate=(--require-release)
fi
metrics_on=1
if grep -q '^MODB_METRICS:BOOL=OFF$' "$build/CMakeCache.txt"; then
  metrics_on=0
fi

serving_pid=""
chaos_pid=""
loadgen_pid=""
cleanup() {
  local pid
  for pid in "$serving_pid" "$chaos_pid" "$loadgen_pid"; do
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
  done
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: $*" >&2
  exit 1
}

# Starts modbd with the given flags and sets modbd_port from its
# "modbd listening on HOST:PORT" line.
start_modbd() {
  local log="$1"
  shift
  "$bin/modbd" "$@" > "$log" &
  serving_pid=$!
  modbd_port=""
  for _ in $(seq 1 100); do
    modbd_port=$(sed -n 's/^modbd listening on .*:\([0-9][0-9]*\)$/\1/p' "$log")
    [ -n "$modbd_port" ] && return 0
    kill -0 "$serving_pid" 2>/dev/null || break
    sleep 0.1
  done
  cat "$log"
  fail "modbd failed to start"
}

# SIGTERM drains modbd; it must exit 0.
stop_modbd() {
  kill -TERM "$serving_pid"
  wait "$serving_pid"
  serving_pid=""
}

echo "==== serving smoke ===="
start_modbd "$work/modbd.log" --port=0
"$bin/loadgen" --port="$modbd_port" --clients=2 --requests=10 \
  --verify --out="$out/BENCH_serving.json" --metrics-out="$work/metrics.json"
"$bin/json_check" "$out/BENCH_serving.json"
"$bin/json_check" "$work/metrics.json"
"$bin/bench_compare" --serving "$out/BENCH_serving.json" "${gate[@]}"
"$bin/loadgen" --port="$modbd_port" --clients=1 --requests=100000 \
  --out="$work/BENCH_serving_severed.json" > "$work/loadgen_severed.log" 2>&1 &
loadgen_pid=$!
sleep 0.5
stop_modbd
if wait "$loadgen_pid"; then
  loadgen_pid=""
  cat "$work/loadgen_severed.log"
  fail "loadgen did not report the connection the drain severed"
fi
loadgen_pid=""

echo "==== overload smoke ===="
start_modbd "$work/modbd_overload.log" --port=0 \
  --thread-budget=1 --queue-capacity=0
"$bin/loadgen" --port="$modbd_port" --clients=4 --requests=10 \
  --num-threads=2 --expect-rejections \
  --out="$work/BENCH_serving_overload.json"
stop_modbd

echo "==== ingest smoke ===="
fleet_store="$work/fleet.store"
rm -f "$fleet_store"
start_modbd "$work/modbd_ingest.log" --port=0 \
  --live=fleet --store="$fleet_store" --merge-interval-ms=100
"$bin/loadgen" --ingest --port="$modbd_port" \
  --objects=8 --fixes="$ingest_fixes" --batch=32 --clients=2 --verify \
  --out="$out/BENCH_ingest.json"
"$bin/json_check" "$out/BENCH_ingest.json"
"$bin/bench_compare" --ingest "$out/BENCH_ingest.json" "${gate[@]}"
stop_modbd

echo "==== drain smoke ===="
start_modbd "$work/modbd_drain.log" --port=0 \
  --live=fleet --store="$fleet_store" --merge-interval-ms=100
grep -q "modbd recovered epoch" "$work/modbd_drain.log" || {
  cat "$work/modbd_drain.log"
  fail "modbd did not recover the ingest store"
}
"$bin/loadgen" --ingest --port="$modbd_port" \
  --objects=8 --fixes=65536 --batch=16 --clients=1 --t0=10000 \
  --out="$work/BENCH_ingest_drain.json" > "$work/loadgen_drain.log" 2>&1 &
loadgen_pid=$!
sleep 0.7  # let the ingest stream get going, then cut it mid-flight
stop_modbd
if wait "$loadgen_pid" ||
   ! grep -q "first error: ingest batch [0-9]*: transport" \
     "$work/loadgen_drain.log"; then
  loadgen_pid=""
  cat "$work/loadgen_drain.log"
  fail "loadgen did not report the ingest stream the drain severed"
fi
loadgen_pid=""
start_modbd "$work/modbd_recover.log" --port=0 \
  --live=fleet --store="$fleet_store"
grep -q "modbd recovered epoch" "$work/modbd_recover.log" || {
  cat "$work/modbd_recover.log"
  fail "modbd did not recover after the mid-ingest drain"
}
stop_modbd
rm -f "$fleet_store"

echo "==== chaos smoke ===="
chaos_store="$work/chaos_fleet.store"
rm -f "$chaos_store"
start_modbd "$work/modbd_chaos.log" --port=0 \
  --live=fleet --store="$chaos_store" --merge-interval-ms=100
"$bin/chaosproxy" --target-port="$modbd_port" --seed=42 \
  --stall-every=17 --reset-every=97 > "$work/chaosproxy.log" &
chaos_pid=$!
chaos_port=""
for _ in $(seq 1 100); do
  chaos_port=$(sed -n 's/^chaosproxy listening on .*:\([0-9][0-9]*\)$/\1/p' \
    "$work/chaosproxy.log")
  [ -n "$chaos_port" ] && break
  kill -0 "$chaos_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$chaos_port" ]; then
  cat "$work/chaosproxy.log"
  fail "chaosproxy failed to start"
fi
"$bin/loadgen" --chaos --port="$chaos_port" \
  --direct-port="$modbd_port" --objects=8 --fixes="$chaos_fixes" --batch=32 \
  --clients=2 --verify --metrics-out="$work/chaos_metrics.json"
"$bin/json_check" "$work/chaos_metrics.json"
if [ "$metrics_on" -eq 1 ]; then
  dedup_hits=$(sed -n 's/.*"ingest\.dedup_hits": *\([0-9][0-9]*\).*/\1/p' \
    "$work/chaos_metrics.json")
  if [ -z "$dedup_hits" ] || [ "$dedup_hits" -eq 0 ]; then
    fail "expected ingest.dedup_hits > 0, got '${dedup_hits:-absent}'"
  fi
fi
kill "$chaos_pid"
wait "$chaos_pid" || true
chaos_pid=""
stop_modbd
rm -f "$chaos_store"

echo "==== bad-flag smoke ===="
for bad in --clients=-1 --clients=0 --requests=0 --timeout-ms=0 \
           --objects=0 --fixes=-1 --batch=0; do
  for mode in "" --ingest "--chaos --direct-port=1"; do
    rc=0
    # shellcheck disable=SC2086  # $mode is zero or more flags
    "$bin/loadgen" --port=1 $mode "$bad" > "$work/loadgen_flags.log" 2>&1 \
      || rc=$?
    [ "$rc" -eq 2 ] || fail "loadgen $mode $bad exited $rc, want 2"
  done
done

trap - EXIT
echo "==== serve smoke passed ($sizes) ===="
