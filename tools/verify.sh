#!/usr/bin/env bash
# CI driver: configure, build, and test the three configurations that
# must stay green —
#   default       RelWithDebInfo, metrics off by default, fault hooks on
#   asan-metrics  ASan+UBSan with the metrics registry enabled
#   nometrics     metrics AND fault hooks compiled out (stub paths)
# then a Release (-O3 -DNDEBUG) build runs the perf smoke + thread
# scaling gates, re-recording the repo-root BENCH_*.json snapshots.
# Usage: tools/verify.sh [preset ...]   (defaults to all three)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-metrics nometrics)
fi

declare -A preset_dirs=(
  [default]=build [release]=build-release [asan]=build-asan
  [asan-metrics]=build-asan-metrics [nometrics]=build-nometrics
)

# Crash-point enumeration (storage/crash_campaign.h): every device I/O
# of a commit workload is crashed — hard fail and torn write — and
# recovery must land on a committed state with zero leaked pages. Runs
# on every fault-enabled preset (crashloop self-reports a skip on
# nometrics, where the hooks are compiled out) and on BOTH PageDevice
# kinds — the two campaigns must produce byte-identical summaries,
# since the devices write the same format and the recovery invariants
# cannot depend on which one backed the store. The one-line JSON
# summaries are gated through json_check like the bench exports.
run_crashloop() {
  local preset="$1" dir="${preset_dirs[$1]:-build}"
  [ -x "$dir/tools/crashloop" ] || return 0
  local device
  for device in file mmap; do
    echo "==== [$preset] crash campaign ($device device) ===="
    local out="$dir/CRASHLOOP_${preset}_${device}.json"
    "$dir/tools/crashloop" --device="$device" \
      "$dir/crashloop_scratch.bin" | tee "$out"
    "$dir/tools/json_check" "$out"
    rm -f "$dir/crashloop_scratch.bin"
  done
  # Byte-identical apart from the self-describing "device" field.
  diff <(sed 's/"device": "[a-z]*", //' \
             "$dir/CRASHLOOP_${preset}_file.json") \
       <(sed 's/"device": "[a-z]*", //' \
             "$dir/CRASHLOOP_${preset}_mmap.json") || {
    echo "crashloop: file and mmap campaigns diverged"
    return 1
  }
}

# Device smoke: re-run the device-parameterized spill/store/epoch
# suites selecting one PageDevice kind at a time (the suites are
# TEST_P over StoreDeviceKind; the instantiation names the params
# "file" and "mmap", so a --device choice maps to a gtest filter).
# ctest already ran both params interleaved — this pass proves each
# kind also holds up in isolation, which is how modbd deploys it.
run_device_smoke() {
  local preset="$1" dir="${preset_dirs[$1]:-build}"
  [ -x "$dir/tests/device_param_test" ] || return 0
  local device
  for device in file mmap; do
    echo "==== [$preset] device smoke (--device=$device) ===="
    "$dir/tests/device_param_test" --gtest_filter="*/${device}" \
      --gtest_brief=1
    "$dir/tests/epoch_pin_test" --gtest_filter="*/${device}" \
      --gtest_brief=1
  done
}

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$jobs"
  run_device_smoke "$preset"
  run_crashloop "$preset"
done

# Perf smoke on a Release (-O3 -DNDEBUG) build: export the key
# query/batch benchmarks to repo-root BENCH_*.json snapshots and gate
# them with bench_compare — >15% cpu_time growth on any benchmark that
# also exists in the previous snapshot fails, same as a test failure.
# bench_compare --require-release rejects records whose JSON context was
# not stamped by a release binary, so the snapshots can never silently
# drift back to a debug build.
release_dir=build-release
run_perf_smoke() {
  local name="$1" binary="$2" filter="$3"
  local out="BENCH_${name}.json"
  local prev=""
  if [ -f "$out" ]; then
    prev="$(mktemp)"
    cp "$out" "$prev"
  fi
  "$release_dir/bench/${binary}" \
    --benchmark_filter="$filter" \
    --benchmark_min_time=0.1 \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json
  "$release_dir/tools/json_check" "$out"
  if [ -n "$prev" ]; then
    "$release_dir/tools/bench_compare" "$prev" "$out" --require-release
    rm -f "$prev"
  else
    "$release_dir/tools/bench_compare" --require-release "$out"
    echo "perf-smoke: no previous $out snapshot, regression gate skipped"
  fi
}

echo "==== [release] configure + build (perf smoke) ===="
cmake --preset release
cmake --build --preset release -j "$jobs" \
  --target bench_queries bench_batch bench_scaling bench_storage \
  bench_compare json_check

echo "==== perf smoke (release build) ===="
run_perf_smoke queries bench_queries \
  'BM_Q1_TrajectoryLength/64|BM_Q2_Join_RTree/64|BM_Q2_Join_RTree_Prebuilt/64|BM_Q2_IndexJoin_Db/1024|BM_WindowAggregate|BM_BatchKinds_Db|BM_EncodeResultBlock|BM_DecodeResultBlock'
run_perf_smoke batch bench_batch \
  'BM_AtInstant_Batch/10000/1024|BM_AtInstant_Batch/16384/16384'

# Storage device gate: warm page-granular scans through the buffer pool
# on both PageDevice kinds, plus the 4-thread epoch-pinned reader bench.
# bench_compare --storage enforces the single-threaded warm mmap/file
# ratio floor (1.5x) unconditionally — it is honest on any host — and
# warn-skips the reader throughput floor below 4 CPUs.
run_perf_smoke storage bench_storage \
  'BM_Serialize_MovingPoint/256|BM_SpilledScanWarm|BM_SpilledScanCold|BM_SpilledBlobScanWarm|BM_EpochPinnedReaders'
"$release_dir/tools/bench_compare" --storage BENCH_storage.json \
  --require-release

# Thread-scaling sweep + gate: the pipelined Select+Join plan must hit
# 2x at 4 threads vs 1 on hosts with >= 4 CPUs (bench_compare warns and
# skips on smaller hosts — the floor would be dishonest there).
echo "==== scaling sweep (release build) ===="
"$release_dir/bench/bench_scaling" \
  --modb_threads=1,2,4,8 \
  --benchmark_min_time=0.1 \
  --benchmark_format=json \
  --benchmark_out=BENCH_scaling.json \
  --benchmark_out_format=json
"$release_dir/tools/json_check" BENCH_scaling.json
"$release_dir/tools/bench_compare" --scaling BENCH_scaling.json \
  --require-release

# Serving smoke (release build): modbd, loadgen and chaosproxy end to
# end (tools/serve_smoke.sh lists its checks): serving --verify, the
# overload probe, ingest --verify, SIGTERM drain plus recovery, and
# chaos. It re-records the repo-root BENCH_serving.json and
# BENCH_ingest.json snapshots, gated by bench_compare --serving/--ingest
# --require-release. ctest runs the same script at small sizes.
echo "==== serving smoke (release build) ===="
cmake --build --preset release -j "$jobs" --target modbd loadgen chaosproxy
tools/serve_smoke.sh "$release_dir" . full

echo "==== all presets green: ${presets[*]} ===="
