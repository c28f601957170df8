#!/usr/bin/env bash
# Runs the full quality gate from ARCHITECTURE.md: the tier-1 build + test suite, the
# simbench smoke (scripts/simbench_smoke.sh), the ASan/UBSan (and Leak) build of the unit
# tests, and a TSan build exercising the campaign worker pool. All must be clean before
# merging. CI runs --tier1-only and the simbench smoke and sanitizers as their own steps.
#
# Usage: scripts/check.sh [--tier1-only]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== tier 1: build + ctest ==="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== bench smoke: event core before/after ==="
./build/bench/micro_event_queue --smoke --json=BENCH_event_queue.json
echo "wrote BENCH_event_queue.json"

echo "=== bench smoke: journey recorder overhead gate ==="
# Exits nonzero when --journeys costs more CPU time than its documented budget.
./build/bench/micro_packet_path --smoke --json=BENCH_packet_path.json
echo "wrote BENCH_packet_path.json"

echo "=== bench smoke: fabric simulated shard-seconds per wall second vs shard count ==="
./build/bench/micro_fabric --smoke --json=BENCH_fabric.json
echo "wrote BENCH_fabric.json"

echo "=== fabric determinism: campaign --jobs=1 vs --jobs=4 byte-diff ==="
# Fabric cells with journeys on (cross-shard Detach/Adopt) must merge byte-identically for
# any worker count. jobs=4 is pinned (not nproc) so the worker threads run even on a
# single-core host.
fabric_smoke() {
  ./build/tools/ctms_sim --experiment=campaign --cell-experiment=fabric --rings=8 \
      --stations-per-ring=16 --fabric-topology=ring-of-rings --journeys \
      --grid='seed=1:4' --duration=3 --jobs="$1" --metrics-json="$2" > /dev/null
}
fabric_smoke 1 fabric-jobs1.json
fabric_smoke 4 fabric-jobs4.json
diff fabric-jobs1.json fabric-jobs4.json
rm -f fabric-jobs1.json fabric-jobs4.json
echo "fabric campaign merges byte-identical across jobs"

echo "=== bench smoke: per-class source rate models ==="
# Exits nonzero if a media class's generated packet rate drifts from its descriptor.
./build/bench/micro_source --smoke --json=BENCH_source.json
echo "wrote BENCH_source.json"

echo "=== mediamix determinism: campaign --jobs=1 vs --jobs=4 byte-diff ==="
# A mixed-class campaign cell (heterogeneous media-class workload and the per-class QoE
# rows) must merge byte-identically for any worker count, like every other cell kind.
mediamix_smoke() {
  ./build/tools/ctms_sim --experiment=campaign --cell-experiment=mediamix \
      --mix=voice:2+vbr:1+bulk:1 --grid='seed=1:4' --duration=1 \
      --jobs="$1" --metrics-json="$2" > /dev/null
}
mediamix_smoke 1 mediamix-jobs1.json
mediamix_smoke 4 mediamix-jobs4.json
diff mediamix-jobs1.json mediamix-jobs4.json
rm -f mediamix-jobs1.json mediamix-jobs4.json
echo "mediamix campaign merges byte-identical across jobs"

echo "=== bench smoke: FEC encode/repair correctness gate ==="
# Exits nonzero when an XOR reconstruction mismatches or the recovery engines miss a loss.
./build/bench/micro_recovery --smoke --json=BENCH_recovery.json
echo "wrote BENCH_recovery.json"

echo "=== recovery determinism: faultsweep --jobs=1 vs --jobs=4 byte-diff ==="
# Every recovery family swept, same seed, any cell-worker count: the exported degradation
# curve (and the recovery frontier columns) must be byte-identical. A diff here means a
# recovery engine leaked scheduling nondeterminism into a cell.
recovery_smoke() {
  ./build/tools/ctms_sim --experiment=faultsweep --recovery=none,resend,fec,hybrid \
      --sweep-levels=2 --duration=2 \
      --jobs="$1" --metrics-json="$2" > /dev/null
}
recovery_smoke 1 recovery-jobs1.json
recovery_smoke 4 recovery-jobs4.json
diff recovery-jobs1.json recovery-jobs4.json
rm -f recovery-jobs1.json recovery-jobs4.json
echo "recovery faultsweep byte-identical across jobs"

echo "=== bench regression: fresh results vs committed trajectory seeds ==="
# The gate first proves it can catch an injected regression, then holds every fresh
# BENCH_*.json written by the smokes above against the committed seed in bench/trajectory/
# (full-mode numbers — see bench/trajectory/README.md). Tolerances are direction-aware and
# wide enough for the smoke-vs-full and shared-runner variance; a legitimate perf change
# ships with its deliberately regenerated seed.
python3 scripts/bench_regression.py --self-test
for f in BENCH_event_queue.json BENCH_packet_path.json BENCH_fabric.json \
         BENCH_source.json BENCH_recovery.json; do
  python3 scripts/bench_regression.py "bench/trajectory/$f" "$f"
done

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "=== tier 1 clean (simbench smoke and sanitizers skipped) ==="
  exit 0
fi

echo "=== simbench smoke: every workload correct, events per packet exact ==="
scripts/simbench_smoke.sh

echo "=== sanitizers: ASan + UBSan + LSan ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build build-asan -j "$(nproc)" --target ctms_tests
./build-asan/tests/ctms_tests

echo "=== sanitizers: TSan (campaign/faultsweep worker loop) ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan -j "$(nproc)" --target ctms_tests ctms_sim_cli
# The campaign and faultsweep tests run the shared ParallelFor worker loop (jobs up to 8)
# from both of its callers, with ctms, mediamix and fabric cells; the CLI runs below pin
# scenario, faultsweep and fabric cells end to end at --jobs=4.
./build-tsan/tests/ctms_tests --gtest_filter='Campaign*:FaultSweep*:Fabric*'
./build-tsan/tools/ctms_sim --experiment=campaign --grid='seed=1:4' --jobs=4 --duration=1 \
    > /dev/null
./build-tsan/tools/ctms_sim --experiment=faultsweep --sweep-levels=2 --duration=2 --jobs=4 \
    > /dev/null
./build-tsan/tools/ctms_sim --experiment=campaign --cell-experiment=fabric --rings=8 \
    --stations-per-ring=16 --fabric-topology=ring-of-rings --journeys --grid='seed=1:4' \
    --duration=3 --jobs=4 > /dev/null

echo "=== all gates clean ==="
