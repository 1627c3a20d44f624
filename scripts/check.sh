#!/usr/bin/env bash
# Tier-1 verification plus the parallel determinism suite.
#
# Runs the repo's standard build + full ctest (the tier-1 gate from
# ROADMAP.md), then re-runs the `parallel`-labeled determinism tests twice:
# once with a single ctest job and once with all cores, so scheduling jitter
# gets a chance to surface any thread-count- or interleaving-dependent
# behavior the property tests are meant to rule out. The `simd`-labeled
# cross-ISA determinism suite then pins each dispatch tier (DESIGN.md §15),
# and the kernel microbench must report bit_identical=1 for every kernel ×
# tier in BENCH_kernels.json. Then runs the `service`-labeled serving-tier
# suite (concurrent clients, cache identity, cancellation), the
# `crash`-labeled kill-point sweeps (DESIGN.md §14) —
# failing if any archive commit left `.staging/` dirs or `COMMIT` journals
# behind — and finally the testkit smoke suites (`oracle` = differential
# query engine, `fuzz` = archive bitstream mutations; DESIGN.md §12),
# failing if they left any testkit_seed_* replay files behind — a leftover
# seed file means a divergence or contract violation was dumped for replay.
# Last, the end-to-end benchmark's smoke test runs every BENCHMARK.json
# workload for one second with its correctness gates (perfbench/README.md).
#
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc)"

echo "== configure + build (${BUILD_DIR}, ${JOBS} jobs) =="
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: full test suite =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== parallel determinism suite, serial ctest (-j 1) =="
ctest --test-dir "${BUILD_DIR}" -L parallel --output-on-failure -j 1

echo "== parallel determinism suite, concurrent ctest (-j ${JOBS}) =="
ctest --test-dir "${BUILD_DIR}" -L parallel --output-on-failure -j "${JOBS}"

echo "== simd suite: cross-ISA-tier determinism =="
ctest --test-dir "${BUILD_DIR}" -L simd --output-on-failure -j "${JOBS}"

echo "== kernel microbench: per-tier bit identity =="
(cd "${BUILD_DIR}" && ./bench/bench_kernels > /dev/null)
if grep -q '"bit_identical": 0' "${BUILD_DIR}/BENCH_kernels.json"; then
  echo "check.sh: BENCH_kernels.json reports a kernel whose output diverges"
  echo "  from the scalar tier (bit_identical: 0):"
  grep '"bit_identical": 0' "${BUILD_DIR}/BENCH_kernels.json"
  exit 1
fi

echo "== service suite: concurrent query service =="
ctest --test-dir "${BUILD_DIR}" -L service --output-on-failure -j "${JOBS}"

echo "== rollup suite: subsumption-checked report serving (DESIGN.md §16) =="
ctest --test-dir "${BUILD_DIR}" -L rollup --output-on-failure -j "${JOBS}"

echo "== rollup forced-off leg: raw-scan fallback keeps the serving suites green =="
SUPREMM_ROLLUP=off ctest --test-dir "${BUILD_DIR}" -L service --output-on-failure -j "${JOBS}"
SUPREMM_ROLLUP=off ctest --test-dir "${BUILD_DIR}" -L rollup --output-on-failure -j "${JOBS}"

echo "== rollup bench: dashboard-mix bit-identity + p50 speedup gate =="
(cd "${BUILD_DIR}" && ./bench/bench_rollup > /dev/null)

echo "== federation suite: sharded scatter-gather determinism (DESIGN.md §17) =="
ctest --test-dir "${BUILD_DIR}" -L federation --output-on-failure -j "${JOBS}"

echo "== federation shard-count legs: each count proved in isolation =="
for nshards in 1 2 5; do
  SUPREMM_FED_SHARDS="${nshards}" ctest --test-dir "${BUILD_DIR}" \
    -L federation -R FederationFuzz --output-on-failure -j "${JOBS}"
done

echo "== federation forced-off rollup leg: raw shard partials only =="
SUPREMM_ROLLUP=off ctest --test-dir "${BUILD_DIR}" -L federation --output-on-failure -j "${JOBS}"

echo "== federation bench: merged scatter-gather bit-identity gate =="
(cd "${BUILD_DIR}" && ./bench/bench_federation > /dev/null)

echo "== federation bench, forced-off rollup leg: raw-scan shard partials =="
(cd "${BUILD_DIR}" && SUPREMM_ROLLUP=off ./bench/bench_federation > /dev/null)

echo "== bench-gate JSONs are checked in at the repo root =="
for bench_json in BENCH_kernels.json BENCH_rollup.json BENCH_federation.json; do
  if [ ! -f "${bench_json}" ]; then
    echo "check.sh: ${bench_json} missing from the repo root — copy the gated"
    echo "  bench output in (cp ${BUILD_DIR}/${bench_json} .) and commit it"
    exit 1
  fi
done

echo "== crash suite: kill-point sweeps + recovery properties =="
ctest --test-dir "${BUILD_DIR}" -L crash --output-on-failure -j "${JOBS}"

LEFTOVER_COMMITS="$(find "${BUILD_DIR}" . -maxdepth 3 \( -name 'COMMIT' -o -name '.staging' \) -print 2>/dev/null | sort -u)"
if [ -n "${LEFTOVER_COMMITS}" ]; then
  echo "check.sh: leftover archive commit staging/journal files (an interrupted"
  echo "  commit was not recovered or a clean commit failed to GC):"
  echo "${LEFTOVER_COMMITS}"
  exit 1
fi

echo "== testkit smoke: oracle differential + archive fuzz =="
ctest --test-dir "${BUILD_DIR}" -L oracle --output-on-failure -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" -L fuzz --output-on-failure -j "${JOBS}"

LEFTOVER_SEEDS="$(find "${BUILD_DIR}" . -maxdepth 2 -name 'testkit_seed_*' -print 2>/dev/null | sort -u)"
if [ -n "${LEFTOVER_SEEDS}" ]; then
  echo "check.sh: leftover testkit replay seed files (replay with"
  echo "  SUPREMM_TESTKIT_REPLAY=<file> ${BUILD_DIR}/tests/test_oracle|test_fuzz_archive):"
  echo "${LEFTOVER_SEEDS}"
  exit 1
fi

echo "== end-to-end benchmark smoke: every workload, gates included =="
python3 perfbench/test_smoke.py

echo "check.sh: all suites passed"
