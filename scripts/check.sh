#!/usr/bin/env bash
# Tier-1 verification: configure + build + full ctest + the loopback
# integration check (psc_serve/psc_client round-trip), then rebuild the
# index windows, the align kernels plus the store/service/net layers
# under ASan/UBSan (PSC_ENABLE_SANITIZERS) and rerun their tests, so the
# clipped window copies and striped transpose, the SIMD kernel's
# lane loads/stores, the mmap-backed index views (including the
# corrupted-file rejection paths), and the wire-frame parsers (including
# the malformed-frame rejection paths) are memory-checked.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== tier 1: step-3 kernel shoot-out bench builds =="
cmake --build build -j "$jobs" --target step3_kernels

echo "== tier 1: board-residency bench builds =="
cmake --build build -j "$jobs" --target board_residency

echo "== tier 1: loopback integration check =="
scripts/loopback_check.sh build

echo "== tier 1: sharding equivalence check =="
scripts/shard_check.sh build

echo "== tier 1: cluster fan-out check (router vs unsharded) =="
scripts/cluster_check.sh build

echo "== tier 1: multi-tenant check (quotas + fair scheduler) =="
scripts/tenant_check.sh build

echo "== tier 1: live-ingest check (append+refresh vs full rebuild) =="
scripts/ingest_check.sh build

echo "== sanitizers: index/align/core/rasc/store/service/net/cluster tests under ASan/UBSan =="
cmake -B build-asan -S . \
  -DPSC_ENABLE_SANITIZERS=ON \
  -DPSC_BUILD_BENCH=OFF \
  -DPSC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$jobs" --target index_test align_test core_test \
  rasc_test store_test service_test net_test cluster_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure \
  -R '^(index|align|core|rasc|store|service|net|cluster)_test$'

echo "== sanitizers: board cache + scheduler focused run under ASan =="
# The board cache is shared mutable state across worker passes and the
# scheduler reorders the worker's own queue; keep both memory-checked
# even if the suite regexes above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/rasc_test --gtest_filter='BoardCache.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/service_test --gtest_filter='BoardScheduler.*'

echo "== sanitizers: step-3 kernel equality focused run under ASan =="
# Redundant with the suite runs above on purpose: the bit-identity
# property (every kernel tier x worker count x barrier/overlap path)
# must stay memory-checked even if the suites above are reshuffled.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/align_test --gtest_filter='GappedSimd.*'
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/core_test --gtest_filter='Step3Kernels.*'

echo "== sanitizers: executor/overlap/service/net/cluster tests under TSan =="
# net_test covers the completion hook: a service or router thread
# signals the server loop's waker, including after Server::stop().
cmake -B build-tsan -S . \
  -DPSC_ENABLE_SANITIZERS=thread \
  -DPSC_BUILD_BENCH=OFF \
  -DPSC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$jobs" --target util_test core_test \
  service_test net_test cluster_test
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure \
  -R '^(util|core|service|net|cluster)_test$'

echo "== sanitizers: router admission slot, repeated under TSan =="
# The fan-out worker frees its admission slot before readying the reply;
# a caller woken by the reply must find the slot free.
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ./build-tsan/tests/cluster_test \
  --gtest_filter='RouterTest.ClusterAdmissionCapRejectsFastNotQueues' \
  --gtest_repeat=50

echo "== sanitizers: step-3 kernel equality (incl. overlap path) under TSan =="
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ./build-tsan/tests/core_test --gtest_filter='Step3Kernels.*'

echo "== sanitizers: board scheduler byte-identity under TSan =="
# The affinity scheduler changes which thread touches the board cache
# when; the byte-identity property tests drive the full worker loop.
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
  ./build-tsan/tests/service_test --gtest_filter='BoardScheduler.*'

echo "== all checks passed =="
