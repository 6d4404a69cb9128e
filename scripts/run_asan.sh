#!/bin/sh
# AddressSanitizer + UndefinedBehaviorSanitizer gate for the warm-start
# incremental ATPG machinery: -DDFMRES_SANITIZE=address expands to
# address,undefined (see CMakeLists.txt). Runs the suites that exercise
# the simulator-arena rebinding, the cache overlays and the speculative
# ladder (warm_start_test), the core flow (core_test), the engine
# itself (atpg_test), and the copy-on-write probe overlays
# (overlay_test — baseline frame aliasing and the per-batch dirty-slot
# replay are exactly the pointer gymnastics ASan is for), and the DFM
# extractor (dfm_test: flat arrays indexed by net slot and gcell line,
# checked against the reference extractor on every Table-II block). Any
# report aborts with a non-zero exit.
# Usage: scripts/run_asan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target warm_start_test core_test atpg_test overlay_test lease_test \
  dfm_test

# Fail loudly on the first report from either sanitizer.
SAN_ENV="halt_on_error=1 exitcode=66"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/warm_start_test"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/core_test"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/atpg_test"
# The tv80 end-to-end case reruns two full resynthesis searches — far
# too slow under instrumentation; the small-block cases cover the same
# overlay load/discard/rebase code paths.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/overlay_test" --gtest_filter='-OverlayHeavy.*'
# Lease protocol + campaign workers: single-line JSON records, epoch
# path arithmetic and the shard render/parse round-trip are exactly the
# string/buffer handling ASan watches. The fork-heavy resume case runs
# in the regular build (forking an ASan child doubles the shadow).
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/lease_test" --gtest_filter='-CampaignWorkerHeavy.*'
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/dfm_test"

echo "ASan/UBSan: no reports."
