#!/bin/sh
# ThreadSanitizer gate for the fault-simulation thread pool: configures a
# dedicated -DDFMRES_SANITIZE=thread build tree and runs the suites
# that drive the pool (atpg_test exercises the parallel sweeps in
# run_atpg, sim_test the shared simulation substrate, campaign_test the
# multi-job scheduler) plus the pool's own unit tests. Any data race
# aborts with a TSan report and a non-zero exit.
# Usage: scripts/run_tsan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target atpg_test sim_test util_test observability_test campaign_test \
  overlay_test lease_test ready_queue_test

# TSAN_OPTIONS: fail loudly, first report wins.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  "$BUILD_DIR/tests/util_test" --gtest_filter='ThreadPool.*:Logging.*'
# ReadyQueue: the serve daemon's MPMC dispatch queue. The stress suite
# mixes try_/blocking push/pop from many producers and consumers; any
# racy cell handoff shows up here. (serve_test itself is fork-based and
# stays out of TSan, like the other fork-driven suites.)
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/ready_queue_test"
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/atpg_test"
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/sim_test"
# Tracer buffers + cross-worker span propagation and the metrics locks.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  "$BUILD_DIR/tests/observability_test"
# Campaign scheduler: job runners racing the shared pool, cancellation
# fan-out, and metrics-shard merging. The standalone bit-identity
# comparison is skipped here (it reruns full flows; identity is covered
# by the regular build), the concurrent-jobs paths are not.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/campaign_test" \
  --gtest_filter='-CampaignHeavy.JobsAreBitIdenticalToStandaloneRuns'
# Probe overlays: overlay loads feed the parallel sweep workers through
# load_from frame aliasing, so races here would corrupt detect masks.
# The tv80 end-to-end case is far too slow under instrumentation; the
# small-block cases drive the same load/discard/rebase paths.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/overlay_test" \
  --gtest_filter='-OverlayHeavy.*'
# Lease protocol: racing claim threads and the HeartbeatKeeper refresh
# thread against the claim-scoped cancel token. The fork-based resume
# case is excluded (fork + TSan runtime do not mix).
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/lease_test" \
  --gtest_filter='-CampaignWorkerHeavy.*'

echo "TSan: no data races detected."
