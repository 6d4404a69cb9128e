#!/bin/sh
# Standalone UndefinedBehaviorSanitizer gate (-DDFMRES_SANITIZE=undefined)
# for the paths that parse untrusted or on-disk bytes: the Verilog
# front-end (verilog_test), the checkpoint journal reader and the
# cancellation machinery (resilience_test), plus the netlist core they
# feed (netlist_test), and the PODEM search (atpg_test: the per-search
# subgraph's index arithmetic and bitset shifts), and the DFM extractor
# (dfm_test: net-slot bitset shifts and flat per-net, per-line and
# per-gcell indexing). Narrower and much
# faster than the combined ASan+UBSan build in run_asan.sh; any report
# aborts with a non-zero exit. Usage: scripts/run_ubsan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target verilog_test netlist_test resilience_test atpg_test dfm_test

# Fail loudly on the first report.
SAN_ENV="halt_on_error=1 exitcode=66"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/verilog_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/netlist_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/resilience_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/atpg_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/dfm_test"

echo "UBSan: no reports."
