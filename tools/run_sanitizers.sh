#!/usr/bin/env bash
# Configures a sanitizer build (AddressSanitizer + UBSan by default, with
# float-cast-overflow, which GCC's -fsanitize=undefined leaves out) and
# runs the full test suite under it. Any sanitizer report fails the run:
# UBSan is made halt-on-error and ASan aborts on the first bad access.
#
# Usage:
#   tools/run_sanitizers.sh             # address;undefined;float-cast-overflow
#   tools/run_sanitizers.sh "thread"    # a different sanitizer list
#   BUILD_DIR=build-tsan tools/run_sanitizers.sh "thread"
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address;undefined;float-cast-overflow}"
BUILD_DIR="${BUILD_DIR:-build-sanitize}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCONDENSA_SANITIZE="${SANITIZERS}" \
  -DCONDENSA_BUILD_BENCHMARKS=OFF \
  -DCONDENSA_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
echo "sanitizer run (${SANITIZERS}) passed"
