#!/usr/bin/env sh
# One-command local gate mirroring CI: determinism lint -> clang-tidy ->
# build -> ctest -> benchmark self-test. Stops at the first failure.
# clang-tidy is skipped with a notice when not installed (the custom lint
# and the test suite still run); CI always runs it. The last step builds
# bench_rep from benchmark/ into build-bench/ and runs
# benchmark/selftest.sh, as CI's perf-smoke job does, so a src/ change
# that breaks the benchmark's build or any results digest fails here.
#
# Usage: tools/check.sh [build-dir]      (default: build)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-build}
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

cd "$repo"

echo "== configure ($build) =="
cmake -B "$build" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== reqblock-lint (determinism gate, empty baseline) =="
cmake --build "$build" -j "$jobs" --target reqblock-lint
"$build"/tools/reqblock-lint/reqblock-lint src bench examples

echo "== clang-tidy =="
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p "$build" -quiet "src/.*\.cc$"
elif command -v clang-tidy >/dev/null 2>&1; then
  # No run-clang-tidy wrapper: drive clang-tidy directly over src/.
  find src -name '*.cc' -exec clang-tidy -p "$build" -quiet {} +
else
  echo "clang-tidy not installed; skipping (CI runs it)"
fi

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== benchmark (build-bench, selftest) =="
cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-bench -j "$jobs" --target bench_rep
bash benchmark/selftest.sh

echo "check.sh: all gates passed"
