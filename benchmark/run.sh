#!/usr/bin/env bash
# Builds the benchmark (../src plus bench_rep) into build-bench/ at the
# repository root, then runs the harness, benchmark/run.py, with the same
# arguments. The build log goes to stderr so that the last line of stdout
# stays the harness's result. See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" -j "$jobs" --target bench_rep
} 1>&2
exec python3 "$root/benchmark/run.py" --bench-rep "$build/bench_rep" "$@"
