#!/usr/bin/env bash
# One CI soak leg for any trace_replay or run_matrix flag set:
#   1. two runs with the same flags write byte-identical results CSVs (and
#      per-tenant CSVs), which contain PATTERN: the leg's subsystem fired;
#   2. a run checkpointing every 4000 requests is SIGKILLed once its first
#      checkpoint exists; rerun, it resumes to byte-identical CSVs and
#      leaves no temp file in its checkpoint directory.
#
# Usage: tools/soak_leg.sh NAME PATTERN TENANTS DRIVER [flags...]
#
# NAME prefixes the CSVs and the checkpoint directory, written to the
# current directory. TENANTS is "tenant-csv" to also write and compare
# per-tenant CSVs, or "-". DRIVER is taken from build/examples/.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
name=$1 pattern=$2 tenants=$3
driver="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/build/examples/$4"
shift 4
flags=("$@")

# replay OUT [flags...]: sets `cmd` to the run writing OUT.csv (and
# OUT_tenants.csv). Callers run "${cmd[@]}" themselves, so a backgrounded
# run's $! is the driver's own pid.
replay() {
  cmd=("$driver" "${flags[@]}" "${@:2}" --csv "$1.csv")
  if [ "$tenants" = tenant-csv ]; then
    cmd+=(--tenant-csv "$1_tenants.csv")
  fi
}

# same A B: runs A and B wrote byte-identical CSVs.
same() {
  cmp "$1.csv" "$2.csv"
  if [ "$tenants" = tenant-csv ]; then cmp "$1_tenants.csv" "$2_tenants.csv"; fi
}

replay "${name}_a" && "${cmd[@]}"
replay "${name}_b" && "${cmd[@]}"
same "${name}_a" "${name}_b"
grep -q -- "$pattern" "${name}_a"*.csv

ckpt="${name}_ckpt"
rm -rf "$ckpt"
replay "${name}_never" --checkpoint-dir "$ckpt" --checkpoint-every-n 4000
"${cmd[@]}" &
pid=$!
until ls "$ckpt"/*.ckpt.* >/dev/null 2>&1; do
  kill -0 "$pid"  # fails the leg if the run ended before a checkpoint
  sleep 0.1
done
kill -9 "$pid"
wait "$pid" || true
test ! -f "${name}_never.csv"  # died before writing results
replay "${name}_resumed" --checkpoint-dir "$ckpt" --checkpoint-every-n 4000
"${cmd[@]}"
same "${name}_a" "${name}_resumed"
# The wait loop's glob also matches a checkpoint's temp file, so the kill
# can land mid-save; the resumed run deletes what such a save left.
if ls "$ckpt"/*.tmp.* >/dev/null 2>&1; then
  echo "soak_leg: $name: temp files left in $ckpt:" "$ckpt"/*.tmp.* >&2
  exit 1
fi
echo "soak_leg: $name: same-seed runs and the resumed run are byte-identical"
