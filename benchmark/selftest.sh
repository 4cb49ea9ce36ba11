#!/usr/bin/env bash
# Self-test of the benchmark, about ten seconds once built:
#   1. the smoke suite (every workload at 1/50 size, every check on) passes;
#   2. every exported span file is valid JSON;
#   3. the one-workload form prints a correct result with every per-layer
#      metric;
#   4. a perturbed golden file fails the run and names the workload;
#   5. a directory holding only BENCHMARK.json and benchmark/ fails without
#      printing a result;
#   6. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"
run="$root/benchmark/run.sh"
export PYTHONDONTWRITEBYTECODE=1
fail() { echo "selftest: FAIL: $*" >&2; exit 1; }
mkdir -p "$out"

echo "== 1. smoke suite"
start=$SECONDS
"$run" --smoke --reps 5 > "$out/selftest-smoke.log" 2>&1 ||
  { cat "$out/selftest-smoke.log"; fail "smoke suite failed"; }
echo "smoke suite passed in $((SECONDS - start)) s"

echo "== 2. span export"
for w in policy-sweep read-scan gc-churn soak-full; do
  python3 -m json.tool "$out/$w.spans.json" > /dev/null ||
    fail "$w.spans.json is not valid JSON"
done

echo "== 3. one-workload form"
line="$("$run" --workload soak-full --seed 7 --seconds 1 --trace 1 --smoke \
  2>/dev/null | tail -n 1)"
python3 - "$root" "$line" <<'EOF' || fail "one-workload result is wrong"
import json, sys
bench = json.load(open(sys.argv[1] + "/BENCHMARK.json"))
res = json.loads(sys.argv[2])
want = {m["name"] for m in bench["per_layer"]}
assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4, res
assert set(res["metrics"]) == want, set(res["metrics"]) ^ want
EOF

echo "== 4. perturbed golden"
python3 - "$root" <<'EOF'
import json, sys
root = sys.argv[1]
golden = json.load(open(root + "/benchmark/golden.json"))
d = golden["smoke"]["gc-churn"]
golden["smoke"]["gc-churn"] = d[:-1] + ("0" if d[-1] != "0" else "1")
json.dump(golden, open(root + "/benchmark/out/perturbed-golden.json", "w"))
EOF
if "$run" --smoke --reps 1 --golden "$out/perturbed-golden.json" \
    > "$out/selftest-negative.log" 2>&1; then
  fail "a perturbed golden file did not fail the run"
fi
grep -q "FAILED gc-churn .*golden" "$out/selftest-negative.log" ||
  fail "the failing run did not name gc-churn"

echo "== 5. benchmark files alone"
rm -rf "$out/bare"
mkdir -p "$out/bare/benchmark"
cp "$root/BENCHMARK.json" "$out/bare/"
find "$root/benchmark" -maxdepth 1 -type f -exec cp {} "$out/bare/benchmark/" \;
if (cd "$out/bare" && bash benchmark/run.sh --workload gc-churn --seed 1 \
    --seconds 1 --trace 0 > "$out/selftest-bare.log" 2>/dev/null); then
  fail "the benchmark ran without the simulator sources"
fi
if grep -q '"correct"' "$out/selftest-bare.log"; then
  fail "the bare run printed a result"
fi
rm -rf "$out/bare"

echo "== 6. BENCHMARK.json matches run.py"
python3 - "$root" <<'EOF' || fail "BENCHMARK.json and run.py disagree"
import json, sys
sys.path.insert(0, sys.argv[1] + "/benchmark")
import run
b = json.load(open(sys.argv[1] + "/BENCHMARK.json"))
assert [w["name"] for w in b["workloads"]] == run.WORKLOADS
assert [(m["name"], m["unit"], m["better"], m["bound"])
        for m in b["end_to_end"]] == run.END_TO_END
assert [(m["name"], m["unit"], m["better"])
        for m in b["per_layer"]] == run.PER_LAYER
EOF
echo "selftest: all passed"
