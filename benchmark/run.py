#!/usr/bin/env python3
"""Replay benchmark harness for the req-block simulator.

Runs bench_rep (built by run.sh) in fresh single-threaded child processes,
one repetition ("rep") per child, and turns the reps into the end-to-end
and per-layer metrics below. Every rep is checked, and a rep that fails a
check is a failed op, with the check named:
  * at the workload's default seed, the results-CSV digest (plus the
    tenant CSV on soak-full) equals golden.json;
  * the digest is the same in every rep, traced or not;
  * the traced rep's direct-drive counters equal the session's;
  * soak-full: serialize -> deserialize -> serialize is byte-equal.

One workload (the form BENCHMARK.json's command uses):

    benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke]

  With --seed, one rep runs first at the default seed: it is checked
  against golden.json and its simulated results are the sim_* metrics.
  --trace 1 then runs one traced rep and reports the per-layer metrics
  instead of the end-to-end ones. Then untraced reps run back to back (at
  least two) until the next one would end more than S seconds after the
  start.
  The last line of stdout is one JSON object: correct, attempted, failed,
  metrics. --smoke runs every rep at 1/10 size.

The whole suite:

    benchmark/run.sh [--seed N] [--reps 5] [--smoke] [--golden FILE]

  --reps untraced reps of every workload, round-robin across workloads,
  then one traced rep each (plus a default-seed rep each, as above, when
  --seed is given). Prints every metric by name and unit, writes
  benchmark/out/results.json, and exits 1 if any check failed.

--write-golden records the default-seed digests (full and smoke size) into
golden.json; do that only for a change meant to alter simulated results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ["policy-sweep", "read-scan", "gc-churn", "soak-full"]
POLICIES = ["lru", "fifo", "lfu", "cflru", "fab", "bplru", "vbbms",
            "reqblock"]

# (name, unit, better, bound); BENCHMARK.json mirrors these and selftest.sh
# checks that the two agree.
END_TO_END = [
    ("replay_rps", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.12),
    ("sim_hit_ratio", "ratio", "higher", 0.0),
    ("sim_resp_mean_ms", "sim_ms", "lower", 0.0),
    ("sim_resp_p99_ms", "sim_ms", "lower", 0.0),
    ("sim_waf", "ratio", "lower", 0.0),
    ("sim_flash_writes", "pages", "lower", 0.0),
]

# (name, unit, better). Layers a workload leaves inert report 0.
PER_LAYER = [
    ("trace.next_ns", "ns", "lower"),
    ("cache.serve_ns_p50", "ns", "lower"),
    ("cache.serve_ns_p999", "ns", "lower"),
    ("cache.serve_ns_per_req", "ns", "lower"),
    ("cache.self_ns_per_req", "ns", "lower"),
    ("cache.lookups_per_req", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.pages_per_evict", "pages", "higher"),
    ("cache.bypass_pages", "pages", "lower"),
    ("policy.ns_per_req", "ns", "lower"),
    ("policy.begin_request_ns", "ns", "lower"),
    ("policy.on_hit_ns", "ns", "lower"),
    ("policy.on_insert_ns", "ns", "lower"),
    ("policy.select_victim_ns", "ns", "lower"),
    ("policy.calls_per_req", "count", "lower"),
    ("policy.metadata_bytes", "bytes", "lower"),
] + [(f"policy.{p}.ns_per_req", "ns", "lower") for p in POLICIES] + [
    (f"cache.{p}.serve_ns_per_req", "ns", "lower") for p in POLICIES] + [
    ("ssd.ftl_read_ns", "ns", "lower"),
    ("ssd.ftl_program_ns", "ns", "lower"),
    ("ssd.ftl_ns_per_req", "ns", "lower"),
    ("ssd.gc_ns_per_req", "ns", "lower"),
    ("ssd.gc_ns_per_run", "ns", "lower"),
    ("ssd.page_reads", "pages", "lower"),
    ("ssd.page_writes", "pages", "lower"),
    ("ssd.gc_runs", "count", "lower"),
    ("ssd.gc_page_moves", "pages", "lower"),
    ("ssd.erases", "count", "lower"),
    ("ssd.chip_util", "ratio", "lower"),
    ("sim.step_ns_p50", "ns", "lower"),
    ("sim.step_ns_p999", "ns", "lower"),
    ("sim.self_ns_per_req", "ns", "lower"),
    ("host.admitted", "count", "higher"),
    ("host.sheds", "count", "lower"),
    ("host.retries", "count", "lower"),
    ("host.queue_wait_p99_us", "sim_us", "lower"),
    ("fault.program_faults", "count", "lower"),
    ("fault.ecc_corrected", "count", "lower"),
    ("fault.retry_steps_total", "count", "lower"),
    ("fault.parity_rebuilds", "count", "lower"),
    ("fault.uncorrectable", "count", "lower"),
    ("fault.patrol_scrubs", "count", "lower"),
    ("snapshot.serialize_ms", "ms", "lower"),
    ("snapshot.deserialize_ms", "ms", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.ns_per_req", "ns", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.rep_spread_pct", "%", "lower"),
]

# Counters the traced rep's direct drive must share with the session.
DIRECT_DRIVE_COUNTERS = ["requests", "page_hits", "page_lookups",
                         "host_page_writes", "gc_runs", "resp_count",
                         "resp_mean_ns", "resp_p99_ns"]

# A rep takes 0.5-2 s. At most three reps can time out in one-workload form
# (reference, traced, untraced), which keeps that form under 180 s.
CHILD_TIMEOUT_S = 50
MIN_REPS = 2


class Rep:
    """One bench_rep child: its report (None if it crashed) and failures."""

    def __init__(self, workload, kind):
        self.workload = workload
        self.kind = kind  # "untraced", "traced" or "reference"
        self.report = None
        self.failures = []
        self.wall_s = 0.0

    @property
    def ok(self):
        return not self.failures

    @property
    def rps(self):
        return self.report["requests"] / self.report["replay_s"]

    @property
    def rss_mb(self):
        return self.report["peak_rss_kb"] / 1024.0


def run_rep(bench_rep, workload, kind, seed, smoke=False):
    """Runs one rep in a fresh process. Never raises for a failing child."""
    cmd = [bench_rep, "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if kind == "traced":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--traced", "--spans",
                os.path.join(OUT, f"{workload}.spans.json")]
    # Audits at the program default, stated explicitly; no event tracing.
    env = {k: v for k, v in os.environ.items() if k != "REQBLOCK_TRACE"}
    env["REQBLOCK_AUDIT"] = "light"
    rep = Rep(workload, kind)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep.failures.append(f"timed out after {CHILD_TIMEOUT_S} s")
        return rep
    rep.wall_s = time.monotonic() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()
        rep.failures.append(f"exit {proc.returncode}: "
                            + (tail[-1] if tail else ""))
        return rep
    try:
        rep.report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        rep.failures.append("unparseable report")
        return rep
    for c in rep.report["failed_checks"]:
        rep.failures.append(f"{c['check']}: {c['detail']}")
    return rep


def check_workload(reps, golden, default_seed, smoke):
    """Cross-rep checks of one workload's reps; failures land on the reps."""
    done = [r for r in reps if r.report is not None]
    size = "smoke" if smoke else "full"
    want = golden[size].get(reps[0].workload)
    for r in done:
        if (r.kind == "reference" or default_seed) and \
                r.report["digest"] != want:
            r.failures.append(f"golden: {r.workload} digest "
                              f"{r.report['digest']} != {want} "
                              f"({size} size, default seed)")
    untraced = [r for r in done if r.kind == "untraced"]
    if not untraced:
        return
    first = untraced[0].report
    for r in done:
        if r.kind != "reference" and r.report["digest"] != first["digest"]:
            r.failures.append(f"digest {r.report['digest']} differs from "
                              f"the first untraced rep's {first['digest']}")
        if r.kind != "traced" or r.workload == "soak-full":
            continue
        for direct, session in zip(r.report["cells"], first["cells"]):
            diff = [k for k in DIRECT_DRIVE_COUNTERS
                    if direct[k] != session[k]]
            if diff:
                r.failures.append(f"direct drive of {direct['policy']} "
                                  f"differs from the session in {diff}")


def reference(bench_rep, workload, seed, smoke):
    """Reps at another seed than the default also get one default-seed rep:
    its digest is held against golden.json and its simulated results are
    the workload's sim_* metrics, so those stay exact at any --seed."""
    if seed is None:
        return []
    return [run_rep(bench_rep, workload, "reference", None, smoke)]


def fastest_replay_s(untraced):
    """Replay time with the host's noise filtered out. Every untraced rep at
    one seed does the same work in its k-th chunk (bench_rep's kChunk served
    requests), and noise only ever slows a chunk down, so the sum of each
    chunk's fastest time across reps is the replay time of a quiet host.
    The reps passed the digest check, so they served the same requests and
    have as many chunks each."""
    chunks = [r.report["chunks_ns"] for r in untraced]
    return sum(min(col) for col in zip(*chunks)) / 1e9


def end_to_end(reps):
    """End-to-end metrics from a workload's successful untraced reps."""
    untraced = [r for r in reps if r.kind == "untraced" and r.ok]
    ref = next((r for r in reps if r.kind == "reference"), None) or \
        (untraced[0] if untraced else None)
    if not untraced or not ref.ok:
        return {}
    sim = ref.report["sim"]
    values = {
        "replay_rps": untraced[0].report["requests"] /
        fastest_replay_s(untraced),
        # Each rep's setup_s is already the median of its set-ups; the
        # fastest rep's, like the chunk minima, filters out slow stretches
        # of the host that a median over reps would follow.
        "setup_s": min(r.report["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
    }
    values.update({k: sim[k] for k in sim})
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def per_layer(reps):
    """Per-layer metrics from the traced rep plus the untraced reps."""
    traced = next((r for r in reps if r.kind == "traced" and r.ok), None)
    untraced = [r for r in reps if r.kind == "untraced" and r.ok]
    if traced is None or not untraced:
        return {}
    values = dict(traced.report["layers"])
    best = max(r.rps for r in untraced)
    worst = min(r.rps for r in untraced)
    # The traced rep is one rep too, so it is held against the fastest
    # untraced rep rather than against the chunk-filtered replay_rps.
    values["bench.trace_overhead_pct"] = (best / traced.rps - 1.0) * 100.0
    values["bench.rep_spread_pct"] = (best - worst) / best * 100.0
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}


def layer_sum_gap(traced):
    """How far the single-tenant layer breakdown is from the measured time:
    trace + policy + ftl + gc + cache self vs the traced loop's ns/req."""
    if traced is None or traced.report["workload"] == "soak-full":
        return None
    lay = traced.report["layers"]
    total = sum(lay[k] for k in ("trace.next_ns", "policy.ns_per_req",
                                 "ssd.ftl_ns_per_req", "ssd.gc_ns_per_req",
                                 "cache.self_ns_per_req"))
    measured = traced.report["replay_s"] * 1e9 / traced.report["requests"]
    return {"layer_sum_ns_per_req": total,
            "measured_ns_per_req": measured,
            "gap_pct": (measured - total) / measured * 100.0}


def result_line(reps, metrics):
    failed = sum(1 for r in reps if not r.ok)
    return json.dumps({"correct": failed == 0 and bool(metrics),
                       "attempted": len(reps), "failed": failed,
                       "metrics": metrics})


def run_one(args, golden):
    """BENCHMARK.json's form: one workload, one JSON result line."""
    w, seed, smoke = args.workload, args.seed, args.smoke
    deadline = time.monotonic() + args.seconds
    reps = reference(args.bench_rep, w, seed, smoke)
    if args.trace:
        reps.append(run_rep(args.bench_rep, w, "traced", seed, smoke))
    untraced = []
    while True:
        r = run_rep(args.bench_rep, w, "untraced", seed, smoke)
        untraced.append(r)
        if r.report is None:
            break
        mean_wall = statistics.mean(x.wall_s for x in untraced)
        if len(untraced) >= MIN_REPS and \
                time.monotonic() + mean_wall > deadline:
            break
    reps += untraced
    check_workload(reps, golden, seed is None, smoke)
    for r in reps:
        for f in r.failures:
            print(f"FAILED {w} {r.kind}: {f}", file=sys.stderr)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    print(result_line(reps, metrics))
    return 0


def host_facts():
    with open("/proc/cpuinfo") as f:
        models = [l.split(":", 1)[1].strip() for l in f
                  if l.startswith("model name")]
    return {"nproc": os.cpu_count(),
            "cpu_model": models[0] if models else "unknown",
            "loadavg": list(os.getloadavg())}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_suite(args, golden):
    """Every workload: --reps untraced reps round-robin, one traced each."""
    facts = host_facts()
    reps = {w: reference(args.bench_rep, w, args.seed, args.smoke)
            for w in WORKLOADS}
    for _ in range(args.reps):
        for w in WORKLOADS:
            reps[w].append(run_rep(args.bench_rep, w, "untraced", args.seed,
                                   args.smoke))
    for w in WORKLOADS:
        reps[w].append(run_rep(args.bench_rep, w, "traced", args.seed,
                               args.smoke))
    facts["loadavg_after"] = list(os.getloadavg())

    results = {"host": facts, "seed": args.seed, "smoke": args.smoke,
               "reps": args.reps, "workloads": {}}
    failures = []
    for w in WORKLOADS:
        check_workload(reps[w], golden, args.seed is None, args.smoke)
        failures += [f"{w} {r.kind} rep {i}: {f}"
                     for i, r in enumerate(reps[w]) for f in r.failures]
        traced = next((r for r in reps[w] if r.kind == "traced"), None)
        results["workloads"][w] = {
            "end_to_end": end_to_end(reps[w]),
            "per_layer": per_layer(reps[w]),
            "layer_sum": layer_sum_gap(traced if traced and traced.ok
                                       else None),
            "raw_reps": [{"kind": r.kind, "ok": r.ok, "failures": r.failures,
                          "wall_s": r.wall_s, "report": r.report}
                         for r in reps[w]],
        }
    results["failures"] = failures
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump(results, f, indent=1)

    for w in WORKLOADS:
        res = results["workloads"][w]
        print(f"\n== {w}")
        for section in ("end_to_end", "per_layer"):
            for name, m in res[section].items():
                print(f"  {name:32s} {fmt(m['value']):>14s} {m['unit']}")
        if res["layer_sum"]:
            s = res["layer_sum"]
            print(f"  layer sum {s['layer_sum_ns_per_req']:.0f} ns/req vs "
                  f"measured {s['measured_ns_per_req']:.0f} "
                  f"(gap {s['gap_pct']:.2f}%)")
    print(f"\nhost: {facts['nproc']} CPUs, {facts['cpu_model']}, load "
          f"{facts['loadavg']} -> {facts['loadavg_after']}")
    print(f"wrote {os.path.join(OUT, 'results.json')}")
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


def write_golden(args):
    golden = {"full": {}, "smoke": {}}
    for size, smoke in (("full", False), ("smoke", True)):
        for w in WORKLOADS:
            r = run_rep(args.bench_rep, w, "untraced", None, smoke)
            if r.report is None:
                print(f"{w} ({size}): {r.failures}", file=sys.stderr)
                return 1
            golden[size][w] = r.report["digest"]
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--bench-rep",
                   default=os.path.join(HERE, "..", "build-bench",
                                        "bench_rep"))
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--golden", default=GOLDEN)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    if not os.access(args.bench_rep, os.X_OK):
        p.error(f"{args.bench_rep} is not built; run benchmark/run.sh")
    if args.write_golden:
        return write_golden(args)
    with open(args.golden) as f:
        golden = json.load(f)
    if args.workload:
        return run_one(args, golden)
    return run_suite(args, golden)


if __name__ == "__main__":
    sys.exit(main())
