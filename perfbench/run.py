#!/usr/bin/env python3
"""End-to-end benchmark of the Mantle simulator.

Builds perfbench/mantle_perf from the checkout's sources, runs one workload
for a fixed time budget and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload scale512 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke     # every workload, reduced size

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 pairs
untraced and traced runs of the same seeds and reports the per-layer
metrics. Each run inside the budget is its own process with its own seed
(derived from --seed), and every metric is the median over those runs.
See perfbench/README.md for what each workload and metric stands for.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

WORKLOADS = {
    "scale512": {"default_seed": 42, "threads": 4},
    "compile_lua": {"default_seed": 21, "threads": 1},
    "create_faults": {"default_seed": 11, "threads": 1},
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "ops/sim_s"),
    ("sim_makespan_s", "sim_s"),
    ("sim_latency_p50_ms", "sim_ms"),
    ("sim_latency_p99_ms", "sim_ms"),
    ("imbalance_cv", "ratio"),
]

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.peak_live_events": "count",
    "sim.pool_bytes": "bytes",
    "sim.cpu_s": "s",
    "sim.parallel_eff": "ratio",
    "profile.engine_dispatch_self_s": "s",
    "profile.cluster_tick_self_s": "s",
    "profile.hook_eval_s": "s",
    "profile.population_sample_s": "s",
    "cluster.gather_us.rank0": "us",
    "cluster.gather_us.median_rank": "us",
    "cluster.subtree_pop_us.rank0": "us",
    "cluster.subtree_entries_us.rank0": "us",
    "cluster.measure_walk_us.rank0": "us",
    "cluster.candidates_per_tick": "count",
    "cluster.ticks": "count",
    "cluster.heartbeats_sent": "count",
    "cluster.exports_started": "count",
    "cluster.exports_committed": "count",
    "cluster.exports_aborted": "count",
    "cluster.export_yield": "ratio",
    "cluster.forwards": "count",
    **{"core.hook_calls." + h: "count"
       for h in ("metaload", "mdsload", "when", "where", "howmuch")},
    **{"core.hook_us." + h: "us"
       for h in ("metaload", "mdsload", "when", "where", "howmuch")},
    "lua.steps": "count",
    "lua.ns_per_step": "ns",
    "core.policy_cache_misses": "count",
    "mds.splits": "count",
    "mds.merges": "count",
    "fault.injected": "count",
    "client.retries": "count",
    "client.ops_failed": "count",
    "obs.trace_events": "count",
    "obs.trace_dropped": "count",
    "obs.provenance_records": "count",
    "trace.overhead_s": "s",
}

RUN_TIMEOUT_S = 150


class CheckFailed(Exception):
    """A correctness check breached; the message names the check."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sub_seed(seed, i):
    """Seed of the i-th run in a budget: the given seed first, then
    SplitMix64-derived ones, so every run sees distinct inputs."""
    if i == 0:
        return seed
    z = (seed + i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


def build():
    """Configure and build mantle_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources (src/) not found in "
                         + ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "mantle_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "mantle_perf")


def source_id():
    """Commit of the checkout, or a digest of src/ when it is not a git
    repository."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "src-sha1:" + h.hexdigest()[:16]


def run_once(binary, workload, seed, threads, traced=False, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed("process_exit: %s exited %d: %s" % (
            " ".join(cmd[1:]), proc.returncode, proc.stderr.strip()[-400:]))
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    if r["breaches"]:
        raise CheckFailed("%s (workload %s, seed %d)" % (
            ",".join(r["breaches"]), workload, seed))
    if r["attempted"] < 1 or r["completed"] + r["failed"] > r["attempted"]:
        raise CheckFailed("op_accounting (workload %s, seed %d)" % (
            workload, seed))
    for name, _ in END_TO_END:
        if not r[name] > 0:
            raise CheckFailed("nonzero_metric: %s is %r (workload %s, seed %d)"
                              % (name, r[name], workload, seed))
    return r


def check_same(check, a, b):
    if a["metrics_digest"] != b["metrics_digest"]:
        raise CheckFailed("%s: metrics digest %s != %s (workload %s, seed %d)"
                          % (check, a["metrics_digest"], b["metrics_digest"],
                             a["workload"], a["seed"]))


def budget_loop(seconds, step):
    """Call step(i) until the budget is spent: at least one call, and no
    new call that would end past the budget by the median call time."""
    t0 = time.monotonic()
    took = []
    i = 0
    while True:
        t = time.monotonic()
        step(i)
        took.append(time.monotonic() - t)
        i += 1
        if time.monotonic() - t0 + statistics.median(took) > seconds:
            return


def median(rows, key):
    return statistics.median(r[key] for r in rows)


def measure_timed(binary, workload, seed, seconds, smoke):
    threads = WORKLOADS[workload]["threads"]
    runs = []
    budget_loop(seconds, lambda i: runs.append(
        run_once(binary, workload, sub_seed(seed, i), threads, smoke=smoke)))
    # Same-seed byte identity, and (sharded workload) K-thread vs serial.
    check_same("same_seed_repeat", runs[0],
               run_once(binary, workload, runs[0]["seed"], threads,
                        smoke=smoke))
    if threads > 1:
        check_same("threads_vs_serial", runs[0],
                   run_once(binary, workload, runs[0]["seed"], 1, smoke=smoke))
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": median(runs, name), "unit": unit}
    return runs, metrics


def measure_traced(binary, workload, seed, seconds, smoke):
    threads = WORKLOADS[workload]["threads"]
    plain, traced = [], []

    def pair(i):
        s = sub_seed(seed, i)
        plain.append(run_once(binary, workload, s, threads, smoke=smoke))
        traced.append(run_once(binary, workload, s, threads, traced=True,
                               smoke=smoke))
        check_same("tracer_transparency", plain[-1], traced[-1])

    budget_loop(seconds, pair)
    missing = set(PER_LAYER_UNITS) - set(traced[0]["layer"]) - \
        {"trace.overhead_s"}
    if missing:
        raise CheckFailed("per_layer_missing: %s" % sorted(missing))
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = median(traced, "wall_s") - median(plain, "wall_s")
        else:
            value = statistics.median(r["layer"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return plain + traced, metrics


def describe(workload, seed, runs):
    r = runs[0]
    driver = ("sharded S=%d K=%d" % (r["shards"], r["threads"])
              if r["driver"] == "sharded" else "classic")
    print("# workload=%s seed=%d driver=%s host_cpus=%d build=%s commit=%s "
          "runs=%d seeds=%s" % (
              workload, seed, driver, r["host_cpus"], r["build_type"],
              source_id(), len(runs),
              ",".join(str(x["seed"]) for x in runs[:12])))


def print_metrics(metrics, runs, key_of):
    for name, m in metrics.items():
        vals = [key_of(r, name) for r in runs]
        vals = [v for v in vals if v is not None]
        spread = ""
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4) if len(vals) >= 4 else None
            spread = " (n=%d min %.6g median %.6g max %.6g%s)" % (
                len(vals), min(vals), statistics.median(vals), max(vals),
                " q1 %.6g q3 %.6g" % (q[0], q[2]) if q else "")
        print("  %-36s %16.6g %-10s%s" % (name, m["value"], m["unit"], spread))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at reduced size, untraced and "
                         "traced, with all checks")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    binary = build()
    if args.smoke:
        return smoke(binary)

    seed = args.seed if args.seed is not None else \
        WORKLOADS[args.workload]["default_seed"]
    try:
        if args.trace:
            runs, metrics = measure_traced(binary, args.workload, seed,
                                           args.seconds, False)
            timed = [r for r in runs if not r["traced"]]
        else:
            runs, metrics = measure_timed(binary, args.workload, seed,
                                          args.seconds, False)
            timed = runs
    except CheckFailed as e:
        log("perfbench: check failed: %s" % e)
        print("CHECK FAILED: %s" % e)
        return 1

    describe(args.workload, seed, timed)
    if args.trace:
        print_metrics(metrics, [r for r in runs if r["traced"]],
                      lambda r, n: r["layer"].get(n))
    else:
        print_metrics(metrics, runs, lambda r, n: r[n])
        print("  %-36s %16d %-10s" % (
            "sim_latency_samples", median(runs, "sim_latency_samples"),
            "count"))
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    print("  ops attempted %d, failed %d" % (attempted, failed))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke(binary):
    """Reduced-size pass over every workload: timed runs with the
    same-seed and K-thread checks, then traced pairs with the transparency
    check, and every per-layer metric present."""
    attempted = failed = 0
    try:
        for workload, spec in WORKLOADS.items():
            seed = spec["default_seed"]
            runs, _ = measure_timed(binary, workload, seed, 0, True)
            pairs, layer = measure_traced(binary, workload, seed, 0, True)
            describe(workload, seed, runs)
            print("  timed runs %d, traced pairs %d, %d per-layer metrics" % (
                len(runs), len(pairs) // 2, len(layer)))
            attempted += sum(r["attempted"] for r in runs)
            failed += sum(r["failed"] for r in runs)
    except CheckFailed as e:
        log("perfbench smoke: check failed: %s" % e)
        print("CHECK FAILED: %s" % e)
        return 1
    print("smoke ok: %d ops attempted, %d failed" % (attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
