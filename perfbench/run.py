#!/usr/bin/env python3
"""End-to-end benchmark of the ForkBase reproduction.

    python3 perfbench/run.py --workload dataset_versions|table_point_ops|serve_kv|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the library, `forkbase_cli` and the load generator from source
(Release, into .bench_build/ at the root of the checkout), runs the
workload, checks its outputs and prints every metric by name with its unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.

Exits 1 when an output check fails, 2 when the checkout cannot be built.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import aggregate  # noqa: E402

WORKLOADS = ["dataset_versions", "table_point_ops", "serve_kv"]
BUILD_REL = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds once per checkout; later calls are a no-op
    make. Returns (driver, cli) paths, or exits 2."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no ForkBase sources beside perfbench/; cannot build")
        sys.exit(2)
    build_dir = os.path.join(ROOT, BUILD_REL)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_driver", "forkbase_cli"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return (os.path.join(build_dir, "perfbench_driver"),
            os.path.join(build_dir, "forkbase", "forkbase_cli"))


def host_context(seed):
    ctx = {"nproc": os.cpu_count(), "seed": seed}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    ctx["git_commit"] = git.stdout.strip() if git.returncode == 0 else "none"
    # A checkout without git metadata is still identified by its sources.
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    ctx["source_digest"] = digest.hexdigest()[:16]
    return ctx


def run_driver(driver, cli, workload, seed, seconds, trace):
    """Runs one workload in a fresh work directory and returns its parsed
    results, or None when the driver failed to produce any."""
    work = os.path.join(BUILD_REL, "w", "%s-%d-%d" % (workload, seed,
                                                      os.getpid()))
    out = os.path.join(ROOT, BUILD_REL, "w", "%s-%d-%d.txt" % (
        workload, seed, os.getpid()))
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", cli,
           "--work", work, "--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: %s timed out" % workload)
        code = None
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if code not in (0, 1) or not os.path.isfile(out):
        log("perfbench: driver failed (exit %s)" % code)
        return None
    with open(out) as f:
        res = aggregate.parse_results(f.read())
    os.remove(out)
    return res


def report(workload, res, trace, ctx):
    """Prints the human-readable report (every line starts with '#')."""
    print("# perfbench %s seed=%s trace=%d" % (workload, ctx["seed"], trace))
    full = dict(ctx)
    full.update(res["ctx"])
    print("# context " + json.dumps(full, sort_keys=True))
    sizes = {k: v for k, v in res["values"].items() if k.startswith("input.")}
    if sizes:
        print("# inputs " + json.dumps(sizes, sort_keys=True))
    metrics = aggregate.per_layer(res) if trace else aggregate.end_to_end(res)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    for name in missing:
        metrics[name] = (0.0, metrics[name][1])
    for name, (value, unit) in metrics.items():
        note = ""
        series = name.rsplit("_p", 1)[0]
        n = len(res["samples"].get(series, res["samples"].get(name, [])))
        if n:
            tail = aggregate.tail_percentile(n)
            note = "n=%d, tail rule supports p%s" % (
                n, tail if tail is not None else "-")
        print("# %-40s %14.6g %-6s %s" % (name, value, unit, note))
    if trace:
        total, layers, residual = aggregate.layer_table(res["spans"])
        print("# layer table (self time under op.* spans, %.1f ms traced)"
              % (total / 1e6))
        for l in aggregate.LAYERS:
            print("#   %-8s %10.2f ms %6.1f%%" % (
                l, layers.get(l, 0) / 1e6,
                100.0 * layers.get(l, 0) / total if total else 0))
        print("#   %-8s %10.2f ms %6.1f%%" % (
            "residual", residual / 1e6, 100.0 * residual / total if total
            else 0))
        print("#   tracing overhead %+.1f%% (traced vs untraced op median)"
              % (100 * metrics["trace.overhead_share"][0]))
    failed_checks = [c for c in res["checks"] if not c[1]]
    failed_checks += [("metric", False, name + " has no samples")
                      for name in missing]
    print("# checks: %d ok, %d failed%s" % (
        len(res["checks"]) - len(failed_checks), len(failed_checks),
        "".join("; FAIL %s %s" % (c[0], c[2]) for c in failed_checks)))
    return metrics, not failed_checks


def run_one(driver, cli, workload, seed, seconds, trace):
    res = run_driver(driver, cli, workload, seed, seconds, trace)
    if res is None:
        return None
    ctx = host_context(seed)
    metrics, checks_ok = report(workload, res, trace, ctx)
    correct = checks_ok and res["attempted"] >= 1
    record = {"workload": workload, "trace": trace, "time": time.time(),
              "context": dict(ctx, **res["ctx"]),
              "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(os.path.join(ROOT, BUILD_REL, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    driver, cli = build()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_one(driver, cli, workload, args.seed, args.seconds,
                         args.trace)
        if result is None:
            sys.exit(3)
        ok = ok and result["correct"]
        print(json.dumps(result, sort_keys=False), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
