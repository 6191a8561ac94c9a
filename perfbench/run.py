"""Benchmark of the ``angular-gof`` command line, one workload per run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes the workload's inputs from ``--seed``, times ``import
angular_gof`` in fresh interpreters (``setup_s``), then runs the workload's
command in a fresh interpreter per job, as the installed ``angular-gof``
would, until ``--seconds`` are used up.  Every job's output is checked (the
first in full, the others must be byte-identical to it).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one extra traced job with ``--trace 1``.  The exit code
is 1 when a check fails and 2 when the checkout holds no ``src/angular_gof``.
"""

from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import REASONS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 150
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import angular_gof; "
                "print(repr(time.perf_counter()))")

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.ingest_csv.s": "s",
    "datagen.sample.calls": "count", "datagen.sample.s": "s",
    "empirical.angular_dataset.calls": "count", "empirical.angular_dataset.s": "s",
    "empirical.degenerate": "count",
    "models.get_law.calls": "count", "models.get_law.s": "s",
    "models.law_builds": "count", "models.quadrature_errors": "count",
    "wasserstein.test_statistic.calls": "count", "wasserstein.test_statistic.s": "s",
    "wasserstein.cells": "count",
    "limitlaw.build.calls": "count", "limitlaw.build.s": "s",
    "limitlaw.simulator_mb": "MB",
    "limitlaw.draws.count": "count", "limitlaw.draws.s": "s", "limitlaw.draw_us": "us",
    "limitlaw.draw_reuse_ratio": "ratio",
    "limitlaw.draws.speedup_2t": "ratio",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}


def time_import(src: str) -> float:
    """Seconds from starting a fresh interpreter until ``import angular_gof``
    has completed (``perf_counter`` is system-wide monotonic on Linux)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - start


def run_job(workload, workdir: str, index: int, traced: bool) -> dict:
    """One command in a fresh interpreter; returns job.py's result plus the
    output bytes (JSON and, if written, the ``.cache`` table)."""
    out = os.path.join(workdir, f"out{index}.json")
    result_path = os.path.join(workdir, f"job{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), result_path]
    if traced:
        cmd += ["--spans", os.path.join(workdir, f"spans{index}.jsonl")]
    cmd += ["--", *workload.argv(out)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = f"job timed out after {JOB_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"exit_code": None, "error": stderr[-2000:] or "no result written"}
    result["wall_s"] = wall
    result["out"] = out
    result["bytes"] = b""
    for path in (out, out + ".cache"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                result["bytes"] += fh.read()
    if result["error"] is None and result["exit_code"] != 0:
        result["error"] = f"command exited with {result['exit_code']}: {stderr[-2000:]}"
    return result


def account(workload, jobs: list) -> tuple:
    """Check each job; return (attempted, failures by reason, messages)."""
    attempted, fails, msgs = 0, dict.fromkeys(REASONS, 0), []
    reference = None  # (bytes, failures) of the first job that produced output
    for job in jobs:
        n = workload.attempted()
        attempted += n
        if job["error"] is not None:
            fails["exception"] += n
            msgs.append(f"job {os.path.basename(job['out'])}: {job['error'].strip()}")
            continue
        if reference is None:
            try:
                with open(job["out"], encoding="utf-8") as fh:
                    payload = json.load(fh)
                job_fails, job_msgs = workload.check(payload, job["out"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                job_fails = dict(dict.fromkeys(REASONS, 0), check=n)
                job_msgs = [f"unreadable output: {exc!r}"]
            reference = (job["bytes"], job_fails)
            msgs += job_msgs
        elif job["bytes"] != reference[0]:
            job_fails = dict.fromkeys(REASONS, 0)
            job_fails["check"] = n
            msgs.append(f"job {os.path.basename(job['out'])}: output differs from the first job's")
        else:
            job_fails = reference[1]
        for reason in REASONS:
            fails[reason] += job_fails[reason]
    return attempted, fails, msgs


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def metadata(root: str, seed: int) -> dict:
    meta = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    meta["git_commit"] = commit
    try:
        meta["cpu"] = next(line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                           if line.startswith("model name"))
    except (OSError, StopIteration):
        meta["cpu"] = platform.processor() or "unknown"
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level, kind = _read(f"{index}/level"), _read(f"{index}/type")
            if kind != "Instruction":
                meta[f"L{level}"] = _read(f"{index}/size")
        except OSError:
            pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    meta["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    meta["blas_threads_env"] = {var: os.environ.get(var, "unset") for var in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "angular_gof", "cli.py")):
        print(f"no src/angular_gof under {root}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: str, src: str, workdir: str) -> int:
    print("meta " + json.dumps(metadata(root, args.seed), sort_keys=True))
    workload = WORKLOADS[args.workload](workdir, args.seed)

    # One untimed import first, so every timed one finds the bytecode cache
    # written and the files in the page cache.
    time_import(src)
    setup = [time_import(src) for _ in range(SETUP_REPEATS)]

    # Start another job while at least half of it is expected to fall inside
    # the window, so the jobs cover --seconds to within half a job; a traced
    # run keeps room for its traced job.
    start = time.perf_counter()
    jobs = []
    while True:
        jobs.append(run_job(workload, workdir, len(jobs), traced=False))
        expected = statistics.median(j["wall_s"] for j in jobs)
        reserve = expected if args.trace else 0.0
        if time.perf_counter() - start + expected / 2 + reserve > args.seconds:
            break
    traced = run_job(workload, workdir, len(jobs), traced=True) if args.trace else None

    attempted, fails, msgs = account(workload, jobs + ([traced] if traced else []))
    ok_jobs = [j for j in jobs if j["error"] is None]
    correct = fails["exception"] == 0 and fails["check"] == 0
    failed = min(attempted, sum(fails.values()))
    failed_ratio = failed / attempted

    e2e = {"setup_s": statistics.median(setup)}
    if ok_jobs:
        e2e["job_s"] = statistics.median(j["job_s"] for j in ok_jobs)
        e2e["peak_rss_mb"] = statistics.median(j["peak_rss_mb"] for j in ok_jobs)
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"jobs {len(jobs)}: job_s " + " ".join(f"{j['job_s']:.4f}" for j in ok_jobs))
    print(f"failed_ratio {failed_ratio:.6g} ratio ({failed} of {attempted}: "
          + ", ".join(f"{r} {fails[r]}" for r in REASONS) + ")")

    metrics = {}
    if traced is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    elif traced["error"] is None and ok_jobs:
        records = [json.loads(line) for line in
                   _read(os.path.join(workdir, f"spans{len(jobs)}.jsonl")).splitlines()]
        layers = spans.layer_metrics(records)
        layers["limitlaw.draws.speedup_2t"] = traced.get("speedup_2t", 0.0)
        layers["trace.overhead_s"] = traced["job_s"] - e2e["job_s"]
        layers["failed_ratio"] = failed_ratio
        calls = collections.Counter(span["name"] for span in records)
        missing = [name for name in workload.layers if not calls.get(name)]
        if missing:
            correct = False
            msgs.append(f"traced job recorded no call of {', '.join(missing)}")
        print(f"traced job_s {traced['job_s']:.4f} s; self-time shares:")
        for name, value in layers.items():
            if name.endswith(".s") or name == "experiments.self_s":
                print(f"  {name:34s} {value:9.4f} s {100 * value / traced['job_s']:6.1f} %")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in layers.items()}
    else:
        correct = False
    for msg in msgs:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
