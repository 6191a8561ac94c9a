"""One benchmark job: a single ``angular-gof`` command in a fresh interpreter.

Usage: python3 job.py RESULT_JSON [--spans SPANS_JSONL] -- CLI_ARGS...

Writes RESULT_JSON with the command's wall time (``job_s``), exit code,
error text and the process's peak resident memory.  With ``--spans`` the
layers are wrapped by ``spans.install``, the spans are written as JSON lines
after the command, and the result also holds ``speedup_2t``: the time of one
``simulate_L`` call at one thread over its time at two threads, on the
first simulator the command used.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from angular_gof import cli, limitlaw  # noqa: E402

import spans  # noqa: E402

# Each simulate_L call of the speed-up measurement lasts about this long at
# one thread; three alternating pairs are timed.
SPEEDUP_CALL_S = 0.4


def _speedup_2t(simulate, model, p, grid, q, draw_s: float) -> float:
    B = max(8, round(SPEEDUP_CALL_S / draw_s))
    times = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            start = time.perf_counter()
            simulate(model, p, grid, q, B, base_seed=0, threads=threads)
            times[threads].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    result_path = head[0]
    spans_path = head[head.index("--spans") + 1] if "--spans" in head else None

    recorder = first_call = None
    simulate = limitlaw.simulate_L  # unwrapped, for the speed-up measurement
    if spans_path:
        recorder, first_call = spans.Recorder(), []
        spans.install(recorder, first_call)

    result = {"exit_code": None, "error": None}
    start = time.perf_counter()
    try:
        result["exit_code"] = cli.main(cli_args)
    except Exception:
        result["error"] = traceback.format_exc()
    result["job_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        recorder.dump(spans_path)
        if first_call and result["error"] is None:
            draws = [s for s in recorder.spans if s["name"] == "limitlaw.simulate_L"]
            draw_s = sum(s["end"] - s["start"] for s in draws) / sum(s["attrs"]["B"] for s in draws)
            result["speedup_2t"] = _speedup_2t(simulate, *first_call, draw_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
