"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces the
module attributes through which ``cli`` and ``experiments`` reach each
layer with timing wrappers.  Nothing in ``angular_gof`` knows about the tracing.

A span is ``{"id", "name", "start", "end", "parent", "error", "attrs"}``
with ``perf_counter`` times in seconds.  Parents come from a per-thread
stack, so a span opened in a worker thread has no parent.  A call made
while a span of the same name is already open on the thread (a recursive
``datagen.sample``, for instance) is not recorded again.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import numpy as np

# Spans of the orchestration code (``cli``, the ``experiments`` runners and the
# loop of ``critical_value_table``); every other span is a layer they call.
ORCHESTRATION_SPANS = (
    "cli.main",
    "experiments.run_power_study",
    "experiments.run_pairwise_analysis",
    "experiments.run_single_test",
    "limitlaw.critical_value_table",
)


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` timed as span ``name``; ``attrs(args, kwargs, result)``
        may return a dict stored on the span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1][0] if stack else None, "error": None, "attrs": {}}
            stack.append((span["id"], name))
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _simulator_mb(sim) -> float:
    return sum(v.nbytes for v in vars(sim).values() if isinstance(v, np.ndarray)) / 2**20


def install(recorder: Recorder, first_simulate_call: list) -> None:
    """Wrap each layer's public functions where their callers look them up.

    ``first_simulate_call`` receives the (model, p, grid, q) of the first
    ``simulate_L`` call, for the thread-speedup measurement after the job.
    """
    from angular_gof import cli, datagen, experiments, limitlaw

    def law_attrs(args, kwargs, result):
        model, p = args[0], _arg(args, kwargs, 1, "p")
        return {"key": [model.family, model.r, p]}

    def simulate_attrs(args, kwargs, result):
        if not first_simulate_call:
            first_simulate_call.extend([args[0], args[1], args[2], args[3]])
        return {"B": _arg(args, kwargs, 4, "B")}

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), attrs))

    patch(cli, "ingest_csv", "cli.ingest_csv")
    patch(cli, "run_power_study", "experiments.run_power_study")
    patch(cli, "run_pairwise_analysis", "experiments.run_pairwise_analysis")
    patch(cli, "critical_value_table", "limitlaw.critical_value_table")
    patch(experiments, "run_single_test", "experiments.run_single_test")
    patch(datagen, "sample", "datagen.sample")
    patch(experiments, "angular_dataset", "empirical.angular_dataset",
          lambda a, k, ds: {"degenerate": bool(ds.degenerate)})
    for module in (experiments, limitlaw):
        patch(module, "get_law", "models.get_law", law_attrs)
        patch(module, "simulate_L", "limitlaw.simulate_L", simulate_attrs)
    patch(experiments, "test_statistic", "wasserstein.test_statistic",
          lambda a, k, stat: {"n_cells": int(stat.n_cells)})
    patch(limitlaw, "LimitLawSimulator", "limitlaw.build",
          lambda a, k, sim: {"mb": _simulator_mb(sim)})
    cli.main = recorder.wrap("cli.main", cli.main)


def self_times(records) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for span in records:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in records:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            if child["end"] > lo:
                covered += child["end"] - lo
                reach = child["end"]
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(records) -> dict:
    """Per-layer counts and self times (s) from one traced job's spans.

    Self times of all spans add up to the root span, so the ``.s`` metrics
    and ``experiments.self_s`` split the traced job time between layers.
    """
    selfs = self_times(records)
    by_name = {}
    for span in records:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(*names):
        return sum(selfs[s["id"]] for name in names for s in by_name.get(name, ()))

    def spans_of(name):
        return by_name.get(name, ())

    parents = {span["id"]: span for span in records}

    def under_pairs(span):
        while span["parent"] is not None:
            span = parents[span["parent"]]
            if span["name"] == "experiments.run_pairwise_analysis":
                return True
        return False

    m = {"cli.ingest_csv.s": seconds("cli.ingest_csv")}
    for layer in ("datagen.sample", "empirical.angular_dataset", "models.get_law",
                  "wasserstein.test_statistic", "limitlaw.build"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = seconds(layer)
    m["empirical.degenerate"] = sum(s["attrs"].get("degenerate", False)
                                    for s in spans_of("empirical.angular_dataset"))
    m["models.law_builds"] = len({tuple(s["attrs"]["key"]) for s in spans_of("models.get_law")
                                  if s["error"] is None})
    m["models.quadrature_errors"] = sum(
        s["error"] == "QuadratureError"
        for s in (*spans_of("models.get_law"), *spans_of("wasserstein.test_statistic")))
    m["wasserstein.cells"] = sum(s["attrs"].get("n_cells", 0)
                                 for s in spans_of("wasserstein.test_statistic"))
    m["limitlaw.simulator_mb"] = sum(s["attrs"].get("mb", 0.0) for s in spans_of("limitlaw.build"))
    m["limitlaw.draws.count"] = sum(s["attrs"].get("B", 0) for s in spans_of("limitlaw.simulate_L"))
    m["limitlaw.draws.s"] = seconds("limitlaw.simulate_L")
    m["limitlaw.draw_us"] = (1e6 * m["limitlaw.draws.s"] / m["limitlaw.draws.count"]
                             if m["limitlaw.draws.count"] else 0.0)
    pairs = sum(under_pairs(s) for s in spans_of("experiments.run_single_test"))
    fresh = sum(under_pairs(s) for s in spans_of("limitlaw.simulate_L"))
    m["limitlaw.draw_reuse_ratio"] = (pairs - fresh) / pairs if pairs else 0.0
    m["experiments.self_s"] = seconds(*ORCHESTRATION_SPANS)
    return m

