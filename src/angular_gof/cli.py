"""Command-line interface.

Subcommands:
  test       goodness-of-fit test of one bivariate sample read from CSV
  quantiles  tabulate null-law critical values on a parameter grid
  power      rejection-rate curve for one mixture scenario
  pairs      per-pair tests over columns of a CSV table with multiple-testing
             corrections

A command either prints its report, or exits 1 with the error report
{"status": "error", "message": ...}: for an input it rejects, and for a
failure while it runs (a quadrature that does not converge, a covariance that
does not factor, non-finite null-law draws, a power study whose every
replicate is degenerate).  ``pairs`` reports a failing pair in that pair's own
entry.

All output is deterministic for fixed inputs and seeds: floats are emitted by
the shortest round-trip representation (full precision) and JSON keys are
sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .empirical import default_k
from .geometry import WeightKind
from .models import FAMILIES, QuadratureError
from .limitlaw import (
    GRID_PRESETS,
    UnsupportedFeatureError,
    check_draw_inputs,
    critical_value_table,
)
from .experiments import (
    ScenarioConfig,
    run_pairwise_analysis,
    run_power_study,
    run_single_test,
)

__all__ = ["ingest_csv", "build_parser", "main"]


def ingest_csv(path) -> tuple[np.ndarray, list]:
    """Read a numeric CSV; returns (array, column names).

    A non-numeric first row is treated as a header; missing/blank fields
    become NaN.  A row whose field count differs from the first row's, or a
    field that is not a number, raises ValueError naming its line.  A UTF-8
    byte-order mark is dropped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row and any(f.strip() for f in row)]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {width}")

    def parse(field: str) -> float:
        field = field.strip()
        if not field or field.upper() in ("NA", "NAN"):
            return math.nan
        return float(field)

    def parse_row(line: int, row: list) -> list:
        try:
            return [parse(f) for f in row]
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None

    try:
        data_rows = [[parse(f) for f in rows[0][1]]]
        header = [f"col{j}" for j in range(width)]
    except ValueError:
        data_rows = []
        header = [f.strip() for f in rows[0][1]]
    data_rows += [parse_row(line, row) for line, row in rows[1:]]
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(data_rows, dtype=float), header


def _emit(payload: dict, out) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _k_range_error(k: int, n: int) -> str:
    return f"--k must satisfy 1 <= k < n, got k={k}, n={n}"


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_pairs(text: str, d: int) -> list:
    """Column index pairs 'i,j;k,l' of a table with d columns.

    Each pair must name two different columns in 0..d-1; anything else
    raises ValueError.
    """
    pairs = []
    for chunk in text.split(";"):
        try:
            i, j = (int(tok) for tok in chunk.split(","))
        except ValueError:
            raise ValueError(f"--pairs: {chunk!r} is not a pair of column indices 'i,j'") from None
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"--pairs: {chunk!r} names a column outside 0..{d - 1}")
        if i == j:
            raise ValueError(f"--pairs: {chunk!r} pairs a column with itself")
        pairs.append((i, j))
    return pairs


def _add_common(sp, B_default: int):
    sp.add_argument("--family", choices=tuple(FAMILIES), default="logistic")
    sp.add_argument("--p", type=float, default=2.0, help="exceedance-region norm order")
    sp.add_argument("--q", choices=("const", "invsqrt"), default="invsqrt",
                    help="weight function in the Wasserstein distance")
    sp.add_argument("--B", type=int, default=B_default, help="Monte-Carlo replicates")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", choices=tuple(GRID_PRESETS), default="desk")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored: BLAS sets the threads of the null-law draws")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angular-gof",
        description="Goodness-of-fit tests for bivariate extremal dependence models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("test", help="test one bivariate sample")
    sp.add_argument("input", help="CSV with two numeric columns")
    sp.add_argument("--k", type=int, default=None,
                    help="exceedance threshold (default: round(sqrt(n)))")
    sp.add_argument("--alpha", default="0.9,0.95,0.99",
                    help="comma-separated critical-value levels")
    _add_common(sp, B_default=500)

    sp = sub.add_parser("quantiles", help="tabulate null critical values")
    sp.add_argument("--r-grid", required=True,
                    help="comma-separated parameter values")
    sp.add_argument("--alpha", default="0.9,0.95,0.99")
    sp.add_argument("--cache", default=None,
                    help="also write the JSON report here, for CriticalValueTable.load")
    _add_common(sp, B_default=2000)

    sp = sub.add_parser("power", help="rejection-rate curve for a mixture scenario")
    sp.add_argument("--scenario", type=int, choices=(1, 2), default=2)
    sp.add_argument("--lambdas", default="0,0.2,0.4,0.6,0.8")
    sp.add_argument("--n", type=int, default=3000)
    sp.add_argument("--k", type=int, default=50)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--reps", type=int, default=200)
    _add_common(sp, B_default=500)

    sp = sub.add_parser("pairs", help="per-pair tests over CSV columns")
    sp.add_argument("input", help="CSV table (header optional)")
    sp.add_argument("--pairs", default=None,
                    help="semicolon-separated index pairs 'i,j;k,l' (default: all)")
    sp.add_argument("--k", type=int, default=None,
                    help="exceedance threshold (default: round(sqrt(n)) per pair)")
    sp.add_argument("--alpha", type=float, default=0.05)
    _add_common(sp, B_default=4000)

    return parser


def _cmd_test(args) -> int:
    alphas = tuple(_parse_floats(args.alpha))
    check_draw_inputs(args.p, alphas, args.B)
    data, _ = ingest_csv(args.input)
    if data.shape[1] != 2:
        raise ValueError(f"{args.input}: test expects a two-column CSV, got {data.shape[1]} columns")
    data = data[~np.any(np.isnan(data), axis=1)]
    k = args.k if args.k is not None else default_k(data.shape[0])
    if not 1 <= k < data.shape[0]:
        raise ValueError(_k_range_error(k, data.shape[0]))
    report = run_single_test(
        data, args.family, k, p=args.p, q=WeightKind(args.q),
        B=args.B, seed=args.seed, grid=GRID_PRESETS[args.grid],
        alphas=alphas,
    )
    _emit(report.to_dict(), args.out)
    return 0 if report.status == "ok" else 1


def _cmd_quantiles(args) -> int:
    table = critical_value_table(
        args.family, args.p, GRID_PRESETS[args.grid], WeightKind(args.q),
        _parse_floats(args.r_grid), tuple(_parse_floats(args.alpha)), args.B,
        seed=args.seed,
    )
    if args.cache:
        table.save(args.cache)
    _emit(table.to_dict(), args.out)
    return 0


def _cmd_power(args) -> int:
    check_draw_inputs(args.p, (args.alpha,), args.B)
    lambdas = tuple(_parse_floats(args.lambdas))
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if not lambdas:
        raise ValueError("--lambdas is empty")
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"--lambdas values must lie in [0, 1], got {lam:g}")
    if not 1 <= args.k < args.n:
        raise ValueError(_k_range_error(args.k, args.n))
    config = ScenarioConfig(
        family=args.family, scenario=args.scenario, lambdas=lambdas,
        n=args.n, k=args.k, p=args.p, q=WeightKind(args.q),
        B=args.B, alpha=args.alpha, reps=args.reps, seed=args.seed,
        grid=GRID_PRESETS[args.grid],
    )
    curve = run_power_study(config)
    payload = {
        "family": args.family,
        "scenario": args.scenario,
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "B": args.B,
        "seed": args.seed,
        "lambdas": curve.lambdas.tolist(),
        "rates": curve.rates.tolist(),
        "standard_errors": curve.ses.tolist(),
        "successful_reps": curve.reps.tolist(),
        "failures": curve.failures.tolist(),
        "r_grid": curve.r_grid.tolist(),
    }
    _emit(payload, args.out)
    return 0


def _cmd_pairs(args) -> int:
    check_draw_inputs(args.p, (args.alpha,), args.B)
    data, names = ingest_csv(args.input)
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    d = data.shape[1]
    if d < 2:
        raise ValueError(f"{args.input}: pairs needs at least two columns, got {d}")
    if args.pairs:
        pairs = _parse_pairs(args.pairs, d)
    else:
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    labels = [f"{names[i]}:{names[j]}" for i, j in pairs]
    report = run_pairwise_analysis(
        data, pairs, family=args.family, k=args.k, p=args.p,
        q=WeightKind(args.q), B=args.B, alpha=args.alpha,
        seed=args.seed, grid=GRID_PRESETS[args.grid], labels=labels,
    )
    payload = {
        "alpha": report.alpha,
        "family": args.family,
        "B": args.B,
        "seed": args.seed,
        "pairs": [
            {
                "label": res.label,
                **res.report.to_dict(),
                "bonferroni_reject": bool(report.bonferroni_reject[i]),
                "bh_reject": bool(report.bh_reject[i]),
                "bh_dependent_reject": bool(report.bh_dependent_reject[i]),
            }
            for i, res in enumerate(report.pairs)
        ],
    }
    _emit(payload, args.out)
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "quantiles": _cmd_quantiles,
    "power": _cmd_power,
    "pairs": _cmd_pairs,
}


def main(argv=None) -> int:
    """Run one command; a failed command writes the error report and gives 1.

    ``ValueError`` also covers ``DegenerateDataError`` and
    ``numpy.linalg.LinAlgError``.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ValueError, QuadratureError, UnsupportedFeatureError) as exc:
        _emit({"status": "error", "message": str(exc)}, args.out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
