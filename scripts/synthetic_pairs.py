#!/usr/bin/env python3
"""Multiple-testing study on a synthetic panel of variable pairs.

Builds a table whose column pairs are mostly draws from a null extreme-value
copula, plants a few contaminated pairs, runs the goodness-of-fit test on every
pair, and reports which pairs the Bonferroni and Benjamini-Hochberg
corrections flag.

Example:
    python3 scripts/synthetic_pairs.py --pairs 15 --bad 2 --n 3000 \
        --family hr --B 2000
"""

import argparse
import sys
import time

import numpy as np

from angular_gof import datagen as dg
from angular_gof.experiments import run_pairwise_analysis
from angular_gof.geometry import WeightKind
from angular_gof.limitlaw import GRID_PRESETS
from angular_gof.models import FAMILIES


def build_table(n_pairs, n_bad, n, family, lam, seed):
    """Stack independent pairs column-wise; contaminated pairs come first."""
    dirty = dg.scenario_copula(2, lam, family)
    clean = dirty.base
    cols, labels, pair_idx = [], [], []
    for j in range(n_pairs):
        spec = dirty if j < n_bad else clean
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(j,))
        ))
        cols.append(dg.sample(spec, n, rng))
        tag = "bad" if j < n_bad else "ok"
        labels.append(f"{tag}{j}")
        pair_idx.append((2 * j, 2 * j + 1))
    return np.hstack(cols), pair_idx, labels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=15, help="total pairs")
    ap.add_argument("--bad", type=int, default=2, help="contaminated pairs")
    ap.add_argument("--n", type=int, default=3000)
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--lam", type=float, default=0.9,
                    help="contamination mixture weight")
    ap.add_argument("--family", choices=tuple(FAMILIES), default="hr")
    ap.add_argument("--B", type=int, default=2000)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", choices=sorted(GRID_PRESETS), default="desk")
    args = ap.parse_args(argv)

    table, pair_idx, labels = build_table(
        args.pairs, args.bad, args.n, args.family, args.lam, args.seed,
    )
    t0 = time.perf_counter()
    report = run_pairwise_analysis(
        table, pair_idx, family=args.family, k=args.k, q=WeightKind.INV_SQRT_PI4,
        B=args.B, alpha=args.alpha, seed=args.seed,
        grid=GRID_PRESETS[args.grid], labels=labels,
    )
    elapsed = time.perf_counter() - t0

    print(f"{args.pairs} pairs ({args.bad} contaminated, lambda={args.lam}), "
          f"n={args.n}, family={args.family}, B={args.B}  [{elapsed:.1f}s]")
    print(f"{'pair':>8} {'r_hat':>8} {'T':>9} {'p':>9} {'bonf':>5} {'bh':>4}")
    for i, pr in enumerate(report.pairs):
        rep = pr.report
        print(f"{pr.label:>8} {rep.r_hat:8.4f} {rep.t_value:9.4f} "
              f"{rep.p_value:9.5f} {str(report.bonferroni_reject[i]):>5} "
              f"{str(report.bh_reject[i]):>4}")
    planted = [pr.label for pr in report.pairs[: args.bad]]
    flagged = [pr.label for i, pr in enumerate(report.pairs)
               if report.bonferroni_reject[i]]
    print(f"planted: {planted}  bonferroni-flagged: {flagged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
