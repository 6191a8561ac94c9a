"""Seeded CLI outputs pinned against committed values.

Three commands, each on fixed seeds:

- ``power`` on the HR scenario-2 study (n = 3000, k = 100, B = 500, 100
  replicates, lambda in {0, 0.4, 0.8}), seeds 5, 7 and 913;
- ``pairs`` on a generated six-column table at B = 2000, seeds 5 and 7;
- ``quantiles`` for the logistic family on the paper grid, seeds 5 and 7.

Estimates, statistics, counts and rates must match exactly.  Critical
values and p-values are compared within 1e-6 relative: the Hüsler–Reiss
null-law covariance is singular to rounding, so seeded HR critical values
reproduce across machines only to about 1e-7 relative.  A p-value is an
exceedance share of the draws, so it can move by 1/B only if a draw lies
within that distance of T.

A change that moves seeded output on purpose regenerates the expected file:
``PYTHONPATH=src python tests/test_seeded_outputs.py``.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from angular_gof import cli

EXPECTED = pathlib.Path(__file__).with_name("seeded_outputs.json")
# Keys whose values are compared within REL_TOL; everything else exactly.
TOLERANT = {"critical_values", "p_value", "quantiles"}
REL_TOL = 1e-6


def _hr_copula(r, n, rng):
    """HR copula by 60 bisection steps of the conditional CDF in v."""
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    x = -np.log(u)
    lo = np.full(n, 1e-15)
    hi = np.full(n, 1.0 - 1e-15)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = -np.log(mid)
        a = r + np.log(x / y) / (2.0 * r)
        b = r + np.log(y / x) / (2.0 * r)
        below = np.exp(-(x * ndtr(a) + y * ndtr(b))) * ndtr(a) / u < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.column_stack([u, 0.5 * (lo + hi)])


def _maxlinear(n, rng):
    z = -1.0 / np.log(rng.uniform(size=(n, 2)))
    x1 = np.maximum(0.7 * z[:, 0], 0.3 * z[:, 1])
    x2 = np.maximum(0.1 * z[:, 0], 0.9 * z[:, 1])
    return np.column_stack([np.exp(-1.0 / x1), np.exp(-1.0 / x2)])


def write_pairs_table(path, seed):
    """The pairs table: HR(1) with 5 blank fields, the scenario-2 mixture at
    lambda = 0.9 with 100 blank fields, and an increasing transform of the
    first pair, 3000 rows, written with every float's repr."""
    rng = np.random.default_rng(seed)
    n = 3000
    hr = _hr_copula(1.0, n, rng)
    take_alt = rng.uniform(size=n) < 0.9
    s2 = np.empty((n, 2))
    s2[~take_alt] = _hr_copula(1.0, int(np.count_nonzero(~take_alt)), rng)
    s2[take_alt] = _maxlinear(int(np.count_nonzero(take_alt)), rng)
    rows = rng.permutation(n)
    hr[rows[:3], 0] = np.nan
    hr[rows[3:5], 1] = np.nan
    s2[rows[5:55], 0] = np.nan
    s2[rows[55:105], 1] = np.nan
    table = np.column_stack([hr, s2, -1.0 / np.log(hr)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a1,a2,s1,s2,c1,c2\n")
        for row in table:
            fh.write(",".join("" if math.isnan(v) else repr(float(v)) for v in row) + "\n")


def _argv(command, seed, workdir):
    if command == "power":
        return ["power", "--family", "hr", "--scenario", "2", "--lambdas", "0,0.4,0.8",
                "--n", "3000", "--k", "100", "--B", "500", "--alpha", "0.05",
                "--reps", "100", "--seed", str(seed)]
    if command == "pairs":
        csv = workdir / f"table-{seed}.csv"
        write_pairs_table(csv, seed)
        return ["pairs", str(csv), "--family", "hr", "--B", "2000", "--threads", "1",
                "--pairs", "0,1;2,3;4,5", "--seed", str(seed)]
    return ["quantiles", "--family", "logistic", "--grid", "paper", "--r-grid", "0.3,0.5,0.7",
            "--alpha", "0.9,0.95,0.99", "--B", "40", "--seed", str(seed)]


CASES = [("power", 5), ("power", 7), ("power", 913), ("pairs", 5), ("pairs", 7),
         ("quantiles", 5), ("quantiles", 7)]


def run_case(command, seed, workdir):
    """The JSON report of one case; ``quantiles`` also writes its ``--cache``
    file, which must be the report byte for byte."""
    out = workdir / f"{command}-{seed}.json"
    argv = _argv(command, seed, workdir) + ["--out", str(out)]
    if command == "quantiles":
        argv += ["--cache", str(out) + ".cache"]
    assert cli.main(argv) == 0
    text = out.read_text()
    if command == "quantiles":
        assert pathlib.Path(str(out) + ".cache").read_text() == text
    return json.loads(text)


def assert_matches(got, want, path="", tolerant=False):
    """Exact equality, except within REL_TOL under a key in TOLERANT."""
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}", tolerant or key in TOLERANT)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]", tolerant)
    elif tolerant and isinstance(want, float):
        assert got == pytest.approx(want, rel=REL_TOL, abs=0.0), f"{path}: {got!r} != {want!r}"
    elif not (isinstance(want, float) and math.isnan(want) and math.isnan(got)):
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("command,seed", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_seeded_output(command, seed, tmp_path):
    want = json.loads(EXPECTED.read_text())[f"{command}-{seed}"]
    assert_matches(run_case(command, seed, tmp_path), want)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = {f"{c}-{s}": run_case(c, s, pathlib.Path(tmp)) for c, s in CASES}
    EXPECTED.write_text(json.dumps(results, sort_keys=True, indent=1) + "\n")
    sys.exit(0)
