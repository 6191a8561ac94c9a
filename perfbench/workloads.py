"""The benchmark's workloads: inputs made from a seed, the CLI command, and
the output checks.

Inputs are generated here with numpy and scipy only, never with
``angular_gof.datagen``, so a change to the package's samplers cannot change
what the benchmark feeds it.  Every workload is one ``angular-gof`` command;
settings not given are the CLI defaults (p = 2, ``invsqrt`` weight, desk
grid, one thread).

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import ndtr
from scipy.stats import binom

POWER_REPS = 100
# The critical-value table has one node per 0.1 of the r_hat range over all
# replicates, so its cost follows the extreme r_hat of the seed.  At k = 50
# the range gave 8 to 11 nodes over ten seeds, at k = 100 7 to 9 (mostly 7),
# which keeps the work of a job nearly the same from seed to seed.
POWER_K = 100
POWER_LAMBDAS = (0.0, 0.4, 0.8)
POWER_ALPHA = 0.05
PAIRS_N = 3000
PAIRS_B = 2000
PAIRS_THREADS = 1
QUANTILES_B = 40
QUANTILES_R = (0.3, 0.5, 0.7)
ALPHAS = (0.9, 0.95, 0.99)
# Tail probability outside the binomial band for the null rejection count.
BAND_TAIL = 1e-9

REASONS = ("exception", "status", "replicate", "check")


# -- inputs --------------------------------------------------------------------

def _hr_copula(r: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Hüsler–Reiss copula with ell(1,1) = 2 Phi(r), by conditional inversion:
    given U = u, solve C(u, v) d1ell(x, y) / u = W for v by bisection."""
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
        cond = np.exp(-(x * ndtr(a) + y * ndtr(b))) * ndtr(a) / u
        below = cond < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.column_stack([u, 0.5 * (lo + hi)])


def _maxlinear(n: int, rng: np.random.Generator) -> np.ndarray:
    """Max-linear factor copula with coefficients (0.7, 0.3, 0.1, 0.9)."""
    z = -1.0 / np.log(rng.uniform(size=(n, 2)))
    x1 = np.maximum(0.7 * z[:, 0], 0.3 * z[:, 1])
    x2 = np.maximum(0.1 * z[:, 0], 0.9 * z[:, 1])
    return np.column_stack([np.exp(-1.0 / x1), np.exp(-1.0 / x2)])


def _scenario2(lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Scenario-2 mixture: HR(1) with weight 1 - lam, max-linear with lam."""
    take_alt = rng.uniform(size=n) < lam
    out = np.empty((n, 2))
    out[~take_alt] = _hr_copula(1.0, int(np.count_nonzero(~take_alt)), rng)
    out[take_alt] = _maxlinear(int(np.count_nonzero(take_alt)), rng)
    return out


def pairs_table(seed: int) -> np.ndarray:
    """n x 6 table, NaN for a blank field.

    Columns 0-1: HR(1) with 5 blank fields (2995 complete rows, k = 55).
    Columns 2-3: scenario 2 at lambda = 0.9 with 100 blank fields (2900
    complete rows, k = 54).  A different k means a different ell_hat grid
    (count / k), so this pair never shares r_hat with the first.
    Columns 4-5: a strictly increasing transform of columns 0-1 with the same
    blanks.  Ranks, and so r_hat, equal those of the first pair, which is
    then served by the shared null draws.
    """
    rng = np.random.default_rng(seed)
    n = PAIRS_N
    hr = _hr_copula(1.0, n, rng)
    s2 = _scenario2(0.9, n, rng)
    rows = rng.permutation(n)
    hr[rows[:3], 0] = np.nan
    hr[rows[3:5], 1] = np.nan
    s2[rows[5:55], 0] = np.nan
    s2[rows[55:105], 1] = np.nan
    copy = -1.0 / np.log(hr)
    return np.column_stack([hr, s2, copy])


def write_csv(path, table: np.ndarray, header) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join("" if math.isnan(v) else repr(float(v)) for v in row) + "\n")


class Workload:
    """One CLI command on inputs made from a seed, with its output check."""

    name = ""
    layers = ()  # spans the command must record at least once

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def argv(self, out: str) -> list:
        raise NotImplementedError

    def attempted(self) -> int:
        raise NotImplementedError

    def check(self, payload: dict, out: str) -> tuple:
        """Return (failures by reason, messages) for one output."""
        raise NotImplementedError


class PowerHR(Workload):
    name = "power-hr"
    layers = ("datagen.sample", "empirical.angular_dataset", "models.get_law",
              "wasserstein.test_statistic", "limitlaw.build", "limitlaw.simulate_L")

    def argv(self, out):
        return ["power", "--family", "hr", "--scenario", "2",
                "--lambdas", ",".join(f"{lam:g}" for lam in POWER_LAMBDAS),
                "--n", "3000", "--k", str(POWER_K), "--B", "500",
                "--alpha", f"{POWER_ALPHA:g}",
                "--reps", str(POWER_REPS), "--seed", str(self.seed), "--out", out]

    def attempted(self):
        return POWER_REPS * len(POWER_LAMBDAS)

    def check(self, payload, out):
        fails = dict.fromkeys(REASONS, 0)
        msgs = []
        upper = int(binom.isf(BAND_TAIL, POWER_REPS, POWER_ALPHA))
        lower = int(binom.ppf(BAND_TAIL, POWER_REPS, POWER_ALPHA))
        r_grid = payload["r_grid"]
        steps = np.diff(r_grid)
        grid_ok = (len(r_grid) >= 1 and np.all(steps > 0)
                   and np.allclose(steps, 0.1, atol=1e-9) and r_grid[0] > 0)
        if not grid_ok:
            msgs.append(f"r_grid {r_grid} is not an increasing 0.1-pitch grid")
        for li, lam in enumerate(payload["lambdas"]):
            ok_reps = payload["successful_reps"][li]
            failed = payload["failures"][li]
            rate = payload["rates"][li]
            fails["replicate"] += failed
            bad = []
            if ok_reps + failed != POWER_REPS:
                bad.append(f"successful_reps {ok_reps} + failures {failed} != {POWER_REPS}")
            if not 0.0 <= rate <= 1.0:
                bad.append(f"rate {rate} outside [0, 1]")
            if lam == 0.0 and not lower <= round(rate * ok_reps) <= upper:
                bad.append(f"null rejections {round(rate * ok_reps)} outside [{lower}, {upper}]")
            if bad or not grid_ok:
                fails["check"] += ok_reps
                msgs.extend(f"lambda={lam:g}: {b}" for b in bad)
        return fails, msgs


class PairsHR(Workload):
    name = "pairs-hr"
    layers = ("cli.ingest_csv", "empirical.angular_dataset", "models.get_law",
              "wasserstein.test_statistic", "limitlaw.build", "limitlaw.simulate_L")
    header = ("a1", "a2", "s1", "s2", "c1", "c2")
    pairs = ((0, 1), (2, 3), (4, 5))

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.table = pairs_table(seed)
        self.csv = os.path.join(workdir, "table.csv")
        write_csv(self.csv, self.table, self.header)

    def argv(self, out):
        return ["pairs", self.csv, "--family", "hr", "--B", str(PAIRS_B),
                "--threads", str(PAIRS_THREADS),
                "--pairs", ";".join(f"{i},{j}" for i, j in self.pairs),
                "--seed", str(self.seed), "--out", out]

    def attempted(self):
        return len(self.pairs)

    def check(self, payload, out):
        from angular_gof import (WeightKind, angular_dataset, benjamini_hochberg, bonferroni,
                                 default_k, estimate_param, get_law, make_model,
                                 test_statistic)

        fails = dict.fromkeys(REASONS, 0)
        msgs = []
        reports = payload["pairs"]
        if len(reports) != len(self.pairs):
            return dict(fails, check=self.attempted()), [
                f"{len(reports)} pair reports for {len(self.pairs)} pairs"]
        pvals = np.array([rep["p_value"] if rep["status"] == "ok" else 1.0 for rep in reports])
        alpha = payload["alpha"]
        corrections = {
            "bonferroni_reject": bonferroni(pvals, alpha),
            "bh_reject": benjamini_hochberg(pvals, alpha),
            "bh_dependent_reject": benjamini_hochberg(pvals, alpha, dependent=True),
        }
        failed_checks = set()
        for idx, ((c1, c2), rep) in enumerate(zip(self.pairs, reports)):
            label = f"{self.header[c1]}:{self.header[c2]}"
            if rep["status"] != "ok":
                fails["status"] += 1
                msgs.append(f"{label}: status {rep['status']} ({rep['message']})")
                continue
            data = self.table[:, [c1, c2]]
            data = data[~np.any(np.isnan(data), axis=1)]
            k = default_k(data.shape[0])
            ds = angular_dataset(data, k, 2.0)
            est = estimate_param("hr", ds.ell_hat_11)
            t = test_statistic(ds, get_law(make_model("hr", est.r), 2.0),
                               WeightKind.INV_SQRT_PI4).value
            cv = rep["critical_values"]
            p = rep["p_value"]
            bad = []
            expect = {"label": label, "n": data.shape[0], "k": k, "K": ds.K,
                      "ell_hat": ds.ell_hat_11, "r_hat": est.r}
            bad += [f"{key} {rep[key]!r} != {val!r}" for key, val in expect.items() if rep[key] != val]
            if not abs(rep["t_value"] - t) <= 1e-6 * abs(t):
                bad.append(f"t_value {rep['t_value']!r} != {t!r}")
            if not 0.0 <= p <= 1.0:
                bad.append(f"p_value {p} outside [0, 1]")
            levels = [cv[f"{a:g}"] for a in ALPHAS]
            if any(b < a for a, b in zip(levels, levels[1:])):
                bad.append(f"critical values {levels} decrease in alpha")
            if (rep["t_value"] > cv["0.95"]) != (p <= 0.05):
                bad.append(f"t > cv[0.95] is {rep['t_value'] > cv['0.95']} but p = {p}")
            bad += [f"{key} disagrees with the p-values" for key, want in corrections.items()
                    if rep[key] != bool(want[idx])]
            if bad:
                failed_checks.add(idx)
                msgs.extend(f"{label}: {b}" for b in bad)
        # The third pair has the first pair's ranks, so it shares its draws.
        first, copy = reports[0], reports[2]
        same = ("r_hat", "t_value", "p_value", "critical_values")
        if first["status"] == copy["status"] == "ok" and any(first[f] != copy[f] for f in same):
            failed_checks.add(2)
            msgs.append("rank copy of the first pair got different results")
        fails["check"] = len(failed_checks)
        return fails, msgs


class QuantilesPaper(Workload):
    name = "quantiles-paper"
    layers = ("limitlaw.build", "limitlaw.simulate_L", "models.get_law")

    def argv(self, out):
        return ["quantiles", "--family", "logistic", "--grid", "paper",
                "--r-grid", ",".join(f"{r:g}" for r in QUANTILES_R),
                "--alpha", ",".join(f"{a:g}" for a in ALPHAS), "--B", str(QUANTILES_B),
                "--cache", out + ".cache", "--seed", str(self.seed), "--out", out]

    def attempted(self):
        return len(QUANTILES_R)

    def check(self, payload, out):
        from angular_gof import CriticalValueTable

        fails = dict.fromkeys(REASONS, 0)
        msgs = []
        rows = payload["quantiles"]
        if payload["r_grid"] != list(QUANTILES_R) or len(rows) != len(QUANTILES_R):
            return dict(fails, check=self.attempted()), [
                f"r_grid {payload['r_grid']} with {len(rows)} rows, expected {list(QUANTILES_R)}"]
        try:
            cached = CriticalValueTable.load(out + ".cache")
            cache_ok = (cached.r_grid.tolist() == payload["r_grid"]
                        and cached.quantiles.tolist() == rows
                        and list(cached.alphas) == payload["alphas"])
        except (OSError, ValueError, KeyError) as exc:
            cache_ok = False
            msgs.append(f"cache file unreadable: {exc}")
        if not cache_ok:
            msgs.append("cache file does not load back to the printed table")
        for r, row in zip(payload["r_grid"], rows):
            row_ok = all(math.isfinite(v) and v > 0 for v in row) and all(
                b > a for a, b in zip(row, row[1:]))
            if not row_ok:
                msgs.append(f"r={r:g}: quantiles {row} not finite and increasing")
            if not (row_ok and cache_ok):
                fails["check"] += 1
        return fails, msgs


WORKLOADS = {cls.name: cls for cls in (PowerHR, PairsHR, QuantilesPaper)}
