"""Experiment orchestration: single tests, power curves, multi-pair studies.

The single-test pipeline is: ranks -> exceedance angles -> Euclidean
reweighting -> extremal-coefficient inversion for the parameter -> Wasserstein
test statistic -> Monte-Carlo draws of the null law at the estimated
parameter -> p-value and critical values.  Power studies amortize the
Monte-Carlo cost over replicates by tabulating critical values on a parameter
grid and interpolating, and multi-pair analyses apply Bonferroni /
Benjamini-Hochberg corrections to the per-pair p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen
from .empirical import DegenerateDataError, angular_dataset, default_k
from .geometry import WeightKind
from .limitlaw import (
    DESK_GRID,
    FieldGrid,
    LimitLawDraws,
    critical_value_table,
    p_value,
    quantile,
    simulate_L,
)
from .models import QuadratureError, estimate_param, get_law, make_model
from .wasserstein import test_statistic

__all__ = [
    "TestReport",
    "ScenarioConfig",
    "PowerCurve",
    "PairResult",
    "MultiTestReport",
    "run_single_test",
    "run_power_study",
    "bonferroni",
    "benjamini_hochberg",
    "run_pairwise_analysis",
]


@dataclass
class TestReport:
    """Everything needed to reproduce and interpret one goodness-of-fit test."""

    status: str  # "ok" | "degenerate" | "error"
    family: str
    p: float
    q: str
    n: int
    k: int
    K: int = 0
    n_ties: int = 0
    ell_hat: float = math.nan
    r_hat: float = math.nan
    r_clamped: bool = False
    has_negative_weights: bool = False
    t_value: float = math.nan
    p_value: float = math.nan
    critical_values: dict = field(default_factory=dict)
    B: int = 0
    seed: int = 0
    grid: tuple = ()
    message: str = ""

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["critical_values"] = {f"{a:g}": v for a, v in self.critical_values.items()}
        return out


def run_single_test(
    sample: np.ndarray,
    family: str,
    k: int,
    p: float = 2.0,
    q: WeightKind = WeightKind.INV_SQRT_PI4,
    B: int = 500,
    seed: int = 0,
    grid: FieldGrid = DESK_GRID,
    alphas: tuple = (0.9, 0.95, 0.99),
    threads: int = 1,
    draws: LimitLawDraws | None = None,
) -> TestReport:
    """Full goodness-of-fit test of ``family`` on one bivariate sample.

    ``draws`` may supply pre-simulated null draws (they must match the
    estimated parameter); otherwise B draws are simulated at r_hat.
    """
    sample = np.asarray(sample, dtype=float)
    report = TestReport(
        status="ok", family=family, p=p, q=q.value, n=sample.shape[0], k=k,
        B=B, seed=seed, grid=(grid.h, grid.M, grid.N),
    )
    try:
        ds = angular_dataset(sample, k, p)
        report.K = ds.K
        report.n_ties = ds.n_ties
        report.ell_hat = ds.ell_hat_11
        if ds.degenerate:
            report.status = "degenerate"
            report.message = "exceedance set cannot support the weight estimator"
            return report
        report.has_negative_weights = ds.has_negative_weights
        est = estimate_param(family, ds.ell_hat_11)
        report.r_hat = est.r
        report.r_clamped = est.clamped
        model = make_model(family, est.r)
        law = get_law(model, p)
        stat = test_statistic(ds, law, q)
        report.t_value = stat.value
        if draws is None:
            draws = simulate_L(model, p, grid, q, B, base_seed=seed, threads=threads)
        report.p_value = p_value(draws, stat.value)
        report.critical_values = {a: quantile(draws, a) for a in alphas}
    except (DegenerateDataError, QuadratureError) as exc:
        report.status = "error"
        report.message = str(exc)
    return report


@dataclass(frozen=True)
class ScenarioConfig:
    """A power-study description (one mixture scenario over a lambda grid)."""

    family: str = "logistic"
    scenario: int = 2
    lambdas: tuple = (0.0, 0.2, 0.4, 0.6, 0.8)
    n: int = 3000
    k: int = 50
    p: float = 2.0
    q: WeightKind = WeightKind.INV_SQRT_PI4
    B: int = 500
    alpha: float = 0.05
    reps: int = 200
    seed: int = 0
    grid: FieldGrid = DESK_GRID


@dataclass
class PowerCurve:
    """Rejection rates along the mixture-weight grid."""

    lambdas: np.ndarray
    rates: np.ndarray
    ses: np.ndarray
    reps: np.ndarray  # successful replicates per lambda
    failures: np.ndarray
    config: ScenarioConfig
    r_grid: np.ndarray
    critical_alpha: float


def _data_rng(seed: int, lam_index: int, rep: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(lam_index, rep)))
    )


def _r_grid_for(family: str, r_values: np.ndarray) -> np.ndarray:
    """Parameter grid (pitch 0.05 logistic / 0.1 HR) covering observed r̂."""
    pitch = 0.05 if family == "logistic" else 0.1
    lo = math.floor(float(np.min(r_values)) / pitch) * pitch
    hi = math.ceil(float(np.max(r_values)) / pitch) * pitch
    nodes = np.arange(lo, hi + pitch / 2, pitch)
    if family == "logistic":
        # Cap at 0.95: closer to independence the angular measure is nearly
        # atomic and the CDF quadrature may not converge; interp clamps there.
        nodes = np.clip(nodes, 1e-3, 0.95)
    else:
        nodes = np.clip(nodes, 1e-3, 8.0)
    return np.unique(np.round(nodes, 10))


def run_power_study(config: ScenarioConfig, threads: int = 1) -> PowerCurve:
    """Rejection rates over the lambda grid with a shared critical-value table.

    Pass 1 computes (r_hat, T_n) per replicate; pass 2 tabulates the
    (1 - alpha) null quantile on a parameter grid covering the observed r_hat
    range and interpolates the decisions.

    ``threads`` is accepted for the callers' signatures and unused: a thread
    pool over the replicates made the study slower, since they hold the GIL.
    """
    lambdas = np.asarray(config.lambdas, dtype=float)

    def one_rep(li: int, rep: int):
        spec = datagen.scenario_copula(config.scenario, float(lambdas[li]), config.family)
        data = datagen.sample(spec, config.n, _data_rng(config.seed, li, rep))
        ds = angular_dataset(data, config.k, config.p)
        if ds.degenerate:
            return None
        est = estimate_param(config.family, ds.ell_hat_11)
        model = make_model(config.family, est.r)
        try:
            law = get_law(model, config.p)
            stat = test_statistic(ds, law, config.q)
        except QuadratureError:
            return None
        return est.r, stat.value

    stats = {
        (li, rep): one_rep(li, rep) for li in range(lambdas.size) for rep in range(config.reps)
    }
    r_values = np.array([res[0] for res in stats.values() if res is not None])
    if r_values.size == 0:
        raise DegenerateDataError("all replicates failed")
    r_grid = _r_grid_for(config.family, r_values)
    q_level = 1.0 - config.alpha
    table = critical_value_table(
        config.family, config.p, config.grid, config.q,
        r_grid, (q_level,), config.B, seed=config.seed, threads=threads,
    )

    rates = np.empty(lambdas.size)
    ses = np.empty(lambdas.size)
    reps_ok = np.empty(lambdas.size, dtype=int)
    failures = np.empty(lambdas.size, dtype=int)
    for li in range(lambdas.size):
        decisions = []
        nfail = 0
        for rep in range(config.reps):
            res = stats[(li, rep)]
            if res is None:
                nfail += 1
                continue
            r_hat, t_val = res
            decisions.append(t_val > table.interp(r_hat, q_level))
        n_ok = len(decisions)
        rate = float(np.mean(decisions)) if n_ok else math.nan
        rates[li] = rate
        ses[li] = math.sqrt(rate * (1.0 - rate) / n_ok) if n_ok else math.nan
        reps_ok[li] = n_ok
        failures[li] = nfail
    return PowerCurve(
        lambdas=lambdas, rates=rates, ses=ses, reps=reps_ok, failures=failures,
        config=config, r_grid=r_grid, critical_alpha=config.alpha,
    )


def bonferroni(pvalues, alpha: float) -> np.ndarray:
    """Family-wise correction: reject when p <= alpha / m."""
    pvalues = np.asarray(pvalues, dtype=float)
    return pvalues <= alpha / pvalues.size


def benjamini_hochberg(pvalues, alpha: float, dependent: bool = False) -> np.ndarray:
    """Step-up FDR control; the dependent variant divides alpha by H_m."""
    pvalues = np.asarray(pvalues, dtype=float)
    m = pvalues.size
    level = alpha
    if dependent:
        level = alpha / float(np.sum(1.0 / np.arange(1, m + 1)))
    order = np.argsort(pvalues, kind="stable")
    sorted_p = pvalues[order]
    thresholds = level * np.arange(1, m + 1) / m
    passing = np.nonzero(sorted_p <= thresholds)[0]
    out = np.zeros(m, dtype=bool)
    if passing.size:
        cutoff = sorted_p[passing[-1]]
        out = pvalues <= cutoff
    return out


@dataclass
class PairResult:
    label: str
    report: TestReport


@dataclass
class MultiTestReport:
    """Per-pair tests with corrected decisions at level alpha."""

    pairs: list
    alpha: float
    bonferroni_reject: np.ndarray
    bh_reject: np.ndarray
    bh_dependent_reject: np.ndarray


def run_pairwise_analysis(
    table: np.ndarray,
    pairs: list,
    family: str = "hr",
    k: int | None = None,
    p: float = 2.0,
    q: WeightKind = WeightKind.INV_SQRT_PI4,
    B: int = 4000,
    alpha: float = 0.05,
    seed: int = 0,
    grid: FieldGrid = DESK_GRID,
    threads: int = 1,
    labels: list | None = None,
) -> MultiTestReport:
    """Goodness-of-fit tests for a list of column pairs of a data table.

    ``pairs`` holds (i, j) column indices; rows with a missing value in either
    column are dropped per pair; k defaults to round(sqrt(n)) of the complete
    cases.  Null draws are memoized by estimated parameter (common random
    numbers across pairs), which is deterministic and cuts the dominant cost.
    """
    table = np.asarray(table, dtype=float)
    results = []
    draw_cache: dict = {}
    for idx, (c1, c2) in enumerate(pairs):
        label = labels[idx] if labels else f"{c1}-{c2}"
        cols = table[:, [c1, c2]]
        complete = ~np.any(np.isnan(cols), axis=1)
        data = cols[complete]
        n = data.shape[0]
        k_pair = k if k is not None else default_k(n)
        if n < 3 or k_pair >= n:
            report = TestReport(
                status="error", family=family, p=p, q=q.value, n=n, k=k_pair,
                B=B, seed=seed, grid=(grid.h, grid.M, grid.N),
                message="not enough complete cases",
            )
            results.append(PairResult(label, report))
            continue
        # Pre-estimate the parameter so null draws can be shared across pairs
        # with an identical estimate.
        try:
            ds = angular_dataset(data, k_pair, p)
            draws = None
            if not ds.degenerate:
                est = estimate_param(family, ds.ell_hat_11)
                key = round(est.r, 12)
                if key not in draw_cache:
                    model = make_model(family, est.r)
                    draw_cache[key] = simulate_L(
                        model, p, grid, q, B, base_seed=seed, threads=threads
                    )
                draws = draw_cache[key]
        except (DegenerateDataError, QuadratureError):
            draws = None
        report = run_single_test(
            data, family, k_pair, p, q, B, seed=seed, grid=grid,
            threads=threads, draws=draws,
        )
        results.append(PairResult(label, report))

    pvals = np.array([
        res.report.p_value if res.report.status == "ok" else 1.0 for res in results
    ])
    return MultiTestReport(
        pairs=results,
        alpha=alpha,
        bonferroni_reject=bonferroni(pvals, alpha),
        bh_reject=benjamini_hochberg(pvals, alpha, dependent=False),
        bh_dependent_reject=benjamini_hochberg(pvals, alpha, dependent=True),
    )
