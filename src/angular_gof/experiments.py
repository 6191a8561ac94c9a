"""Experiment orchestration: one fit, single tests, power curves, pairs.

``fit_all`` is the one place samples are fitted: ranks -> exceedance angles
-> Euclidean reweighting -> extremal-coefficient inversion for the parameter
-> Wasserstein test statistic, the last for all samples in one pass; ``fit``
is its batch of one.  ``run_single_test`` adds Monte-Carlo draws of the null
law at the estimate, the p-value and critical values.  Power studies fit the
replicates of each mixture weight as one batch and interpolate one table of
critical values on a parameter grid; multi-pair analyses run one single test
per column pair, with Bonferroni / Benjamini-Hochberg corrections of the
p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen
from .empirical import AngularDataset, DegenerateDataError, angular_dataset, default_k
from .geometry import WeightKind
from .limitlaw import (DESK_GRID, FieldGrid, critical_value_table, keyed_rng, p_value, quantile,
                       simulate_L)
from .models import (Model, ParamEstimate, QuadratureError, estimate_param, family_class,
                     get_law, make_model)
from .wasserstein import TestStatistic, test_statistic

__all__ = [
    "Fit",
    "TestReport",
    "ScenarioConfig",
    "PowerCurve",
    "PairResult",
    "MultiTestReport",
    "fit",
    "fit_all",
    "run_single_test",
    "run_power_study",
    "bonferroni",
    "benjamini_hochberg",
    "run_pairwise_analysis",
]


@dataclass
class Fit:
    """A sample fitted to a family, as far as the fit got: status "ok" sets
    every field, "degenerate" only ``dataset`` (ties reach the top k ranks of
    a margin, or the exceedances cannot support the weight estimator),
    "error" the fields computed before the ``DegenerateDataError`` or
    ``QuadratureError`` named in ``message``."""

    status: str = "ok"
    message: str = ""
    dataset: AngularDataset | None = None
    estimate: ParamEstimate | None = None
    model: Model | None = None
    statistic: TestStatistic | None = None


def fit(sample: np.ndarray, family: str, k: int, p: float = 2.0,
        q: WeightKind = WeightKind.INV_SQRT_PI4) -> Fit:
    """Angular dataset of the top k, r_hat from ell_hat(1,1), and T_n: the
    batch of one of ``fit_all``."""
    return fit_all([sample], family, k, p, q)[0]


def fit_all(samples, family: str, k: int, p: float = 2.0,
            q: WeightKind = WeightKind.INV_SQRT_PI4) -> list[Fit]:
    """``fit`` of every sample of an iterable, in order.

    Each sample is ranked, reweighted and estimated on its own as it is
    drawn from the iterable; only its angular dataset is kept.  The
    statistics of all samples that get that far come from one
    ``test_statistic`` call.
    """
    fits, laws = [], []
    for sample in samples:
        out = Fit()
        fits.append(out)
        try:
            out.dataset = angular_dataset(sample, k, p)
            tied = [(j + 1, n) for j, n in enumerate(out.dataset.top_ties) if n]
            if tied:
                out.status = "degenerate"
                out.message = "; ".join(
                    f"ties reach the top k = {k} ranks of margin {j} ({n} tied values)"
                    for j, n in tied)
                continue
            if out.dataset.degenerate:
                out.status = "degenerate"
                out.message = "exceedance set cannot support the weight estimator"
                continue
            out.estimate = estimate_param(family, out.dataset.ell_hat_11)
            out.model = make_model(family, out.estimate.r)
            laws.append(get_law(out.model, p))
        except (DegenerateDataError, QuadratureError) as exc:
            out.status, out.message = "error", str(exc)
    fitted = [out for out in fits if out.status == "ok"]
    if fitted:
        batch = test_statistic([out.dataset for out in fitted], laws, q)
        for out, stat in zip(fitted, batch.statistics):
            out.statistic = stat
    return fits


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
) -> TestReport:
    """Full goodness-of-fit test of ``family`` on one bivariate sample.

    B null draws at r_hat come from ``simulate_L``, which returns the kept
    draws of an earlier call with the same r_hat, p, q, B, seed and grid.
    A ``QuadratureError`` or ``LinAlgError`` of the draws gives status
    "error" with its message.
    """
    res = fit(sample, family, k, p, q)
    report = TestReport(
        status=res.status, family=family, p=p, q=q.value, n=len(sample), k=k,
        B=B, seed=seed, grid=(grid.h, grid.M, grid.N), message=res.message,
    )
    ds, est = res.dataset, res.estimate
    if ds is not None:
        report.K, report.n_ties, report.ell_hat = ds.K, ds.n_ties, ds.ell_hat_11
    if est is not None:
        report.has_negative_weights = ds.has_negative_weights
        report.r_hat, report.r_clamped = est.r, est.clamped
    if res.status != "ok":
        return report
    report.t_value = res.statistic.value
    try:
        draws = simulate_L(res.model, p, grid, q, B, base_seed=seed)
    except (QuadratureError, np.linalg.LinAlgError) as exc:
        report.status, report.message = "error", str(exc)
        return report
    report.p_value = p_value(draws, report.t_value)
    report.critical_values = {a: quantile(draws, a) for a in alphas}
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
    r_grid: np.ndarray


def _r_grid_for(family: str, r_values: np.ndarray) -> np.ndarray:
    """Parameter grid at the family's pitch covering observed r̂, capped."""
    cls = family_class(family)
    pitch = cls.grid_pitch
    lo = math.floor(float(np.min(r_values)) / pitch) * pitch
    hi = math.ceil(float(np.max(r_values)) / pitch) * pitch
    nodes = np.clip(np.arange(lo, hi + pitch / 2, pitch), 1e-3, cls.grid_cap)
    return np.unique(np.round(nodes, 10))


def run_power_study(config: ScenarioConfig, threads: int = 1) -> PowerCurve:
    """Rejection rates over the lambda grid with a shared critical-value table.

    Pass 1 computes (r_hat, T_n) per replicate; pass 2 tabulates the
    (1 - alpha) null quantile on a parameter grid covering the observed r_hat
    range and interpolates the decisions.  A seed below 0 raises ValueError
    before any data are drawn.

    ``threads`` is accepted and ignored, for callers that pass it: a thread
    pool over the replicates made the study slower, since they hold the GIL.
    """
    if config.seed < 0:
        raise ValueError(f"seed must be at least 0, got {config.seed}")
    lambdas = np.asarray(config.lambdas, dtype=float)
    # (r_hat, T_n) per replicate, None where the fit failed; one batch per lambda.
    fits = []
    for li, lam in enumerate(lambdas.tolist()):
        spec = datagen.scenario_copula(config.scenario, lam, config.family)
        samples = (datagen.sample(spec, config.n, keyed_rng(config.seed, li, rep))
                   for rep in range(config.reps))
        fits.append([(res.estimate.r, res.statistic.value) if res.status == "ok" else None
                     for res in fit_all(samples, config.family, config.k, config.p, config.q)])
    r_values = np.array([res[0] for row in fits for res in row if res is not None])
    if r_values.size == 0:
        raise DegenerateDataError("all replicates failed")
    r_grid = _r_grid_for(config.family, r_values)
    q_level = 1.0 - config.alpha
    table = critical_value_table(
        config.family, config.p, config.grid, config.q,
        r_grid, (q_level,), config.B, seed=config.seed,
    )
    decisions = [
        [t_val > table.interp(r_hat, q_level) for r_hat, t_val in filter(None, row)]
        for row in fits
    ]
    reps_ok = np.array([len(row) for row in decisions])
    failures = config.reps - reps_ok
    rates = np.array([float(np.mean(row)) if row else math.nan for row in decisions])
    ses = np.array([math.sqrt(rate * (1.0 - rate) / n_ok) if n_ok else math.nan
                    for rate, n_ok in zip(rates.tolist(), reps_ok.tolist())])
    return PowerCurve(
        lambdas=lambdas, rates=rates, ses=ses, reps=reps_ok, failures=failures,
        r_grid=r_grid,
    )


def bonferroni(pvalues, alpha: float) -> np.ndarray:
    """Family-wise correction: reject when p <= alpha / m."""
    pvalues = np.asarray(pvalues, dtype=float)
    return pvalues <= alpha / max(pvalues.size, 1)


def benjamini_hochberg(pvalues, alpha: float, dependent: bool = False) -> np.ndarray:
    """Step-up FDR control; the dependent variant divides alpha by H_m."""
    pvalues = np.asarray(pvalues, dtype=float)
    m = pvalues.size
    if m == 0:
        return np.zeros(0, dtype=bool)
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
    labels: list | None = None,
) -> MultiTestReport:
    """Goodness-of-fit tests for a list of column pairs of a data table.

    ``pairs`` holds (i, j) column indices; rows with a missing value in either
    column are dropped per pair; k defaults to round(sqrt(n)) of the complete
    cases.  Every pair draws at one seed (common random numbers), so a pair
    whose estimate equals an earlier pair's gets that pair's kept draws from
    ``simulate_L``, and the others reuse its kept normals.
    """
    table = np.asarray(table, dtype=float)
    results = []
    for idx, (c1, c2) in enumerate(pairs):
        label = labels[idx] if labels else f"{c1}-{c2}"
        cols = table[:, [c1, c2]]
        data = cols[~np.any(np.isnan(cols), axis=1)]
        n = data.shape[0]
        k_pair = k if k is not None else default_k(n)
        if n < 3 or k_pair >= n:
            message = (f"fewer than 3 complete cases: n={n}, k={k_pair}" if n < 3 else
                       f"k must be below the number of complete cases: k={k_pair} >= n={n}")
            report = TestReport(
                status="error", family=family, p=p, q=q.value, n=n, k=k_pair,
                B=B, seed=seed, grid=(grid.h, grid.M, grid.N), message=message,
            )
        else:
            report = run_single_test(data, family, k_pair, p, q, B, seed=seed, grid=grid)
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
