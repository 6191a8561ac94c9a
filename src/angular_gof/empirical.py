"""Rank-based nonparametric estimation of the angular measure.

Marginal ranks, Pareto-scale exceedance selection, pseudo-angles, the
empirical angular probability measure with its maximum Euclidean likelihood
reweighting, and the rank-based empirical stable tail dependence function.
Everything here depends on the data only through the ranks, so the results
are invariant under strictly increasing marginal transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry

__all__ = [
    "DegenerateDataError",
    "AngularDataset",
    "StepCDF",
    "compute_ranks",
    "select_exceedances",
    "euclidean_weights",
    "angular_dataset",
    "empirical_angular_cdf",
    "empirical_stdf",
    "default_k",
]


class DegenerateDataError(ValueError):
    """Raised when the exceedance set cannot support the weight estimator."""


def compute_ranks(sample: np.ndarray) -> np.ndarray:
    """Per-margin ranks in {1..n}; ties broken by order of appearance.

    The first occurrence of a tied value receives the smaller rank, which
    keeps runs deterministic on real data with rounding ties.
    """
    return _rank(sample)[0]


def _rank(sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``compute_ranks`` of ``sample`` and, per margin, which neighbours of
    its values in rank order are equal: an (n, 2) rank array and a (2, n - 1)
    boolean array.

    Each column is ordered by numpy's default (unstable) sort; only a column
    whose sorted values have equal neighbours is sorted again with the
    stable sort.  Without ties the order is unique, so the ranks are those of
    the stable sort either way; the sorted values are the same in both.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2 or sample.shape[1] != 2 or sample.shape[0] < 2:
        raise ValueError("sample must be an (n, 2) array with n >= 2")
    if np.any(np.isnan(sample)):
        raise ValueError("sample contains NaN entries")
    n = sample.shape[0]
    ranks = np.empty_like(sample, dtype=np.int64)
    equal = np.empty((2, n - 1), dtype=bool)
    for j in range(2):
        col = sample[:, j]
        order = np.argsort(col)
        ordered = col[order]
        np.equal(ordered[1:], ordered[:-1], out=equal[j])
        if equal[j].any():
            order = np.argsort(col, kind="stable")
        ranks[order, j] = np.arange(1, n + 1)
    return ranks, equal


@dataclass
class AngularDataset:
    """Exceedance angles with their (possibly reweighted) masses."""

    k: int
    K: int
    angles: np.ndarray  # sorted, in [0, pi/2]
    weights: np.ndarray  # sums to 1
    p: float
    degenerate: bool = False
    has_negative_weights: bool = False
    n_ties: int = 0
    top_ties: tuple = (0, 0)  # per margin, tied values at ranks above n - k
    ell_hat_11: float = float("nan")

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)


@dataclass
class StepCDF:
    """Right-continuous step function with jumps at sorted locations."""

    locations: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.cumulative = np.asarray(self.cumulative, dtype=float)

    def __call__(self, theta):
        idx = np.searchsorted(self.locations, np.asarray(theta, dtype=float), side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        out = padded[idx]
        return out[()] if np.ndim(theta) == 0 else out


def _survivors(ranks: np.ndarray) -> np.ndarray:
    """Rank-based survival counts n + 1 - R_ij (always in {1..n})."""
    n = ranks.shape[0]
    return (n + 1 - ranks).astype(float)


def _check_k(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def select_exceedances(sample: np.ndarray, k: int, p: float) -> AngularDataset:
    """Pareto-scale exceedance angles with uniform weights 1/K.

    A point exceeds when (n+1-R_1)^(-p) + (n+1-R_2)^(-p) >= k^(-p) (for
    p = inf: min(n+1-R_1, n+1-R_2) <= k); its pseudo-angle is
    arctan{(n+1-R_2) / (n+1-R_1)} (uniform-scale coordinates).
    """
    sample = np.asarray(sample, dtype=float)
    _check_k(sample.shape[0], k)
    return _exceedances(*_rank(sample), k, p)


def _exceedances(ranks: np.ndarray, equal: np.ndarray, k: int, p: float) -> AngularDataset:
    """``select_exceedances`` on the ranks and equal neighbours of ``_rank``.

    ``n_ties`` counts the equal neighbours of both margins; per margin,
    ``top_ties`` counts those whose upper value has a rank above n - k, so a
    tie across the threshold rank counts too.
    """
    s = _survivors(ranks)
    n = ranks.shape[0]
    n_ties = int(np.count_nonzero(equal))
    top_ties = tuple(int(np.count_nonzero(row[n - k - 1:])) for row in equal)
    if math.isinf(p):
        mask = np.minimum(s[:, 0], s[:, 1]) <= k
    else:
        # (k/s1)^p + (k/s2)^p >= 1, stable for large p.
        mask = np.power(k / s[:, 0], p) + np.power(k / s[:, 1], p) >= 1.0
    K = int(np.count_nonzero(mask))
    if K == 0:
        return AngularDataset(
            k=k, K=0, angles=np.empty(0), weights=np.empty(0), p=p,
            degenerate=True, n_ties=n_ties, top_ties=top_ties,
        )
    angles = np.sort(np.arctan2(s[mask, 1], s[mask, 0]))
    weights = np.full(K, 1.0 / K)
    return AngularDataset(
        k=k, K=K, angles=angles, weights=weights, p=p,
        degenerate=False, n_ties=n_ties, top_ties=top_ties,
    )


def euclidean_weights(angles: np.ndarray, p: float) -> np.ndarray:
    """Closed-form maximum Euclidean likelihood weights.

    Solves min sum (K p_j - 1)^2 subject to sum p_j = 1 and
    sum p_j f(theta_j) = 0; the solution may have negative entries, which are
    deliberately preserved (truncation would break the constraint identities).
    """
    angles = np.asarray(angles, dtype=float)
    K = angles.size
    if K < 2:
        raise DegenerateDataError("need at least two exceedance angles")
    fvals = geometry.constraint_f(p, angles)
    fbar = float(np.mean(fvals))
    var_f = float(np.mean((fvals - fbar) ** 2))
    if var_f <= 0.0:
        raise DegenerateDataError("all exceedance angles coincide (sigma_f^2 = 0)")
    return (1.0 - (fbar / var_f) * (fvals - fbar)) / K


def angular_dataset(sample: np.ndarray, k: int, p: float) -> AngularDataset:
    """Full pipeline: exceedances, Euclidean weights, and ell_hat(1,1).

    The ranks are computed once and shared by both estimators.
    """
    sample = np.asarray(sample, dtype=float)
    _check_k(sample.shape[0], k)
    ranks, equal = _rank(sample)
    ds = _exceedances(ranks, equal, k, p)
    ds.ell_hat_11 = _stdf(ranks, k, 1.0, 1.0)
    if ds.degenerate:
        return ds
    try:
        ds.weights = euclidean_weights(ds.angles, p)
    except DegenerateDataError:
        ds.degenerate = True
        return ds
    ds.has_negative_weights = bool(np.any(ds.weights < 0.0))
    return ds


def empirical_angular_cdf(dataset: AngularDataset) -> StepCDF:
    """Step CDF of the empirical angular probability measure with the
    dataset's weights."""
    if dataset.degenerate or dataset.K == 0:
        raise DegenerateDataError("cannot build a CDF from a degenerate dataset")
    # Merge coincident angles so the step function has strictly increasing jumps.
    locations, inverse = np.unique(dataset.angles, return_inverse=True)
    masses = np.bincount(inverse, weights=dataset.weights, minlength=locations.size)
    cumulative = np.cumsum(masses)
    # The weights sum to 1, but the running sum can end a few ulp off it; a
    # step CDF ending short of 1 crosses G spuriously in the last cell.
    cumulative[-1] = 1.0
    return StepCDF(locations, cumulative)


def empirical_stdf(sample: np.ndarray, k: int, x1: float, x2: float) -> float:
    """Rank-based empirical stdf with the 1/2 finite-sample shift."""
    sample = np.asarray(sample, dtype=float)
    _check_k(sample.shape[0], k)
    return _stdf(compute_ranks(sample), k, x1, x2)


def _stdf(ranks: np.ndarray, k: int, x1: float, x2: float) -> float:
    """``empirical_stdf`` on ranks already computed from the sample."""
    n = ranks.shape[0]
    hit = (ranks[:, 0] > n + 0.5 - k * x1) | (ranks[:, 1] > n + 0.5 - k * x2)
    return float(np.count_nonzero(hit)) / k


def default_k(n: int) -> int:
    """k = sqrt(n), rounded half-up (e.g. n = 428 gives k = 21)."""
    return int(math.floor(math.sqrt(n) + 0.5))
