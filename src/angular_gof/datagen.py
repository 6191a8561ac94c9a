"""Samplers for the data-generating copulas used in the experiments.

The extreme-value copulas C(u, v) = exp(-ell(-log u, -log v)) are sampled
exactly, with no root finding: the Gumbel (logistic) copula as a
Marshall–Olkin frailty model with a positive-stable frailty, and the
Hüsler–Reiss copula by extremal functions (Dombry, Engelke & Oesting 2016).
The comonotone copula and the max-linear factor copula are sampled directly;
lambda-mixtures draw their component per observation.  A seed fixes every
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import family_class

__all__ = [
    "CopulaSpec",
    "gumbel",
    "husler_reiss",
    "comonotone",
    "maxlinear",
    "mixture",
    "scenario_copula",
    "sample",
]


@dataclass(frozen=True)
class CopulaSpec:
    """A copula description: one of gumbel / hr / comonotone / maxlinear /
    mixture (with nested component specs)."""

    kind: str
    params: tuple = ()
    components: tuple = ()  # (base, alt) for mixtures

    def describe(self) -> str:
        if self.kind == "mixture":
            lam = self.params[0]
            base, alt = self.components
            return f"mixture(lambda={lam}, base={base.describe()}, alt={alt.describe()})"
        inner = ",".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({inner})"


def gumbel(theta_g: float) -> CopulaSpec:
    """Gumbel copula with parameter theta_g >= 1 (stdf exponent r = 1/theta_g)."""
    if theta_g < 1.0:
        raise ValueError("Gumbel parameter must be >= 1")
    return CopulaSpec("gumbel", (float(theta_g),))


def husler_reiss(r: float) -> CopulaSpec:
    return CopulaSpec("hr", (float(r),))


def comonotone() -> CopulaSpec:
    return CopulaSpec("comonotone")


def maxlinear(a11: float, a12: float, a21: float, a22: float) -> CopulaSpec:
    """Max-linear factor copula: X_i = max_j a_ij Z_j with Fréchet(1) factors.

    Rows of the coefficient matrix must sum to 1 so the margins are exactly
    Fréchet(1).
    """
    if not (math.isclose(a11 + a12, 1.0) and math.isclose(a21 + a22, 1.0)):
        raise ValueError("max-linear coefficient rows must each sum to 1")
    return CopulaSpec("maxlinear", (float(a11), float(a12), float(a21), float(a22)))


def mixture(lam: float, base: CopulaSpec, alt: CopulaSpec) -> CopulaSpec:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    return CopulaSpec("mixture", (float(lam),), (base, alt))


def scenario_copula(scenario: int, lam: float, family: str = "logistic") -> CopulaSpec:
    """The two mixture scenarios of the power studies.

    Scenario 1 contaminates with the comonotone copula, scenario 2 with the
    max-linear factor copula; the base is the family's ``scenario_base``:
    Gumbel(2) (logistic r0 = 0.5) or the Hüsler–Reiss copula with r0 = 1.
    An unknown family raises ValueError.
    """
    base = CopulaSpec(*family_class(family).scenario_base)
    if scenario == 1:
        alt = comonotone()
    elif scenario == 2:
        alt = maxlinear(0.7, 0.3, 0.1, 0.9)
    else:
        raise ValueError("scenario must be 1 or 2")
    return mixture(lam, base, alt)


def _sample_gumbel(theta_g: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Marshall–Olkin frailty: U_j = exp(-(E_j / S)^a), a = 1/theta_g.

    E_1, E_2 are standard exponential and S is positive stable with Laplace
    transform exp(-t^a), drawn by Kanter's representation (Kanter 1975;
    Chambers, Mallows & Stuck 1976) from V uniform on (0, pi] and W standard
    exponential: S^a = sin(aV)^a sin((1-a)V)^(1-a) / (sin(V) W^(1-a)).  It is
    taken in logs, so no power under- or overflows even at theta_g = 1000.
    At theta_g = 1 (independence) S = 1.
    """
    a = 1.0 / theta_g
    e = rng.standard_exponential((n, 2))
    v = np.pi * (1.0 - rng.uniform(size=n))
    w = rng.standard_exponential(n)
    # An exponential draw of exactly 0 (probability about 2^-53) gives U = 1.
    with np.errstate(divide="ignore"):
        log_sa = np.zeros((n, 1))
        if a < 1.0:
            log_sa[:, 0] = (a * np.log(np.sin(a * v))
                            + (1.0 - a) * np.log(np.sin((1.0 - a) * v))
                            - np.log(np.sin(v)) - (1.0 - a) * np.log(w))
        return np.exp(-np.exp(a * np.log(e) - log_sa))


def _sample_hr(r: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Extremal functions (Dombry, Engelke & Oesting 2016, Algorithm 1), d = 2.

    The stdf has variogram 4r^2, so under the j-th tilted law the other
    log-coordinate is N(-2r^2, 4r^2).  The unit Fréchet values Z_j are kept
    as T_j = 1/Z_j.  Site 1 takes one Poisson point: T_1 = E and
    T_2 = T_1 exp(2r^2 - 2rN).  Site 2 walks the Poisson points 1/t,
    t = E_1 + ... + E_m, while t < T_2 (the point lies above Z_2); the first
    with T_1 exp(2rN' - 2r^2) < t (its function stays below Z_1) sets
    T_2 = t and ends the walk.  Each round draws one exponential per walking
    point and one normal per point still above Z_2, so the number of draws
    depends on the data, but a seed fixes every value.  U_j = exp(-T_j).
    """
    s, m = 2.0 * r, 2.0 * r * r
    t1 = rng.standard_exponential(n)
    t2 = t1 * np.exp(m - s * rng.standard_normal(n))
    idx = np.arange(n)
    t = np.zeros(n)
    while idx.size:
        t += rng.standard_exponential(idx.size)
        above = t < t2[idx]
        idx, t = idx[above], t[above]
        hit = t1[idx] * np.exp(s * rng.standard_normal(idx.size) - m) < t
        t2[idx[hit]] = t[hit]
        idx, t = idx[~hit], t[~hit]
    return np.column_stack([np.exp(-t1), np.exp(-t2)])


def sample(spec: CopulaSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. pairs with uniform margins and copula ``spec``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _dispatch_sample(spec, n, rng)


def _dispatch_sample(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "gumbel":
        return _sample_gumbel(spec.params[0], n, rng)
    if spec.kind == "hr":
        return _sample_hr(spec.params[0], n, rng)
    if spec.kind == "comonotone":
        u = rng.uniform(size=n)
        return np.column_stack([u, u])
    if spec.kind == "maxlinear":
        a11, a12, a21, a22 = spec.params
        z = -1.0 / np.log(rng.uniform(size=(n, 2)))  # Fréchet(1) factors
        x1 = np.maximum(a11 * z[:, 0], a12 * z[:, 1])
        x2 = np.maximum(a21 * z[:, 0], a22 * z[:, 1])
        return np.column_stack([np.exp(-1.0 / x1), np.exp(-1.0 / x2)])
    if spec.kind == "mixture":
        lam = spec.params[0]
        base, alt = spec.components
        take_alt = rng.uniform(size=n) < lam
        out = np.empty((n, 2))
        n_base = int(np.count_nonzero(~take_alt))
        n_alt = n - n_base
        # Component draws happen in a fixed order for reproducibility.
        if n_base:
            out[~take_alt] = _dispatch_sample(base, n_base, rng)
        if n_alt:
            out[take_alt] = _dispatch_sample(alt, n_alt, rng)
        return out
    raise ValueError(f"no sampler for kind {spec.kind!r}")
