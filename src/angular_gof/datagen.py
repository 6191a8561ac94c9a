"""Samplers for the data-generating copulas used in the experiments.

Extreme-value copulas (Gumbel/logistic and Hüsler–Reiss) are written as
C(u, v) = exp(-ell(-log u, -log v)) with ell the family stdf and sampled by
conditional inversion: with x = -log u and y = -log v the partial derivative
dC/du = C(u, v) ell_x(x, y) / u is a CDF in v whose density is the copula
density c(u, v) = C(u, v) / (u v) * (ell_x ell_y + lambda(x, y)), so
dC/du(u, v) = w is solved for v by Newton steps kept inside a shrinking
bracket (a bisection step whenever Newton would leave it).  The comonotone
copula and the max-linear factor copula are sampled directly;
lambda-mixtures draw their component per observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import HuslerReissModel, LogisticModel, family_class

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


def _ev_model(spec: CopulaSpec):
    if spec.kind == "gumbel":
        return LogisticModel(1.0 / spec.params[0])
    if spec.kind == "hr":
        return HuslerReissModel(spec.params[0])
    raise ValueError(f"{spec.kind} is not an extreme-value copula spec")


# Bracket of the conditional-inversion root and the iteration cap.
_V_LO, _V_HI = 1e-15, 1.0 - 1e-15
_MAX_ITER = 60


def _conditional_terms(model, u, x, v):
    """dC/du(u, v) and the copula density c(u, v), from one stdf evaluation.

    ``x`` is -log u, passed in so that it is computed once per sample.
    """
    ell, dx, dy, lam = model.stdf_terms(x, -np.log(v))
    c_over_u = np.exp(-ell) / u
    return c_over_u * dx, c_over_u / v * (dx * dy + lam)


def _sample_conditional(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Conditional inversion: U, W uniform, solve dC/du(U, v) = W for v.

    Safeguarded Newton from v = W (the root under independence): each
    evaluation moves one end of the bracket [1e-15, 1 - 1e-15] to the
    iterate, and a Newton step that leaves the bracket is replaced by
    bisection.  A point stops at a zero residual, a step of at most 2 ulp, a
    bracket of at most 2 ulp, or a step landing exactly on a bracket end,
    which is taken: near the root the rounding noise of dC/du can make Newton
    jump between two evaluated ends a few ulp apart.  60 evaluations is the
    cap.
    """
    model = _ev_model(spec)
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    x = -np.log(u)
    v = np.clip(w, _V_LO, _V_HI)
    lo = np.full(n, _V_LO)
    hi = np.full(n, _V_HI)
    active = np.arange(n)
    for _ in range(_MAX_ITER):
        va = v[active]
        g, dens = _conditional_terms(model, u[active], x[active], va)
        g -= w[active]
        below = g < 0.0
        lo_a = np.where(below, va, lo[active])
        hi_a = np.where(below, hi[active], va)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = va - g / dens
        inside = (step >= lo_a) & (step <= hi_a)
        new = np.where(g == 0.0, va, np.where(inside, step, 0.5 * (lo_a + hi_a)))
        tol = 2.0 * np.spacing(va)
        on_end = (step == lo_a) | (step == hi_a)
        done = (g == 0.0) | on_end | (np.abs(new - va) <= tol) | (hi_a - lo_a <= tol)
        v[active] = new
        lo[active] = lo_a
        hi[active] = hi_a
        active = active[~done]
        if active.size == 0:
            break
    return np.column_stack([u, v])


def _sample_direct(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "comonotone":
        u = rng.uniform(size=n)
        return np.column_stack([u, u])
    if spec.kind == "maxlinear":
        a11, a12, a21, a22 = spec.params
        z = -1.0 / np.log(rng.uniform(size=(n, 2)))  # Fréchet(1) factors
        x1 = np.maximum(a11 * z[:, 0], a12 * z[:, 1])
        x2 = np.maximum(a21 * z[:, 0], a22 * z[:, 1])
        return np.column_stack([np.exp(-1.0 / x1), np.exp(-1.0 / x2)])
    raise ValueError(f"no direct sampler for kind {spec.kind!r}")


def sample(spec: CopulaSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. pairs with uniform margins and copula ``spec``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
    return _dispatch_sample(spec, n, rng)


def _dispatch_sample(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind in ("gumbel", "hr"):
        return _sample_conditional(spec, n, rng)
    if spec.kind == "mixture":
        return sample(spec, n, rng)
    return _sample_direct(spec, n, rng)
