"""Reference copula CDFs and two conditional-inversion samplers.

``copula_cdf`` and ``conditional_cdf`` evaluate C(u, v) and dC/du(u, v) of a
``datagen`` copula; for the family models, from ``stdf`` and
``stdf_partials``.  The conditional-inversion
samplers draw U and W uniform and solve dC/du(U, v) = W for v:
``sample_conditional`` by safeguarded Newton steps on the copula density from
the one-pass ``stdf_terms``, ``sample_conditional_bisection`` by 60 halvings
of [1e-15, 1 - 1e-15].  That interval is below 1e-18 wide at the end, finer
than any float in (0, 1) can resolve, so the bisection result is the root up
to the rounding of dC/du.  Both draw U and W in the same order.  The package
samples these copulas exactly instead (the models' ``sample``); the tests hold
the inversion samplers to each other and the exact samplers to
``copula_cdf``.
"""

from __future__ import annotations

import numpy as np

from angular_gof import datagen as dg
from angular_gof.models import HuslerReissModel, LogisticModel, _ndtr, _npdf


def stdf_terms(model, x: np.ndarray, y: np.ndarray):
    """(ell, ell_x, ell_y, lambda) of ``model`` at arrays x, y > 0, in one pass.

    Logistic: with a = x/m, b = y/m (m = max(x, y)) and A = a^s + b^s,
    s = 1/r: ell = m A^r, ell_x = (a^s/A)^(1-r), and
    lambda = (s-1) ell_x ell_y / ell.
    Hüsler–Reiss: with a = r + log(x/y)/(2r) and b = 2r - a: ell_x = Phi(a),
    ell_y = Phi(b), ell = x ell_x + y ell_y and lambda = phi(a)/(2 r y).
    """
    r = model.r
    if model.family == "logistic":
        s = 1.0 / r
        m = np.maximum(x, y)
        with np.errstate(under="ignore"):
            a_s = np.power(x / m, s)
            b_s = np.power(y / m, s)
            big = a_s + b_s
            ell = m * np.power(big, r)
            dx = np.power(a_s / big, 1.0 - r)
            dy = np.power(b_s / big, 1.0 - r)
            lam = (s - 1.0) * dx * dy / ell
        return ell, dx, dy, lam
    a = model._z(x, y)
    dx = _ndtr(a)
    dy = _ndtr(2.0 * r - a)
    return x * dx + y * dy, dx, dy, _npdf(a) / (2.0 * r * y)


# Bracket of the conditional-inversion root and the iteration cap.
_V_LO, _V_HI = 1e-15, 1.0 - 1e-15
_MAX_ITER = 60


def conditional_terms(model, u, x, v):
    """dC/du(u, v) and the copula density c(u, v), from one stdf evaluation.

    ``x`` is -log u, passed in so that it is computed once per sample.
    """
    ell, dx, dy, lam = stdf_terms(model, x, -np.log(v))
    c_over_u = np.exp(-ell) / u
    return c_over_u * dx, c_over_u / v * (dx * dy + lam)


def sample_conditional(model, n: int, rng: np.random.Generator) -> np.ndarray:
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
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    x = -np.log(u)
    v = np.clip(w, _V_LO, _V_HI)
    lo = np.full(n, _V_LO)
    hi = np.full(n, _V_HI)
    active = np.arange(n)
    for _ in range(_MAX_ITER):
        va = v[active]
        g, dens = conditional_terms(model, u[active], x[active], va)
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


def copula_cdf(copula, u, v):
    """C(u, v) on the open unit square (vectorized)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(copula, dg.Comonotone):
        out = np.minimum(u, v)
    elif isinstance(copula, dg.MaxLinear):
        x, y = -np.log(u), -np.log(v)
        out = np.exp(-(np.maximum(copula.a11 * x, copula.a21 * y)
                       + np.maximum(copula.a12 * x, copula.a22 * y)))
    elif isinstance(copula, dg.Mixture):
        lam = copula.lam
        out = (1.0 - lam) * copula_cdf(copula.base, u, v) + lam * copula_cdf(copula.alt, u, v)
    else:
        out = np.exp(-copula.stdf(-np.log(u), -np.log(v)))
    return out[()] if np.ndim(out) == 0 else out


def conditional_cdf(copula, u, v):
    """dC/du (u, v): a CDF in v.

    Only copulas differentiable in u are supported (the family models and
    their mixtures); the comonotone and max-linear copulas sample directly.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(copula, dg.Mixture):
        lam = copula.lam
        out = ((1.0 - lam) * conditional_cdf(copula.base, u, v)
               + lam * conditional_cdf(copula.alt, u, v))
    elif isinstance(copula, (LogisticModel, HuslerReissModel)):
        x, y = -np.log(u), -np.log(v)
        d1, _ = copula.stdf_partials(x, y)
        out = np.exp(-copula.stdf(x, y)) * d1 / u
    else:
        raise ValueError(f"conditional_cdf unsupported for {type(copula).__name__}")
    return out[()] if np.ndim(out) == 0 else out


def sample_conditional_bisection(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """n pairs of the copula of a family ``model`` by bisection."""
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    lo = np.full(n, 1e-15)
    hi = np.full(n, 1.0 - 1e-15)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = conditional_cdf(model, u, mid) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.column_stack([u, 0.5 * (lo + hi)])
