"""Reference copula CDFs and a reference sampler: fixed-step bisection.

``copula_cdf`` and ``conditional_cdf`` evaluate C(u, v) and dC/du(u, v) from
the model's ``stdf`` and ``stdf_partials``, not from the one-pass
``stdf_terms`` the sampler uses.  In the reference sampler, U and W are
drawn in the same order as ``datagen.sample`` draws them, and
dC/du(U, v) = W is solved by 60 halvings of [1e-15, 1 - 1e-15].
The interval is below 1e-18 wide at the end, finer than any float in (0, 1)
can resolve, so the result is the root up to the rounding of dC/du.
"""

from __future__ import annotations

import numpy as np

from angular_gof import datagen as dg


def copula_cdf(spec: dg.CopulaSpec, u, v):
    """C(u, v) on the open unit square (vectorized)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.kind == "comonotone":
        out = np.minimum(u, v)
    elif spec.kind == "maxlinear":
        a11, a12, a21, a22 = spec.params
        x, y = -np.log(u), -np.log(v)
        out = np.exp(-(np.maximum(a11 * x, a21 * y) + np.maximum(a12 * x, a22 * y)))
    elif spec.kind == "mixture":
        lam = spec.params[0]
        base, alt = spec.components
        out = (1.0 - lam) * copula_cdf(base, u, v) + lam * copula_cdf(alt, u, v)
    else:
        model = dg._ev_model(spec)
        out = np.exp(-model.stdf(-np.log(u), -np.log(v)))
    return out[()] if np.ndim(out) == 0 else out


def conditional_cdf(spec: dg.CopulaSpec, u, v):
    """dC/du (u, v): a CDF in v.

    Only differentiable-in-u kinds are supported (extreme-value copulas and
    their mixtures); the comonotone and max-linear copulas sample directly.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.kind == "mixture":
        lam = spec.params[0]
        base, alt = spec.components
        out = (1.0 - lam) * conditional_cdf(base, u, v) + lam * conditional_cdf(alt, u, v)
    elif spec.kind in ("gumbel", "hr"):
        model = dg._ev_model(spec)
        x, y = -np.log(u), -np.log(v)
        d1, _ = model.stdf_partials(x, y)
        out = np.exp(-model.stdf(x, y)) * d1 / u
    else:
        raise ValueError(f"conditional_cdf unsupported for kind {spec.kind!r}")
    return out[()] if np.ndim(out) == 0 else out


def sample_conditional_bisection(spec: dg.CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n pairs of the Gumbel or Hüsler–Reiss copula ``spec`` by bisection."""
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    lo = np.full(n, 1e-15)
    hi = np.full(n, 1.0 - 1e-15)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = conditional_cdf(spec, u, mid) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.column_stack([u, 0.5 * (lo + hi)])
