"""Reference sampler for the extreme-value copulas: fixed-step bisection.

U and W are drawn in the same order as ``datagen.sample`` draws them, and
dC/du(U, v) = W is solved by 60 halvings of [1e-15, 1 - 1e-15], evaluating
``datagen.conditional_cdf`` (built from the model's ``stdf`` and
``stdf_partials``, not from the one-pass ``stdf_terms`` the sampler uses).
The interval is below 1e-18 wide at the end, finer than any float in (0, 1)
can resolve, so the result is the root up to the rounding of dC/du.
"""

from __future__ import annotations

import numpy as np

from angular_gof import datagen as dg


def sample_conditional_bisection(spec: dg.CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n pairs of the Gumbel or Hüsler–Reiss copula ``spec`` by bisection."""
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    lo = np.full(n, 1e-15)
    hi = np.full(n, 1.0 - 1e-15)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = dg.conditional_cdf(spec, u, mid) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.column_stack([u, 0.5 * (lo + hi)])
