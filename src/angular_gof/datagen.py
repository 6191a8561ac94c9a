"""The data-generating copulas of the experiments, and their one sampler.

A copula is any object with ``sample(n, rng)``.  The extreme-value copulas
C(u, v) = exp(-ell(-log u, -log v)) are the family models themselves
(``LogisticModel`` is the Gumbel copula with theta = 1/r,
``HuslerReissModel`` the Hüsler–Reiss copula), each sampled exactly by its
own ``sample``.  This module adds the comonotone copula, the max-linear
factor copula and lambda-mixtures, which draw their component per
observation.  ``sample`` is the entry point; a seed fixes every value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import HuslerReissModel, LogisticModel, Model, family_class

__all__ = [
    "Comonotone",
    "MaxLinear",
    "Mixture",
    "gumbel",
    "husler_reiss",
    "scenario_copula",
    "sample",
]


def gumbel(theta_g: float) -> LogisticModel:
    """Gumbel copula with parameter theta_g >= 1: the logistic model with
    stdf exponent r = 1/theta_g."""
    if theta_g < 1.0:
        raise ValueError("Gumbel parameter must be >= 1")
    return LogisticModel(1.0 / theta_g)


def husler_reiss(r: float) -> HuslerReissModel:
    return HuslerReissModel(r)


@dataclass(frozen=True)
class Comonotone:
    """The comonotone copula: U = V."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(size=n)
        return np.column_stack([u, u])


@dataclass(frozen=True)
class MaxLinear:
    """Max-linear factor copula: X_i = max_j a_ij Z_j with Fréchet(1) factors.

    Rows of the coefficient matrix must sum to 1 so the margins are exactly
    Fréchet(1).
    """

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        if not (math.isclose(self.a11 + self.a12, 1.0) and math.isclose(self.a21 + self.a22, 1.0)):
            raise ValueError("max-linear coefficient rows must each sum to 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = -1.0 / np.log(rng.uniform(size=(n, 2)))  # Fréchet(1) factors
        x1 = np.maximum(self.a11 * z[:, 0], self.a12 * z[:, 1])
        x2 = np.maximum(self.a21 * z[:, 0], self.a22 * z[:, 1])
        return np.column_stack([np.exp(-1.0 / x1), np.exp(-1.0 / x2)])


@dataclass(frozen=True)
class Mixture:
    """The copula ``base`` with weight 1 - lam and ``alt`` with weight lam."""

    lam: float
    base: Copula
    alt: Copula

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The component labels first, then every base draw, then every
        alternative draw, all from ``rng``."""
        take_alt = rng.uniform(size=n) < self.lam
        out = np.empty((n, 2))
        n_base = int(np.count_nonzero(~take_alt))
        n_alt = n - n_base
        if n_base:
            out[~take_alt] = self.base.sample(n_base, rng)
        if n_alt:
            out[take_alt] = self.alt.sample(n_alt, rng)
        return out


Copula = Model | Comonotone | MaxLinear | Mixture


def scenario_copula(scenario: int, lam: float, family: str = "logistic") -> Mixture:
    """The two mixture scenarios of the power studies.

    Scenario 1 contaminates with the comonotone copula, scenario 2 with the
    max-linear factor copula; the base is the family's model at its
    ``scenario_r``: Gumbel(2) (logistic r0 = 0.5) or the Hüsler–Reiss copula
    with r0 = 1.  An unknown family raises ValueError.
    """
    cls = family_class(family)
    base = cls(cls.scenario_r)
    if scenario == 1:
        alt = Comonotone()
    elif scenario == 2:
        alt = MaxLinear(0.7, 0.3, 0.1, 0.9)
    else:
        raise ValueError("scenario must be 1 or 2")
    return Mixture(lam, base, alt)


def sample(copula: Copula, n: int, seed) -> np.ndarray:
    """n i.i.d. pairs with uniform margins and copula ``copula``; ``seed`` is
    a seed or a ``np.random.Generator``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return copula.sample(n, rng)
