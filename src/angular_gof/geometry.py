"""Geometry of the positive L_p unit-sphere arc and exceedance regions.

Pure functions shared by every other module: L_p norms, the boundary curve
y_p of the unit-level exceedance region, the sphere parametrization x_p(theta),
and the moment-constraint function f (with derivative) used by the
Euclidean-likelihood weights, plus the exact cell integrals of the weight
functions q for the Wasserstein integral.

Conventions: all angles are in radians; p = infinity is represented by the
distinguished float ``math.inf`` and all branch points (theta = 0, x = 1) are
handled explicitly.
"""

from __future__ import annotations

import enum
import math

import numpy as np

INF = math.inf

PI_4 = math.pi / 4.0
PI_2 = math.pi / 2.0


def lp_norm(p: float, x1, x2):
    """L_p norm of the nonnegative pair (x1, x2).

    Computed stably by factoring out the largest component, so that large
    arguments never overflow under the power.  Accepts scalars or arrays.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 < 0) or np.any(x2 < 0):
        raise ValueError("lp_norm requires nonnegative components")
    big = np.maximum(x1, x2)
    if math.isinf(p):
        return big[()] if big.ndim == 0 else big
    if p == 1:
        out = x1 + x2
        return out[()] if out.ndim == 0 else out
    with np.errstate(invalid="ignore", divide="ignore"):
        small = np.minimum(x1, x2)
        ratio = np.where(big > 0, small / big, 0.0)
        # ratio is NaN where big = inf and small = inf; those norms are inf.
        ratio = np.where(np.isnan(ratio), 1.0, ratio)
        out = big * np.power(1.0 + np.power(ratio, p), 1.0 / p)
    out = np.where(big == 0, 0.0, out)
    out = np.where(np.isinf(big), np.inf, out)
    return out[()] if out.ndim == 0 else out


def y_p(p: float, x):
    """Upper boundary of the exceedance region at abscissa x.

    Returns inf for x in [0, 1] (for finite p; the x = 1 value is the limit
    from the right) and (1 + 1/(x^p - 1))^(1/p) for x > 1.  For p = inf the
    boundary is flat: y = 1 for every x >= 1.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("y_p requires x >= 0")
    if math.isinf(p):
        out = np.where(x >= 1.0, 1.0, np.inf)
        return out[()] if out.ndim == 0 else out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xp = np.power(x, p)
        denom = xp - 1.0
        val = np.power(1.0 + 1.0 / denom, 1.0 / p)
    # x^p may overflow to inf for huge x; then val -> 1 which is the limit.
    val = np.where(np.isinf(xp), 1.0, val)
    out = np.where(x > 1.0, val, np.inf)
    return out[()] if out.ndim == 0 else out


def y_p_prime_abs(p: float, x):
    """|y_p'(x)| = (x^p - 1)^(-(1 + 1/p)) for finite p and x > 1."""
    if math.isinf(p):
        raise ValueError("y_p_prime_abs requires finite p")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 1.0):
        raise ValueError("y_p_prime_abs requires x > 1")
    out = np.power(np.power(x, p) - 1.0, -(1.0 + 1.0 / p))
    return out[()] if out.ndim == 0 else out


def x_p_of_theta(p: float, theta):
    """x_p(theta) = ||(1, cot(theta))||_p for theta in (0, pi/2]."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0) or np.any(theta > PI_2):
        raise ValueError("x_p_of_theta requires theta in (0, pi/2]")
    cot = np.cos(theta) / np.sin(theta)
    out = lp_norm(p, np.ones_like(cot), np.abs(cot))
    return out


def constraint_f(p: float, theta):
    """Moment-constraint function f(theta) = (sin - cos)/||(sin, cos)||_p."""
    theta = np.asarray(theta, dtype=float)
    s, c = np.sin(theta), np.cos(theta)
    out = (s - c) / lp_norm(p, np.abs(s), np.abs(c))
    return out[()] if out.ndim == 0 else out


def constraint_f_prime(p: float, theta):
    """Derivative of constraint_f for finite p; always in [0, 2]."""
    if math.isinf(p):
        raise ValueError("constraint_f_prime requires finite p")
    theta = np.asarray(theta, dtype=float)
    s, c = np.sin(theta), np.cos(theta)
    nrm = lp_norm(p, np.abs(s), np.abs(c))
    out = (np.power(s, p - 1.0) + np.power(c, p - 1.0)) / np.power(nrm, 1.0 + p)
    return out[()] if out.ndim == 0 else out


class WeightKind(enum.Enum):
    """Weight functions q(theta) for the Wasserstein integral."""

    CONSTANT = "const"
    INV_SQRT_PI4 = "invsqrt"

    @classmethod
    def from_name(cls, name: str) -> "WeightKind":
        for kind in cls:
            if kind.value == name or kind.name == name:
                return kind
        raise ValueError(f"unknown weight kind {name!r}")


def weight_q_cell_integral(kind: WeightKind, a, b):
    """Exact integral of q over [a, b] via the closed-form antiderivative.

    For the singular kind the antiderivative is sign(t - pi/4) 2 sqrt|t - pi/4|,
    which is finite through the singularity, so cells abutting pi/4 are exact.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind is WeightKind.CONSTANT:
        out = b - a
    elif kind is WeightKind.INV_SQRT_PI4:

        def anti(t):
            d = t - PI_4
            return np.sign(d) * 2.0 * np.sqrt(np.abs(d))

        out = anti(b) - anti(a)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown weight kind {kind!r}")
    return out[()] if np.ndim(out) == 0 else out
