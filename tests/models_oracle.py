"""Reference angular-law quadrature: one half-arc at one panel count.

``half_arc(model, p, lower, n_panels)`` integrates the angular density over
[0, pi/4] (lower) or [pi/4, pi/2] with its own density evaluation, by the
same substitution, Gauss–Legendre panels and endpoint atom as the package.
The package builds the lower half of several panel counts from one sweep
(``models._arc_sweep``) and mirrors it for the upper half; the tests hold
each of its tables to this construction bit for bit, and check that the
upper half mirrors the lower one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from angular_gof import models as md
from angular_gof.geometry import PI_4, lp_norm


@dataclass(frozen=True)
class HalfArc:
    """Cumulative integrals of phi, f*phi and f^2*phi on ``s_edges``."""

    kappa: float
    s_edges: np.ndarray
    cum: np.ndarray
    cum_f: np.ndarray
    cum_f2: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cum[-1])

    @property
    def total_f(self) -> float:
        return float(self.cum_f[-1])

    @property
    def total_f2(self) -> float:
        return float(self.cum_f2[-1])


def _cumulative(panel: np.ndarray) -> np.ndarray:
    """Cumulative sums of the (n, 8) panel integrals from 0, subnormal panel
    integrals set to zero."""
    sums = panel.sum(axis=1)
    sums[np.abs(sums) < np.finfo(float).tiny] = 0.0
    return np.concatenate([[0.0], np.cumsum(sums)])


def half_arc(model, p: float, lower: bool, n_panels: int) -> HalfArc:
    """One half-arc: theta = (pi/4) s^kappa (lower) or pi/2 - (pi/4) s^kappa,
    cumulated from the arc endpoint inward over ``n_panels`` panels in s."""
    kappa = model.endpoint_kappa()
    tail = model.endpoint_tail_mass(md._THETA_CUT)
    s_cut = 0.0
    if tail > 0.0:
        s_cut = math.exp(math.log(md._THETA_CUT / PI_4) / kappa)
    edges = np.linspace(s_cut, 1.0, n_panels + 1)
    width = np.diff(edges)
    s = (edges[:-1, None] + width[:, None] * md._GL_NODES[None, :]).ravel()
    eps = np.maximum(PI_4 * np.power(s, kappa), 1e-300)
    jac = PI_4 * kappa * np.power(s, kappa - 1.0)
    cos_t, sin_t = np.cos(eps), np.sin(eps)
    if not lower:  # theta = pi/2 - eps swaps cos and sin
        cos_t, sin_t = sin_t, cos_t
    dens = lp_norm(p, cos_t, sin_t) / (cos_t * sin_t) * model.exponent_density(cos_t, sin_t) * jac
    f = (sin_t - cos_t) / lp_norm(p, sin_t, cos_t)
    d = dens.reshape(n_panels, 8)
    fd = f.reshape(n_panels, 8)
    w = md._GL_WEIGHTS[None, :] * width[:, None]
    f_end = -1.0 if lower else 1.0
    return HalfArc(kappa, edges, tail + _cumulative(d * w),
                   f_end * tail + _cumulative(d * fd * w), tail + _cumulative(d * fd * fd * w))
