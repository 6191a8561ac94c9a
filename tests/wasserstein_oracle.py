"""Reference weighted L1 distance: fixed-step bisection and 64-node cells.

Same partition as ``wasserstein.weighted_l1_distance`` (jumps of F, 0, pi/4
and pi/2), but every crossing of G with a cell's constant is found by 48
halvings of the cell, and every cell is integrated with 64-point
Gauss-Legendre panels, doubled until the cell's own value is stable to
``tol`` (relative).  After 48 halvings a root is known to within
(hi - lo) * 2^-49, about 1e-17 for the cells of a statistic with k = 100,
and up to the rounding of G.
"""

from __future__ import annotations

import numpy as np

from angular_gof.geometry import PI_2, PI_4, WeightKind

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = (_GL_NODES + 1.0) / 2.0
_GL_WEIGHTS = _GL_WEIGHTS / 2.0


def bisect_crossings(G, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized bisection for G(theta) = c on brackets [lo, hi]."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(48):  # interval <= pi/2 shrinks below 2e-15
        mid = 0.5 * (lo + hi)
        below = np.asarray(G(mid)) < c
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def cell_integrals(G, c, lo, hi, singular: bool, tol: float) -> float:
    """Sum over cells of int |c_i - G| (q) dtheta with per-cell doubling."""
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if singular:
        sides = np.where(hi > 0, 1.0, -1.0)
        lo_u, hi_u = np.abs(lo), np.abs(hi)
        lo_u, hi_u = np.minimum(lo_u, hi_u), np.maximum(lo_u, hi_u)

    total = 0.0
    active = np.arange(c.size)
    prev = np.full(c.size, np.nan)
    for n_panels in (1, 2, 4, 8, 16, 32):
        if active.size == 0:
            break
        if singular:
            a, b = lo_u[active], hi_u[active]
        else:
            a, b = lo[active], hi[active]
        width = (b - a) / n_panels
        starts = a[:, None] + width[:, None] * np.arange(n_panels)[None, :]
        nodes = starts[:, :, None] + width[:, None, None] * _GL_NODES[None, None, :]
        w = width[:, None, None] * _GL_WEIGHTS[None, None, :]
        if singular:
            theta = PI_4 + sides[active][:, None, None] * nodes**2
            vals = 2.0 * np.sum(np.abs(c[active][:, None, None] - np.asarray(G(theta))) * w, axis=(1, 2))
        else:
            vals = np.sum(np.abs(c[active][:, None, None] - np.asarray(G(nodes))) * w, axis=(1, 2))
        done = np.abs(vals - prev[active]) <= tol * np.maximum(np.abs(vals), 1e-30)
        prev[active] = vals
        total += float(np.sum(vals[done]))
        active = active[~done]
    if active.size:
        total += float(np.sum(prev[active]))
    return total


def _partition(F, G):
    """Cells (a, b) between the jumps of F, F's value c on each, and crossings."""
    locs = np.asarray(F.locations, dtype=float)
    cuts = np.unique(np.concatenate([[0.0, PI_4, PI_2], locs[(locs > 0) & (locs < PI_2)]]))
    g = np.asarray(G(cuts), dtype=float)
    a0, b0 = cuts[:-1], cuts[1:]
    keep = (b0 - a0) > 1e-15
    a0, b0 = a0[keep], b0[keep]
    ga, gb = g[:-1][keep], g[1:][keep]
    c = np.asarray(F(0.5 * (a0 + b0)), dtype=float)
    return a0, b0, c, (ga - c) * (gb - c) < 0.0


def crossing_brackets(F, G):
    """(c, lo, hi) of the cells on which G crosses F's constant value."""
    a0, b0, c, crossing = _partition(F, G)
    return c[crossing], a0[crossing], b0[crossing]


def weighted_l1_distance(F, G, q: WeightKind, tol: float = 1e-7) -> tuple[float, int]:
    """int_0^{pi/2} |F - G| q dtheta; returns (value, number of cells)."""
    a0, b0, c, crossing = _partition(F, G)
    if np.any(crossing):
        roots = bisect_crossings(G, c[crossing], a0[crossing], b0[crossing])
        a_all = np.concatenate([a0[~crossing], a0[crossing], roots])
        b_all = np.concatenate([b0[~crossing], roots, b0[crossing]])
        c_all = np.concatenate([c[~crossing], c[crossing], c[crossing]])
    else:
        a_all, b_all, c_all = a0, b0, c

    ok = (b_all - a_all) > 1e-15
    a_all, b_all, c_all = a_all[ok], b_all[ok], c_all[ok]
    n_cells = int(a_all.size)

    if q is WeightKind.CONSTANT:
        total = cell_integrals(G, c_all, a_all, b_all, singular=False, tol=tol)
    else:
        right = a_all >= PI_4
        u_lo = np.where(right, np.sqrt(np.maximum(a_all - PI_4, 0.0)), -np.sqrt(np.maximum(PI_4 - a_all, 0.0)))
        u_hi = np.where(right, np.sqrt(np.maximum(b_all - PI_4, 0.0)), -np.sqrt(np.maximum(PI_4 - b_all, 0.0)))
        total = cell_integrals(G, c_all, u_lo, u_hi, singular=True, tol=tol)
    return total, n_cells
