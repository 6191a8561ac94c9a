"""Weighted L1-Wasserstein distance between a step CDF and a smooth CDF.

The test statistic is T_n = sqrt(k) * int_0^{pi/2} |F - G| q dtheta with F the
reweighted empirical angular CDF and G the fitted parametric one.  The
integral is computed cellwise: between consecutive jumps of F the integrand is
|c - G(theta)| for a constant c, smooth except at the (at most one) crossing
of G with c.  The crossing is found by a safeguarded regula falsi (the
Anderson-Bjorck variant) started from the residuals at the cell ends, which
are already known, so a statistic usually needs 4 to 6 evaluations of G for
all its crossings together.  Each piece is integrated with the 15-point
Gauss-Kronrod rule and accepted when the embedded 7-point Gauss value agrees
with it to ``_TOL`` relative to the piece or to the mean piece, whichever is
larger; the few pieces that fail (among them the end cells, where G has a
power singularity) go on to 2, 4, ... Kronrod panels until two levels agree.
Cells are mapped through u = sqrt(|theta - pi/4|) for the singular weight so
the transformed integrand is bounded and no quadrature node ever touches
pi/4.

Several statistics are computed in one pass: the cells of all datasets go
through one crossing search and one panel ladder, each cell keeps the index
of its dataset for the convergence floor and the sums, and each law is
called once per step on the points of the datasets that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PI_2, PI_4, WeightKind
from .empirical import AngularDataset, StepCDF, empirical_angular_cdf

__all__ = ["TestStatistic", "StatisticBatch", "weighted_l1_distance", "test_statistic"]

# QUADPACK qk15 (Piessens, de Doncker, Ueberhuber & Kahaner 1983): the
# Kronrod abscissae on [-1, 1] from 1 down to 0, their weights, and the
# weights of the 7-point Gauss rule on every other abscissa.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])


def _mirror(half: np.ndarray, sign: float) -> np.ndarray:
    """Values on the 15 abscissae in increasing order from those on 1 .. 0."""
    return np.concatenate([sign * half[:-1], half[::-1]])


# Both rules on [0, 1]: nodes increasing, weight columns (K15, G7).
_GK_NODES = (_mirror(_XGK, -1.0) + 1.0) / 2.0
_WG_ON_XGK = np.zeros(8)
_WG_ON_XGK[1::2] = _WG
_GK_WEIGHTS = np.column_stack([_mirror(_WGK, 1.0), _mirror(_WG_ON_XGK, 1.0)]) / 2.0
_ROOT_MAX_EVALS = 48  # enough to bisect a bracket of pi/2 below 6e-15
# Relative agreement at which a piece's quadrature is accepted.
_TOL = 1e-7


@dataclass(frozen=True)
class TestStatistic:
    """sqrt(k)-scaled weighted Wasserstein distance."""

    value: float
    k: int
    weight_kind: WeightKind
    n_cells: int


@dataclass(frozen=True)
class StatisticBatch:
    """Statistics of several datasets from one pass, in dataset order;
    ``n_cells`` is the number of cells of all of them."""

    statistics: tuple
    n_cells: int


def _regula_falsi_crossings(G, c, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Vectorized Anderson-Bjorck iteration for G(theta) = c on [lo, hi].

    ``G(x, rows)`` evaluates G at ``x[i]`` for bracket ``rows[i]`` (the
    brackets may belong to different G).  ``f_lo = G(lo) - c`` and
    ``f_hi = G(hi) - c`` are the residuals at the bracket ends, of opposite
    signs, which the caller already holds.  Each step evaluates G once, at
    the regula falsi point of every open bracket (at its midpoint if that
    point is not finite), and moves the end whose residual has the same
    sign.  When the same end moves twice in a row the residual kept at the
    other end is scaled by m = 1 - f(x) / f(replaced end), or by 1/2 if
    m <= 0 (Anderson & Bjorck 1973), so both ends close in.  A bracket closes
    at a point whose residual is at most 4 ulp of c, or at an end when the
    regula falsi point falls within 2 ulp of it (the end's residual is then
    at rounding level next to the other end's).  After ``_ROOT_MAX_EVALS``
    calls of G the last point evaluated is returned; it lies inside its
    bracket.  The value of the integral does not depend on where a cell is
    split, only the smoothness of its two pieces does.
    """
    lo, hi = lo.copy(), hi.copy()
    f_lo, f_hi = f_lo.copy(), f_hi.copy()
    small = 4.0 * np.spacing(np.abs(c))
    root = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    last = np.zeros(lo.size, dtype=np.int8)  # end moved by the last step: -1 lo, +1 hi
    act = np.flatnonzero(np.minimum(np.abs(f_lo), np.abs(f_hi)) > small)
    for _ in range(_ROOT_MAX_EVALS):
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        x = np.where(np.isfinite(x), x, 0.5 * (a + b))
        near_a = x <= a + 2.0 * np.spacing(a)
        near_b = ~near_a & (x >= b - 2.0 * np.spacing(b))
        root[act[near_a]] = a[near_a]
        root[act[near_b]] = b[near_b]
        inside = ~near_a & ~near_b
        act, x, fa, fb = act[inside], x[inside], fa[inside], fb[inside]
        if act.size == 0:
            break
        fx = G(x, act) - c[act]
        to_hi = np.signbit(fx) == np.signbit(fb)
        # Anderson-Bjorck factor for the residual kept at the other end
        m = 1.0 - fx / np.where(to_hi, fb, fa)
        m = np.where(m > 0.0, m, 0.5)
        again = np.where(to_hi, last[act] == 1, last[act] == -1)
        move_hi, move_lo = act[to_hi], act[~to_hi]
        hi[move_hi], f_hi[move_hi] = x[to_hi], fx[to_hi]
        lo[move_lo], f_lo[move_lo] = x[~to_hi], fx[~to_hi]
        f_lo[move_hi[again[to_hi]]] *= m[to_hi & again]
        f_hi[move_lo[again[~to_hi]]] *= m[~to_hi & again]
        last[move_hi], last[move_lo] = 1, -1
        root[act] = x
        act = act[np.abs(fx) > small[act]]
    return root


def _cell_integrals(G, c, lo, hi, owner, n_owners: int, singular: bool) -> np.ndarray:
    """Per owner, the sum over its cells of int |c_i - G| (q) dtheta.

    ``owner[i]`` numbers the distance cell i belongs to, and ``G(x, rows)``
    evaluates G at ``x[i]`` for cell ``rows[i]``.  Every cell first gets one
    15-point Gauss-Kronrod panel, accepted when
    |K15 - G7| <= _TOL * max(|K15|, mean cell of its owner).  A cell that
    fails is split into 2, 4, ..., 32 panels until two levels agree to the
    same tolerance.  For the singular weight each cell is mapped to the
    u = sqrt|theta - pi/4| variable, where q dtheta = 2 du; every cell lies
    on one side of pi/4, because pi/4 is a partition cut.
    """
    if singular:
        # theta = pi/4 + side u^2, side = +1 right of pi/4 and -1 left of it
        right = lo >= PI_4
        sides = np.where(right, 1.0, -1.0)
        d_lo, d_hi = np.abs(lo - PI_4), np.abs(hi - PI_4)
        lo, hi = np.sqrt(np.where(right, d_lo, d_hi)), np.sqrt(np.where(right, d_hi, d_lo))

    totals = np.zeros(n_owners)
    active = np.arange(c.size)
    prev = np.full(c.size, np.nan)
    for n_panels in (1, 2, 4, 8, 16, 32):
        if active.size == 0:
            break
        a, b = lo[active], hi[active]
        width = (b - a) / n_panels
        # nodes: (cells, panels, 15)
        starts = a[:, None] + width[:, None] * np.arange(n_panels)[None, :]
        nodes = starts[:, :, None] + width[:, None, None] * _GK_NODES
        if singular:
            theta = PI_4 + sides[active][:, None, None] * nodes**2
            f = 2.0 * np.abs(c[active][:, None, None] - G(theta, active))
        else:
            f = np.abs(c[active][:, None, None] - G(nodes, active))
        kg = (f @ _GK_WEIGHTS) * width[:, None, None]  # (cells, panels, [K15, G7])
        vals = np.sum(kg[:, :, 0], axis=1)
        if n_panels == 1:
            # mean one-panel cell value per owner: the floor of the convergence test
            scale = (np.bincount(owner, vals, n_owners) / np.bincount(owner, minlength=n_owners))[owner]
            err = np.abs(kg[:, 0, 0] - kg[:, 0, 1])  # K15 - G7
        else:
            err = np.abs(vals - prev[active])
        done = err <= _TOL * np.maximum(np.abs(vals), scale[active])
        prev[active] = vals
        totals += np.bincount(owner[active[done]], vals[done], n_owners)
        active = active[~done]
    if active.size:
        totals += np.bincount(owner[active], prev[active], n_owners)
    return totals


def _by_group(evals, group, x) -> np.ndarray:
    """``evals[group[i]](x[i])`` for every i, one call per run of equal
    ``group`` values (``group`` is nondecreasing along the first axis of x)."""
    if group[0] == group[-1]:
        return np.asarray(evals[group[0]](x), dtype=float)
    out = np.empty(x.shape)
    bounds = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        out[start:stop] = evals[group[start]](x[start:stop])
    return out


def _distances(Fs, evals, group, q: WeightKind) -> tuple[np.ndarray, np.ndarray]:
    """``weighted_l1_distance`` of every (Fs[i], evals[group[i]]) in one pass;
    returns the values and the cell counts in the order of ``Fs``.

    The cells of all distances go through one crossing search and one panel
    ladder.  Distances are laid out in order of ``group``, so every array of
    points is ordered by G and each G is called once per step, on one slice.
    """
    group = np.asarray(group)
    order = np.argsort(group, kind="stable")
    cuts, mids_c = [], []
    for i in order.tolist():
        locs = Fs[i].locations
        cut = np.sort(np.concatenate([[0.0, PI_4, PI_2], locs[(locs > 0) & (locs < PI_2)]]))
        cut = cut[np.append(True, cut[1:] != cut[:-1])]  # PI_4 may be an angle too
        cuts.append(cut)
        mids_c.append(Fs[i](0.5 * (cut[:-1] + cut[1:])))  # F is constant per cell
    owner_cut = np.repeat(order, [cut.size for cut in cuts])
    cuts = np.concatenate(cuts)
    g_at_cuts = _by_group(evals, group[owner_cut], cuts)
    same = owner_cut[1:] == owner_cut[:-1]
    if np.any(np.diff(g_at_cuts)[same] < -1e-9):
        raise ValueError("G is not nondecreasing on the partition")

    a0, b0 = cuts[:-1][same], cuts[1:][same]
    ga, gb = g_at_cuts[:-1][same], g_at_cuts[1:][same]
    keep = (b0 - a0) > 1e-15
    a0, b0, ga, gb = a0[keep], b0[keep], ga[keep], gb[keep]
    c = np.concatenate(mids_c)[keep]
    owner = owner_cut[:-1][same][keep]

    # Split cells where G crosses the constant c; each crossing cell (a, b)
    # becomes (a, root) and (root, b) so the integrand is C^1 per cell.  The
    # two pieces take the cell's place, so the cells stay ordered by G.
    fa, fb = ga - c, gb - c
    crossing = fa * fb < 0.0
    pieces = 1 + crossing
    idx = np.repeat(np.arange(c.size), pieces)
    a_all, b_all, c_all = a0[idx], b0[idx], c[idx]
    if np.any(crossing):
        cross_group = group[owner[crossing]]
        roots = _regula_falsi_crossings(
            lambda x, rows: _by_group(evals, cross_group[rows], x),
            c[crossing], a0[crossing], b0[crossing], fa[crossing], fb[crossing],
        )
        left = (np.cumsum(pieces) - pieces)[crossing]
        b_all[left], a_all[left + 1] = roots, roots
    owner = owner[idx]

    ok = (b_all - a_all) > 1e-15
    a_all, b_all, c_all, owner = a_all[ok], b_all[ok], c_all[ok], owner[ok]
    cell_group = group[owner]
    n_cells = np.bincount(owner, minlength=len(Fs))

    def G(x, rows):
        return _by_group(evals, cell_group[rows], x)

    totals = _cell_integrals(G, c_all, a_all, b_all, owner, len(Fs), q is not WeightKind.CONSTANT)
    return totals, n_cells


def weighted_l1_distance(F: StepCDF, G, q: WeightKind) -> tuple[float, int]:
    """int_0^{pi/2} |F - G| q dtheta; returns (value, number of cells).

    F is a step CDF on [0, pi/2]; G is a vectorized nondecreasing CDF
    evaluator with G(0) = 0 and G(pi/2) = 1.  A cell of F on which G crosses
    F's value is split at the crossing, found by the safeguarded regula falsi
    of ``_regula_falsi_crossings`` (at most 48 calls of G for all crossings
    together; 4.9 on average for Hüsler-Reiss samples with k = 100).  Each
    piece gets one 15-point Gauss-Kronrod panel; ``_TOL`` = 1e-7 bounds its
    difference from the embedded 7-point Gauss value, or for the pieces that
    go on to 2, 4, ... panels the change between the last two levels,
    measured against the larger of the piece and the mean piece.  The summed
    estimate is then at most about 2 * _TOL * value: a relative tolerance on
    the total.  A piece whose value is below ``_TOL`` times the mean piece
    stops after one panel.  Such a statistic evaluates G at about 3,000 points.
    """
    totals, n_cells = _distances([F], [G], [0], q)
    return float(totals[0]), int(n_cells[0])


def test_statistic(dataset, law, q: WeightKind):
    """T_n = sqrt(k) * weighted L1 distance between Q-tilde and the model Q.

    Given one dataset and its law, returns a ``TestStatistic``.  Given a
    sequence of datasets and a sequence of laws (one per dataset), computes
    all statistics in one pass and returns a ``StatisticBatch``; each law is
    called once per step on the points of all datasets that use it, and each
    statistic equals its one-dataset value to rounding.
    """
    if isinstance(dataset, AngularDataset):
        return test_statistic([dataset], [law], q).statistics[0]
    datasets, laws = list(dataset), list(law)
    if len(laws) != len(datasets):
        raise ValueError(f"{len(datasets)} datasets but {len(laws)} laws")
    if not datasets:
        return StatisticBatch(statistics=(), n_cells=0)
    Fs = [empirical_angular_cdf(ds) for ds in datasets]
    distinct = {id(one): one for one in laws}  # in order of first use
    index = {key: i for i, key in enumerate(distinct)}
    group = [index[id(one)] for one in laws]
    evals = [one.normalized_cdf for one in distinct.values()]
    totals, n_cells = _distances(Fs, evals, group, q)
    stats = tuple(
        TestStatistic(value=math.sqrt(ds.k) * float(total), k=ds.k, weight_kind=q, n_cells=int(n))
        for ds, total, n in zip(datasets, totals, n_cells)
    )
    return StatisticBatch(statistics=stats, n_cells=int(n_cells.sum()))
