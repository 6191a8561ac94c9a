"""Simulator of the asymptotic null law of the test statistic.

The limit variable is L = int_0^{pi/2} |X(theta)| q(theta) dtheta where X is a
linear transformation of a set-indexed Wiener process W with intensity the
exponent measure Lambda_r.  W is discretized on an M x M grid of cells with
exact cell masses (rectangle identity Lambda([0,a]x[0,b]) = a + b - ell(a,b)),
and X is built from the processes

    alpha(theta) = W(C_{p,theta}) + Z_p(theta)
    beta(theta)  = [alpha(theta) Phi(pi/2) - Phi(theta) alpha(pi/2)] / Phi(pi/2)^2
    gamma(theta) = beta(theta) + (int beta f' / sigma_Q^2(f)) int_0^theta f dQ
    X(theta)     = gamma(theta) - grad_r Q(theta) * I

with I = g (W(A_{(1,1)}) - ell_1(1,1) W_1(1) - ell_2(1,1) W_2(1)), on an
N-point midpoint grid; L is the sum of |X| times the exact per-cell integrals
of q (the cell containing pi/4 uses the closed-form integral of the singular
weight).

Two index conventions are in play.  Sums over the angular sets C_{p,theta}
include a cell when its lower-left corner lies in the set (the natural
discretization of the indicator).  Marginal strips W_1(x), W_2(y) and the
rectangle blocks instead count the cells wholly contained in [0, x] and add
per-strip overflow cells carrying the Lambda-mass beyond the grid, so that
Var W_1(x) = x exactly at grid multiples.  Without the overflow cells the
marginal variances would be badly truncated for slowly-decaying families
(Hüsler–Reiss loses ~25% of the unit strip at the default coverage).

X is linear in the independent cell variables, so only its N x N covariance
Sigma matters.  Each of alpha(theta_1..N), alpha(pi/2) and I gives cell
(i, j) the coefficient a(i) + b(j) + s 1{(i, j) in its set}, and these
strip tables are staircases: beyond the c_k midpoints on the chord of
theta_k, Z_p(theta_k) integrates along the boundary curve, which does not
depend on theta, so a_k equals the theta = pi/2 row a_pi from column c_k - 1
on, and b_k vanishes beyond the largest W_2 index the row reaches.  On the
paper grid (logistic r = 0.5, p = 2) a - a_pi and b are 7 % nonzero, and
their blocks of 64 rows keep 10.7 % and 9.6 % of the dense tables.
``LimitLawSimulator`` assembles Sigma exactly from those blocks, cut to
their widest support, and from prefix sums of the cell masses over the
nested sets C_{p,theta}.  The map to X needs three rows of the covariance
of alpha_ext only, and is applied in one pass of tiles written into the
buffer of the block products, so Sigma is exactly symmetric and the map
holds no temporary larger than a tile.  The simulator keeps the lower
Cholesky factor F of Sigma + delta I, delta = 1e-11 max diag(Sigma) (Sigma
is positive semidefinite and nearly singular, so the jitter makes the
factorization succeed; Rasmussen & Williams 2006, Gaussian Processes for
Machine Learning, App. A.2).  The cell masses are symmetric bit for bit,
so one pass of row prefix sums gives the set masses per row and per
column.  q has no part in Sigma, so one factor per (model, p, grid) serves
both weights.  A draw is X = F eps with eps ~ N(0, I_N).
``simulate_L`` draws replicates in blocks of 64: block j fills its 64 x N
matrix of eps row by row from one generator keyed by (base_seed, j), and
replicate b is row b % 64 of block b // 64, so its value depends on
neither B nor the thread count.  The package's one byte-bounded cache
(``_lru.CACHE``) keeps the blocks by (base_seed, N, j), so draws at another
model with the same seed (the common random numbers of the pairs driver's
pairs and of a critical value table's r nodes) reuse the normals and pay
only for the products, and keeps the draws by the whole input of
``simulate_L``, so a repeated call returns the same read-only array;
factors are not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from . import _lru
from .geometry import PI_2, WeightKind
from .models import Model, family_class, get_law, grad_normalized_cdf, make_model

__all__ = [
    "FieldGrid",
    "DESK_GRID",
    "PAPER_GRID",
    "CriticalValueTable",
    "UnsupportedFeatureError",
    "cell_masses",
    "overflow_masses",
    "LimitLawSimulator",
    "simulate_L",
    "quantile",
    "p_value",
    "check_draw_inputs",
    "check_table_inputs",
    "critical_value_table",
    "keyed_rng",
]


class UnsupportedFeatureError(NotImplementedError):
    """Raised for declared-out-of-scope branches (p = inf limit law)."""


@dataclass(frozen=True)
class FieldGrid:
    """Discretization: cell step h, M grid points per axis, N angle points."""

    h: float = 0.05
    M: int = 1000
    N: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"grid h must be positive and finite, got {self.h!r}")
        for name, least in (("M", 3), ("N", 2)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"grid {name} must be an integer >= {least}, got {value!r}")

    def theta_grid(self) -> np.ndarray:
        """Midpoints theta_i = (i - 1/2) * pi / (2N), i = 1..N."""
        return (np.arange(self.N) + 0.5) * (PI_2 / self.N)


DESK_GRID = FieldGrid(h=0.05, M=200, N=500)
PAPER_GRID = FieldGrid(h=0.05, M=1000, N=1000)

GRID_PRESETS = {"desk": DESK_GRID, "paper": PAPER_GRID}


_MASS_BLOCK = 64  # corner rows per block in cell_masses


def cell_masses(model: Model, grid: FieldGrid) -> np.ndarray:
    """Lambda(C_ij) for cells [x_i, x_{i+1}) x [y_j, y_{j+1}), exact.

    Four-corner inclusion-exclusion of the rectangle identity; entries are
    clamped at zero against roundoff.  The corner masses are evaluated in
    blocks of ``_MASS_BLOCK`` rows, each sharing its last corner row with the
    next block, so no M×M temporary is ever held; every operation is
    elementwise, so the result does not depend on the block size.  Both
    families' ell is symmetric bit for bit, so a block is evaluated only from
    its diagonal on and its left part is the transpose of the rows above.
    """
    x = np.arange(grid.M) * grid.h
    masses = np.empty((grid.M - 1, grid.M - 1))
    for i0 in range(0, grid.M - 1, _MASS_BLOCK):
        i1 = min(i0 + _MASS_BLOCK, grid.M - 1)
        R = model.rect_mass(x[i0:i1 + 1, None], x[None, i0:])
        np.maximum(R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1], 0.0,
                   out=masses[i0:i1, i0:])
        masses[i0:i1, :i0] = masses[:i0, i0:i1].T
    return masses


def overflow_masses(model: Model, grid: FieldGrid, masses: np.ndarray):
    """Per-strip masses beyond the grid: row strips (y > coverage) and
    column strips (x > coverage).  Lebesgue margins make each full strip
    carry mass exactly h."""
    row_of = np.maximum(grid.h - masses.sum(axis=1), 0.0)
    col_of = np.maximum(grid.h - masses.sum(axis=0), 0.0)
    return row_of, col_of


def marg_index(x: float, grid: FieldGrid):
    """Number of complete cells of [0, x] along one axis (capped)."""
    return np.minimum(np.floor(np.asarray(x, dtype=float) / grid.h).astype(np.int64), grid.M - 1)


def _c_bounds(grid: FieldGrid, p: float, theta: float) -> np.ndarray:
    """Per-row inclusive column counts for the C_{p,theta} sum.

    Row m (0-based, corner x = m h) includes columns j = 1..bound with
    bound = min([y_p(x)/h + 1], M-1, floor(m tan(theta)) + 1); a cell is in
    when its corner (x_i, y_j) satisfies y_j <= min(y_p(x_i), x_i tan theta).
    """
    m = np.arange(grid.M - 1)
    x = m * grid.h
    yp = geometry.y_p(p, x)
    with np.errstate(over="ignore"):
        jcap = np.where(
            np.isinf(yp),
            grid.M - 1,
            np.minimum(np.floor(yp / grid.h) + 1, grid.M - 1),
        ).astype(np.int64)
    if theta >= PI_2:
        return jcap
    tan = math.tan(theta)
    jtan = np.minimum(np.floor(m * tan) + 1, grid.M - 1).astype(np.int64)
    return np.minimum(jcap, jtan)


# Rows per block of the strip tables, and of the set masses (with the
# same-numbered columns), in _covariance.  A block of strip rows is stored,
# and multiplied, only up to the widest column support among its rows.
_ROW_BLOCK = 64


@dataclass(frozen=True)
class _StripTables:
    """Strip coefficients a (W_1 strips, by row i) and b (W_2 strips, by
    column j) of the rows (alpha(theta_1..N), alpha(pi/2), I), as a
    staircase.

    ``blocks`` holds (k0, A, B) per block of ``_ROW_BLOCK`` rows starting at
    row k0.  Row k of A is a_k - a_pi for k <= N (a_pi is the theta = pi/2
    row, ``a_pi``) and a_k itself for the I row; row k of B is b_k.  Both are
    zero from column ``sa[k]`` (A) and ``sb[k]`` (B) on, and a block keeps
    only the columns below its rows' widest support.
    """

    a_pi: np.ndarray
    sa: np.ndarray
    sb: np.ndarray
    blocks: list


def _strip_tables(model: Model, p: float, grid: FieldGrid) -> _StripTables:
    """Strip coefficients of the midpoint-rule Z_p and of I, as a staircase.

    Z_p(theta_k) sums over the cell midpoints x_m.  The c_k midpoints below
    x_p(theta_k) lie on the chord: the point (x_m, x_m tan theta_k), with W_1
    coefficient h lambda tan theta_k and W_2 coefficient -h lambda at the
    W_2 index of x_m tan theta_k.  The midpoints beyond the chord and beyond
    x = 1 lie on the boundary curve (x_m, y_p(x_m)), whose coefficients do
    not depend on theta; the theta = pi/2 row takes every curve midpoint.
    W1_mid[m] sums the rows i < m, so a_k(i) is the suffix sum of the W_1
    coefficients over m > i, and equals a_pi(i) from the chord's end on.
    W2 at index l sums the columns j < l, so b_k(j) sums the W_2
    coefficients whose index exceeds j: a histogram of the chord entries,
    and for the curve a difference of its suffix sums, since the curve's W_2
    index does not increase along it.  Hence a_k - a_pi is zero from
    column c_k - 1 on, and b_k from the largest W_2 index of the row on.
    The I row is g ((1 - d_1) 1{i < i11}, (1 - d_2) 1{j < j11}).
    """
    h = grid.h
    N = grid.N
    m = grid.M - 1
    R = N + 2
    theta = grid.theta_grid()
    tan = np.array([math.tan(t) for t in theta])
    xm = (np.arange(m) + 0.5) * h
    g = model.expansion_g()
    d1, d2 = model.stdf_partials(1.0, 1.0)
    i11 = j11 = int(marg_index(1.0, grid))

    # Chord entries, row by row: row k holds midpoints 0..c[k]-1, and the
    # theta = pi/2 row none.
    c = np.zeros(N + 1, dtype=np.int64)
    c[:N] = np.searchsorted(xm, geometry.x_p_of_theta(p, theta))
    start = np.zeros(N + 2, dtype=np.int64)
    np.cumsum(c, out=start[1:])
    rows1 = np.repeat(np.arange(N + 1), c)
    cols1 = np.arange(start[-1]) - start[rows1]
    y1 = xm[cols1] * tan[rows1]
    # Curve midpoints m >= m1 (x_m > 1), and the exponent density at all
    # points in one call.
    m1 = int(np.searchsorted(xm, 1.0, side="right"))
    x2 = xm[m1:]
    y2 = geometry.y_p(p, x2)
    lam = model.exponent_density(np.concatenate([x2, xm[cols1]]), np.concatenate([y2, y1]))
    lam2, lam1 = lam[: x2.size], lam[x2.size:]
    chord_w1 = h * lam1 * tan[rows1]
    chord_w2 = -h * lam1
    chord_idx = marg_index(y1, grid)
    curve_w1 = np.zeros(m)
    curve_w1[m1:] = -h * lam2 * geometry.y_p_prime_abs(p, x2)
    curve_w2 = np.zeros(m)
    curve_w2[m1:] = -h * lam2
    # W_2 index of each curve midpoint; those before the curve get M and a
    # sentinel 0 follows the last, so the array is nonincreasing and
    # mu[j] = #{m : curve_idx[m] > j}.
    curve_idx = np.full(m + 1, grid.M, dtype=np.int64)
    curve_idx[m1:m] = marg_index(y2, grid)
    curve_idx[m] = 0
    mu = np.searchsorted(-curve_idx, -np.arange(m))
    # a_pi(i) = sum_{m > i} curve_w1[m]; S[l] = sum_{m >= l} curve_w2[m].
    a_pi = np.zeros(m)
    np.cumsum(curve_w1[:0:-1], out=a_pi[-2::-1])
    S = np.zeros(m + 1)
    np.cumsum(curve_w2[::-1], out=S[-2::-1])

    # Column supports: a_k - a_pi below c_k - 1; b_k below the largest W_2
    # index of its chord (its last entry) and of its curve part (its first).
    sa = np.append(np.maximum(c - 1, 0), i11)
    chord_top = np.where(c > 0, chord_idx[np.maximum(start[1:] - 1, 0)], 0)
    sb = np.append(np.maximum(chord_top, curve_idx[np.maximum(c, m1)]), j11)

    blocks = []
    for k0 in range(0, R, _ROW_BLOCK):
        k1 = min(k0 + _ROW_BLOCK, R)
        wa = int(sa[k0:k1].max())
        wb = int(sb[k0:k1].max())
        A = np.zeros((k1 - k0, wa))
        B = np.zeros((k1 - k0, wb))
        ka = min(k1, N + 1)
        e = slice(start[k0], start[ka])
        local = rows1[e] - k0
        D = np.zeros((k1 - k0, wa + 1))
        D[local, cols1[e]] = chord_w1[e] - curve_w1[cols1[e]]
        np.cumsum(D[:, :0:-1], axis=1, out=A[:, ::-1])
        hist = np.bincount(
            local * (wb + 1) + chord_idx[e], weights=chord_w2[e],
            minlength=(k1 - k0) * (wb + 1),
        ).reshape(k1 - k0, wb + 1)
        np.cumsum(hist[:, :0:-1], axis=1, out=B[:, ::-1])
        ck = c[k0:ka, None]
        B[: ka - k0] += S[ck] - S[np.maximum(mu[:wb], ck)]
        if k1 == R:
            A[-1, :i11] = g * (1.0 - d1)
            B[-1, :j11] = g * (1.0 - d2)
        blocks.append((k0, A, B))
    return _StripTables(a_pi=a_pi, sa=sa, sb=sb, blocks=blocks)


def _set_masses(masses: np.ndarray, grid: FieldGrid, p: float, i11: int):
    """Mass of each set S_r in each row and each column of the grid.

    S_r is C_{p,theta_r} for r < N, C_{p,pi/2} for r = N, and for r = N + 1
    the block i, j < i11.  By ``_c_bounds`` row i of C_{p,theta_r} holds the
    columns j < e_ir = min(floor(i tan theta_r) + 1, bound_i), with bound the
    pi/2 bounds, so u[i, r] is a prefix sum of row i at e_ir.  bound does
    not increase with i (y_p decreases) and floor(i tan theta_r) does not
    decrease, so column j of C_{p,theta_r} holds the rows lo_jr <= i < hi_j,
    and v[j, r] is a difference of two prefix sums of column j.
    The pass relies on ``cell_masses`` being symmetric bit for bit: column
    j's prefix sums are row j's, so one pass over blocks of rows takes u for
    the block's rows and v for the same-numbered columns from one cumsum, run
    to the larger of the block's bound and hi.  The sets are staircases too:
    in a block of rows beyond the chord of theta_r, u[i, r] = u[i, N], and in
    a block of columns above the set, v[j, r] = 0; only the rest is gathered.
    Returns u and v of shape (M-1, N+2) and in_block[r], the mass of S_r
    inside the I block, for r <= N.
    """
    N = grid.N
    m = grid.M - 1
    tan = np.array([math.tan(t) for t in grid.theta_grid()])
    bound = _c_bounds(grid, p, PI_2)
    # hi[j] = #{i : bound_i > j}; lo[j, r] = #{i : floor(i tan theta_r) < j},
    # from ceil(j / tan theta_r) corrected by one step either way where the
    # rounded product floor(i tan theta_r) decides otherwise.
    hi = np.searchsorted(-bound, -np.arange(m))
    u = np.empty((m, N + 2))
    v = np.zeros((m, N + 2))
    prefix = np.zeros((_ROW_BLOCK, m + 1))
    flat = prefix.ravel()
    offsets = np.arange(_ROW_BLOCK)[:, None] * (m + 1)
    for i0 in range(0, m, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, m)
        rows = np.arange(i1 - i0)
        width = max(bound[i0], hi[i0])
        np.cumsum(masses[i0:i1, :width], axis=1, out=prefix[: i1 - i0, 1 : width + 1])
        u[i0:i1, N] = prefix[rows, bound[i0:i1]]
        # Angles whose chord reaches past row i0; the rest give e_ir = bound_i.
        inside = np.flatnonzero(np.floor(i0 * tan) + 1 < bound[i0])
        r1 = int(inside[-1]) + 1 if inside.size else 0
        ends = np.minimum(np.floor(np.arange(i0, i1)[:, None] * tan[:r1]) + 1, bound[i0:i1, None])
        u[i0:i1, :r1] = flat[ends.astype(np.int64) + offsets[rows]]
        u[i0:i1, r1:N] = u[i0:i1, N:N + 1]

        top = prefix[rows, hi[i0:i1]]
        v[i0:i1, N] = top
        # Angles whose set reaches column i0 below row hi[i0]; the rest hold
        # no cell of the block's columns.
        reach = np.flatnonzero(np.floor((hi[i0] - 1) * tan) >= i0)
        r0 = int(reach[0]) if reach.size else N
        j = np.arange(i0, i1, dtype=float)[:, None]
        lo = np.minimum(np.ceil(j / tan[r0:]), m)
        lo -= np.floor((lo - 1.0) * tan[r0:]) >= j
        lo += np.floor(lo * tan[r0:]) < j
        np.minimum(lo, hi[i0:i1, None], out=lo)
        v[i0:i1, r0:N] = top[:, None] - flat[lo.astype(np.int64) + offsets[rows]]

    # The I block and the sets' mass inside it.
    block = masses[:i11, :i11]
    u[:, N + 1] = 0.0
    u[:i11, N + 1] = block.sum(axis=1)
    v[:i11, N + 1] = block.sum(axis=0)
    pre = np.zeros((i11, i11 + 1))
    np.cumsum(block, axis=1, out=pre[:, 1:])
    ends = np.empty((i11, N + 1))
    ends[:, :N] = np.floor(np.arange(i11)[:, None] * tan) + 1
    ends[:, N] = i11
    np.minimum(ends, np.minimum(bound[:i11], i11)[:, None], out=ends)
    in_block = np.take_along_axis(pre, ends.astype(np.int64), axis=1).sum(axis=0)
    return u, v, in_block


# Rows and columns per tile of the map to X in _covariance.  A 96 x 96 tile
# of doubles is 72 KiB, below glibc's 128 KiB mmap threshold, so the pass
# reuses heap memory instead of mapping and faulting in fresh pages.
_TILE = 96


def _covariance(model: Model, p: float, grid: FieldGrid) -> np.ndarray:
    """Exact covariance of X on the theta grid, shape (N, N).

    Row r of alpha_ext = (alpha(theta_1..N), alpha(pi/2), I) gives cell (i, j)
    the coefficient a_r(i) + b_r(j) + s_r 1{(i, j) in S_r}: a_r collects the
    W_1 strips and b_r the W_2 strips (``_strip_tables``), and S_r is
    C_{p,theta} (s_r = 1) or, for the I row, the block below (1, 1)
    (s_r = -g).  The row overflow cell carries a_r(i) alone and the column
    overflow cell b_r(j) alone.  With u and v the set masses per row and
    column (``_set_masses``, times s_r),

        Sigma_alpha = P + P' + K,  P = a (masses b' + u + D_row a' / 2) + b (v + D_col b' / 2),

    where K holds the set-set terms: the sets C are nested, so
    mass(S_k & S_l) = set_mass[min(k, l)].  The strip tables are
    staircases, a = A + e a_pi (e the indicator of the alpha rows) and b = B,
    so each product runs block by block over the nonzero columns of A and B
    only, and a_pi enters as one GEMV.

    X = (alpha + U z) / total_mass on the theta grid, with U = (-Q, int_f,
    -total_mass grad_Q), z = (alpha(pi/2), w, I), w = f'(alpha - Q
    alpha(pi/2)) and f' = dtheta f' / sigma_Q^2(f) (the beta and gamma steps
    and the gradient term).  So the map needs only Z = Cov(z, alpha_ext),
    three rows of Sigma_alpha, each P's row plus P's column plus K's row (K f'
    is a prefix sum, as set_mass does not decrease).  With C = Cov(z, z), on
    the theta grid,

        total_mass^2 Sigma_X = P + P' + K + [U | Z' + U C] [Z ; U'],

    a rank-6 update, written into P's own buffer one pair of tiles (I <= J)
    at a time.  The (J, I) tile is computed, since it lies in the lower
    triangle that the Cholesky factorization reads, and the (I, J) tile is
    its transpose, so Sigma_X is exactly symmetric, and no temporary is
    larger than a tile.
    """
    if math.isinf(p):
        raise UnsupportedFeatureError("p = inf is not supported by the limit-law simulator")
    N = grid.N
    R = N + 2
    g = model.expansion_g()
    i11 = int(marg_index(1.0, grid))
    tables = _strip_tables(model, p, grid)

    masses = cell_masses(model, grid)
    row_of, col_of = overflow_masses(model, grid, masses)
    row_tot = masses.sum(axis=1) + row_of
    col_tot = masses.sum(axis=0) + col_of
    u, v, set_in_block = _set_masses(masses, grid, p, i11)
    u[:, N + 1] *= -g
    v[:, N + 1] *= -g
    block_mass = float(masses[:i11, :i11].sum())
    set_mass = u[:, : N + 1].sum(axis=0)

    for k0, A, B in tables.blocks:
        k1 = k0 + A.shape[0]
        wa, wb = A.shape[1], B.shape[1]
        u[:, k0:k1] += masses[:, :wb] @ B.T
        u[:wa, k0:k1] += 0.5 * row_tot[:wa, None] * A.T
        v[:wb, k0:k1] += 0.5 * col_tot[:wb, None] * B.T
    u[:, : N + 1] += (0.5 * row_tot * tables.a_pi)[:, None]
    del masses
    P = np.empty((R, R))
    for k0, A, B in tables.blocks:
        k1 = k0 + A.shape[0]
        np.matmul(A, u[: A.shape[1]], out=P[k0:k1])
        P[k0:k1] += B @ v[: B.shape[1]]
    P[: N + 1] += tables.a_pi @ u
    del u, v

    law = get_law(model, p)
    theta = grid.theta_grid()
    Q = law.normalized_cdf(theta)
    fp = (PI_2 / N) * geometry.constraint_f_prime(p, theta) / law.var_f
    T = law.total_mass
    U = np.stack([-Q, law.f_integral(theta), -T * grad_normalized_cdf(model, p, theta)], axis=1)
    # Z, K's part first; its middle row is f' alpha until the last step.
    Z = np.empty((3, R))
    Z[0, : N + 1] = set_mass
    Z[2, : N + 1] = -g * set_in_block
    Z[:, N + 1] = -g * set_in_block[N], -g * (fp @ set_in_block[:N]), g * g * block_mass
    cum_fs = np.cumsum(fp * set_mass[:N])
    cum_f = np.cumsum(fp)
    Z[1, :N] = cum_fs + set_mass[:N] * (cum_f[-1] - cum_f)
    Z[1, N] = cum_fs[-1]
    Z[[0, 2]] += P[[N, N + 1]] + P[:, [N, N + 1]].T
    Z[1] += fp @ P[:N] + P[:, :N] @ fp
    fq = float(fp @ Q)
    Z[1] -= fq * Z[0]
    C = np.stack([Z[:, N], Z[:, :N] @ fp - fq * Z[:, N], Z[:, N + 1]], axis=1)
    left = np.hstack([U, Z[:, :N].T + U @ C])
    right = np.vstack([Z[:, :N], U.T])
    for i0 in range(0, N, _TILE):
        i = slice(i0, min(i0 + _TILE, N))
        for j0 in range(i0, N, _TILE):
            j = slice(j0, min(j0 + _TILE, N))
            tile = P[j, i] + P[i, j].T
            tile += np.minimum.outer(set_mass[j], set_mass[i])
            tile += left[j] @ right[:, i]
            tile /= T * T
            if i0 == j0:
                tile = np.tril(tile) + np.tril(tile, -1).T
            P[j, i] = tile
            P[i, j] = tile.T
    return P[:N, :N]


# Diagonal jitter of the Cholesky factorization, relative to max diag(Sigma).
# Over HR r in [0.001, 8] and logistic r in [0.001, 0.95], p in {1, 2}, on the
# desk grid, and at r = 0.001 (the most nearly singular case of both
# families) on the paper grid, no covariance needed more than 1e-13 to
# factor, and at 1e-11 E[L] moves by at most 1e-7 relative on the desk grid
# and 3e-7 on the paper grid.
_JITTER = 1e-11


class LimitLawSimulator:
    """Factored covariance of X for fast repeated draws of L.

    The constructor assembles the exact N x N covariance Sigma of X on the
    theta grid and keeps the lower Cholesky factor F of Sigma + delta I with
    delta = ``_JITTER`` * max diag(Sigma), so one draw is X = F eps with
    eps ~ N(0, I_N).  A covariance that does not factor (an eigenvalue below
    -delta) raises ``numpy.linalg.LinAlgError``.
    """

    def __init__(self, model: Model, p: float, grid: FieldGrid):
        self.model = model
        self.p = p
        self.grid = grid
        sigma = _covariance(model, p, grid)
        sigma[np.diag_indices(grid.N)] += _JITTER * sigma.diagonal().max()
        try:
            self._F = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"covariance of X is not positive definite for {model.family} "
                f"r={model.r:.12g}, p={p:.12g}, grid h={grid.h:.12g} M={grid.M} "
                f"N={grid.N}: {exc}"
            ) from exc


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator of the seed sequence (seed, spawn key ``key``): one
    independent stream per key, whatever the order the keys are drawn in."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


# Replicates per block in simulate_L: one generator fills a block's normals
# and one matrix product maps them.  The shape of every product is fixed, so
# replicate b is computed by the same arithmetic whatever B is.
_CHUNK = 64


def simulate_L(
    model: Model,
    p: float,
    grid: FieldGrid,
    q: WeightKind,
    B: int,
    base_seed: int,
    threads: int = 1,
) -> np.ndarray:
    """B independent draws of L under the weight q, as a read-only array.
    Replicate b is row b % 64 of the normals that ``keyed_rng(base_seed,
    b // 64)`` writes row by row, so its value depends on neither B nor
    ``threads``, which is ignored (the products are threaded by BLAS).  The
    draws, and the read-only normal blocks under (base_seed, N, j), are kept
    in the package's one cache (``_lru.CACHE``): a repeated call returns the
    same array and builds nothing, and a call at another model with the same
    seed and N draws no new normals.  The simulator is dropped after the
    draws.  B < 1 and base_seed < 0 raise ValueError first; draws that are
    not all finite raise ``numpy.linalg.LinAlgError``, and are not kept.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if base_seed < 0:
        raise ValueError(f"base_seed must be at least 0, got {base_seed}")
    key = (model, p, grid, q, B, base_seed)
    return _lru.CACHE.get(key, lambda: _draw(*key))


def _normals(base_seed: int, N: int, j: int) -> np.ndarray:
    """Block j of the normals of (base_seed, N): the 64 x N matrix that
    ``keyed_rng(base_seed, j)`` fills row by row, read-only."""
    eps = keyed_rng(base_seed, j).standard_normal((_CHUNK, N))
    eps.flags.writeable = False
    return eps


def _draw(model: Model, p: float, grid: FieldGrid, q: WeightKind, B: int, base_seed: int):
    # Built through the module attribute, so a wrapper set there sees every build.
    F = LimitLawSimulator(model, p, grid)._F
    # Exact per-cell integrals of the weight function.
    edges = np.arange(grid.N + 1) * (PI_2 / grid.N)
    q_cells = np.asarray(geometry.weight_q_cell_integral(q, edges[:-1], edges[1:]), dtype=float)
    values = np.empty(B)
    for j, start in enumerate(range(0, B, _CHUNK)):
        n = min(_CHUNK, B - start)
        eps = _lru.CACHE.get((base_seed, grid.N, j), lambda: _normals(base_seed, grid.N, j))
        # Row b of the product depends on row b of the block alone, so the
        # rows past B change nothing.
        values[start:start + n] = (np.abs(eps @ F.T) @ q_cells)[:n]
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError(
            f"null-law draws are not all finite for {model.family} r={model.r:.12g}, "
            f"p={p:.12g}, grid h={grid.h:.12g} M={grid.M} N={grid.N}"
        )
    values.flags.writeable = False
    return values


def quantile(draws: np.ndarray, alpha: float) -> float:
    """ceil(alpha * B)-th order statistic of the draws, with alpha * B
    rounded to 9 decimals (0.55 * 100 is 55.00000000000001 in floating point)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rank = max(math.ceil(round(alpha * np.size(draws), 9)), 1)
    return float(np.sort(draws)[rank - 1])


def p_value(draws: np.ndarray, t: float) -> float:
    """Exceedance proportion (1/B) #{b : L_b >= t}."""
    return float(np.count_nonzero(np.asarray(draws) >= t)) / np.size(draws)


@dataclass
class CriticalValueTable:
    """Quantiles of L on a parameter grid, linearly interpolated in r.

    JSON writes each float as its shortest exact repr, so a table written by
    ``save`` and read back by ``load`` reproduces every decision.  An
    unknown family, a B or seed that is not an integer, inputs
    ``check_draw_inputs`` rejects, a negative seed, an r grid that is not
    strictly increasing and finite, or quantiles not finite and of shape
    (len(r_grid), len(alphas)) raise ValueError.
    """

    family: str
    p: float
    grid: FieldGrid
    q: WeightKind
    r_grid: np.ndarray
    alphas: tuple
    B: int
    seed: int
    quantiles: np.ndarray  # shape (len(r_grid), len(alphas))

    def __post_init__(self):
        family_class(self.family)
        for name, least in (("B", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        check_draw_inputs(self.p, self.alphas, self.B)
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        r = np.asarray(self.r_grid, dtype=float)
        if r.ndim != 1 or r.size == 0 or not np.all(np.isfinite(r)) or np.any(np.diff(r) <= 0):
            raise ValueError(f"r_grid must be strictly increasing and finite, got {r.tolist()}")
        shape = (r.size, len(self.alphas))
        if np.shape(self.quantiles) != shape:
            raise ValueError(f"quantiles must have shape {shape}, got {np.shape(self.quantiles)}")
        if not np.all(np.isfinite(self.quantiles)):
            raise ValueError("quantiles must be finite")

    def interp(self, r: float, alpha: float) -> float:
        try:
            col = self.alphas.index(alpha)
        except ValueError:
            raise KeyError(f"alpha {alpha} not in table (have {self.alphas})") from None
        r_clamped = float(np.clip(r, self.r_grid[0], self.r_grid[-1]))
        return float(np.interp(r_clamped, self.r_grid, self.quantiles[:, col]))

    def to_dict(self) -> dict:
        """The table as the ``quantiles`` command reports it."""
        return {
            "family": self.family,
            "p": self.p,
            "q": self.q.value,
            "grid": [self.grid.h, self.grid.M, self.grid.N],
            "B": self.B,
            "seed": self.seed,
            "alphas": list(self.alphas),
            "r_grid": self.r_grid.tolist(),
            "quantiles": self.quantiles.tolist(),
        }

    def save(self, path) -> None:
        """Write ``to_dict`` as the JSON text the ``quantiles`` command emits."""
        import json  # here, so that ``import angular_gof`` does not load it

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CriticalValueTable":
        """Read a table written by ``save`` or by ``quantiles --out``."""
        import json

        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(
            family=d["family"], p=d["p"], grid=FieldGrid(*d["grid"]),
            q=WeightKind(d["q"]), r_grid=np.asarray(d["r_grid"], dtype=float),
            alphas=tuple(d["alphas"]), B=d["B"], seed=d["seed"],
            quantiles=np.asarray(d["quantiles"], dtype=float),
        )


def check_draw_inputs(p: float, alphas, B: int) -> None:
    """Raise for inputs no B draws of the null law can serve.

    ``UnsupportedFeatureError`` for p = inf, ValueError for p < 1, B < 1, a
    level outside (0, 1) or a repeated level.  Nothing is built.
    """
    if math.isinf(p):
        raise UnsupportedFeatureError("p = inf is not supported by the limit-law simulator")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p:g}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    for i, a in enumerate(alphas):
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {a:g}")
        if a in alphas[:i]:
            raise ValueError(f"the alphas repeat {a:g}")


def check_table_inputs(family: str, p: float, r_grid, alphas, B: int) -> None:
    """Raise for inputs ``critical_value_table`` cannot tabulate.

    The checks of ``check_draw_inputs``, then ValueError for an empty r grid,
    an unknown family, an r outside the family's range or a repeated r.
    Nothing is built.
    """
    check_draw_inputs(p, alphas, B)
    if len(r_grid) == 0:
        raise ValueError("the r grid is empty")
    for i, r in enumerate(r_grid):
        make_model(family, float(r))
        if r in r_grid[:i]:
            raise ValueError(f"the r grid repeats {float(r):g}")


def critical_value_table(
    family: str,
    p: float,
    grid: FieldGrid,
    q: WeightKind,
    r_grid,
    alphas,
    B: int,
    seed: int,
) -> CriticalValueTable:
    """Simulate L on an r grid and tabulate the requested quantiles.

    Every node draws at the command's own seed, so the row of node r is
    ``quantile(simulate_L(make_model(family, r), p, grid, q, B,
    base_seed=seed), a)``, whatever the other nodes are, and the nodes share
    their normals as the pairs driver's pairs do.  The inputs are checked by
    ``check_table_inputs``, and seed < 0 raises ValueError, before any
    simulator is built.
    """
    check_table_inputs(family, p, r_grid, alphas, B)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    r_grid = np.asarray(sorted(float(r) for r in r_grid))
    alphas = tuple(float(a) for a in alphas)
    quants = np.empty((r_grid.size, len(alphas)))
    for i, r in enumerate(r_grid):
        model = make_model(family, float(r))
        draws = simulate_L(model, p, grid, q, B, base_seed=seed)
        quants[i] = [quantile(draws, a) for a in alphas]
    return CriticalValueTable(
        family=family, p=p, grid=grid, q=q, r_grid=r_grid,
        alphas=alphas, B=B, seed=seed, quantiles=quants,
    )
