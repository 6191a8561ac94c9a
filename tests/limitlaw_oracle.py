"""Reference pipeline for the limit-law simulator: the discretized Wiener field.

The field is drawn cell by cell (W_ij ~ N(0, Lambda(C_ij)) plus one overflow
cell per row and per column strip) and every process entering X is evaluated
from its prefix sums, one angle at a time.  This is the construction that
``limitlaw.LimitLawSimulator`` replaces by an exact covariance: pushing unit
vectors through it yields the linear map G from the cell variables to X, and
G G' is the covariance the simulator assembles in closed form.

``dense_covariance`` is the closed-form assembly over dense
(N + 2) x (M - 1) strip tables that the simulator's staircase assembly
replaces; it agrees with ``field_covariance`` and serves as the oracle on
grids too large for the field.  ``full_cell_masses`` evaluates every cell
mass, where ``limitlaw.cell_masses`` mirrors the table across its diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from angular_gof import geometry
from angular_gof import limitlaw as ll
from angular_gof.geometry import PI_2
from angular_gof.models import get_law, grad_normalized_cdf


def full_cell_masses(model, grid) -> np.ndarray:
    """Lambda(C_ij) for every cell, in row blocks of ``limitlaw._MASS_BLOCK``
    with the same four-corner order as ``limitlaw.cell_masses``."""
    x = np.arange(grid.M) * grid.h
    masses = np.empty((grid.M - 1, grid.M - 1))
    for i0 in range(0, grid.M - 1, ll._MASS_BLOCK):
        i1 = min(i0 + ll._MASS_BLOCK, grid.M - 1)
        R = model.rect_mass(x[i0:i1 + 1, None], x[None, :])
        np.maximum(R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1], 0.0, out=masses[i0:i1])
    return masses


@dataclass
class GaussianField:
    """One realization of the discretized Wiener field with prefix sums."""

    grid: ll.FieldGrid
    W: np.ndarray  # (M-1, M-1) core cells
    row_of: np.ndarray  # (M-1,) overflow cells (x-strip, y beyond grid)
    col_of: np.ndarray  # (M-1,) overflow cells (y-strip, x beyond grid)
    row_prefix: np.ndarray = field(init=False)  # (M-1, M): cumsum along j, core only
    w1_cum: np.ndarray = field(init=False)  # (M,): prefix of row sums incl. overflow
    w2_cum: np.ndarray = field(init=False)  # (M,): prefix of col sums incl. overflow

    def __post_init__(self):
        m = self.W.shape[0]
        self.row_prefix = np.concatenate(
            [np.zeros((m, 1)), np.cumsum(self.W, axis=1)], axis=1
        )
        rowsum = self.row_prefix[:, -1] + self.row_of
        colsum = self.W.sum(axis=0) + self.col_of
        self.w1_cum = np.concatenate([[0.0], np.cumsum(rowsum)])
        self.w2_cum = np.concatenate([[0.0], np.cumsum(colsum)])


def field_from_normals(grid, z, masses, row_of, col_of) -> GaussianField:
    """Scale standard normals z of shape (M-1, M+1) to the cell variances."""
    m = grid.M - 1
    return GaussianField(
        grid=grid,
        W=z[:, :m] * np.sqrt(masses),
        row_of=z[:, m] * np.sqrt(row_of),
        col_of=z[:, m + 1] * np.sqrt(col_of),
    )


def simulate_field(model, grid, seed, masses=None) -> GaussianField:
    """Draw W_ij ~ N(0, Lambda(C_ij)) independently (plus overflow cells)."""
    if masses is None:
        masses = ll.cell_masses(model, grid)
    row_of, col_of = ll.overflow_masses(model, grid, masses)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = grid.M - 1
    return field_from_normals(grid, rng.standard_normal((m, m + 2)), masses, row_of, col_of)


@functools.lru_cache(maxsize=None)
def _bounds(grid, p, theta):
    return ll._c_bounds(grid, p, theta)


def eval_W_on_Cptheta(field: GaussianField, p: float, theta: float) -> float:
    """W evaluated on the angular set C_{p,theta} (finite p)."""
    if math.isinf(p):
        raise ll.UnsupportedFeatureError("p = inf is not supported by the limit-law simulator")
    rows = np.arange(field.grid.M - 1)
    return float(field.row_prefix[rows, _bounds(field.grid, p, theta)].sum())


def eval_marginals(field: GaussianField, x: float) -> tuple[float, float]:
    """(W_1(x), W_2(x)) via prefix-sum lookups (full-cell convention)."""
    idx = int(ll.marg_index(x, field.grid))
    return float(field.w1_cum[idx]), float(field.w2_cum[idx])


def eval_W_on_A(field: GaussianField, x: float, y: float) -> float:
    """W on A_{(x,y)} = {u <= x or v <= y} by inclusion-exclusion."""
    ix = int(ll.marg_index(x, field.grid))
    iy = int(ll.marg_index(y, field.grid))
    w1 = float(field.w1_cum[ix])
    w2 = float(field.w2_cum[iy])
    block = float(field.row_prefix[:ix, iy].sum())
    return w1 + w2 - block


@functools.lru_cache(maxsize=None)
def z_coefficients(model, grid, p: float, theta: float):
    """Midpoint-rule coefficients of Z_p(theta) in (W_1(x_m), W_2(.)), one
    angle at a time: (coef_w1, coef_w2, idx_w2) as in
    ``dense_z_coefficients``."""
    h = grid.h
    m = grid.M - 1
    xm = (np.arange(m) + 0.5) * h
    coef_w1 = np.zeros(m)
    coef_w2 = np.zeros(m)
    y_at = np.zeros(m)

    xp = geometry.x_p_of_theta(p, theta)
    if theta < PI_2:
        tan = math.tan(theta)
        mask1 = xm < xp
        lam1 = model.exponent_density(xm[mask1], xm[mask1] * tan)
        coef_w1[mask1] = h * lam1 * tan
        coef_w2[mask1] = -h * lam1
        y_at[mask1] = xm[mask1] * tan
    mask2 = xm > max(xp, 1.0)
    if np.any(mask2):
        ypx = geometry.y_p(p, xm[mask2])
        lam2 = model.exponent_density(xm[mask2], ypx)
        coef_w1[mask2] = -h * lam2 * geometry.y_p_prime_abs(p, xm[mask2])
        coef_w2[mask2] = -h * lam2
        y_at[mask2] = ypx
    idx_w2 = ll.marg_index(y_at, grid)
    return coef_w1, coef_w2, idx_w2


def eval_Zp(field: GaussianField, model, p: float, theta: float) -> float:
    """Z_p(theta) from the field's marginal prefix sums."""
    if math.isinf(p):
        raise ll.UnsupportedFeatureError("p = inf is not supported by the limit-law simulator")
    coef_w1, coef_w2, idx_w2 = z_coefficients(model, field.grid, p, float(theta))
    w1_mid = field.w1_cum[: field.grid.M - 1]
    return float(coef_w1 @ w1_mid + coef_w2 @ field.w2_cum[idx_w2])


def alpha_ext(field: GaussianField, model, p: float) -> np.ndarray:
    """(alpha(theta_1..N), alpha(pi/2), I) of one field, length N + 2."""
    theta = field.grid.theta_grid()
    out = [eval_W_on_Cptheta(field, p, t) + eval_Zp(field, model, p, t) for t in theta]
    out.append(eval_W_on_Cptheta(field, p, PI_2) + eval_Zp(field, model, p, PI_2))
    g, x0, y0 = model.expansion_g(), 1.0, 1.0
    d1, d2 = model.stdf_partials(x0, y0)
    w1, w2 = eval_marginals(field, 1.0)
    out.append(g * (eval_W_on_A(field, x0, y0) - d1 * w1 - d2 * w2))
    return np.array(out)


def x_from_alpha(alpha: np.ndarray, model, p: float, grid) -> np.ndarray:
    """The beta, gamma and gradient steps, applied to the columns of alpha
    (shape (N + 2, K)); returns X of shape (N, K)."""
    n = grid.N
    law = get_law(model, p)
    theta = grid.theta_grid()
    Q = law.normalized_cdf(theta)[:, None]
    beta = alpha[:n] / law.total_mass - Q * alpha[n] / law.total_mass
    fprime = geometry.constraint_f_prime(p, theta)
    c_beta = (PI_2 / n) * (fprime @ beta)
    gamma = beta + (c_beta / law.var_f) * law.f_integral(theta)[:, None]
    return gamma - grad_normalized_cdf(model, p, theta)[:, None] * alpha[n + 1]


def field_covariance(model, p: float, grid) -> np.ndarray:
    """G G' with G the map from the M^2 - 1 standard normals of the field to
    X, built column by column from unit vectors."""
    m = grid.M - 1
    masses = ll.cell_masses(model, grid)
    row_of, col_of = ll.overflow_masses(model, grid, masses)
    z = np.zeros((m, m + 2))
    cols = []
    for idx in range(z.size):
        z.flat[idx] = 1.0
        cols.append(alpha_ext(field_from_normals(grid, z, masses, row_of, col_of), model, p))
        z.flat[idx] = 0.0
    G = x_from_alpha(np.column_stack(cols), model, p, grid)
    return G @ G.T


def dense_z_coefficients(model, grid, p: float, theta: np.ndarray):
    """Midpoint-rule coefficients of Z_p(theta_k) in (W_1(x_m), W_2(.)) for
    all angles at once, as dense tables of shape (len(theta), M-1):
    Z_p(theta_k) = coef_w1[k] . W1_mid + sum_m coef_w2[k, m] W2[idx_w2[k, m]],
    with W1_mid[m] = W_1 at the m-th cell midpoint.  theta = pi/2 keeps only
    the boundary-curve integral."""
    h = grid.h
    m = grid.M - 1
    xm = (np.arange(m) + 0.5) * h
    xp = geometry.x_p_of_theta(p, theta)
    chordal = theta < PI_2
    tan = np.zeros(theta.size)
    tan[chordal] = [math.tan(t) for t in theta[chordal]]

    beyond = xm > 1.0
    x2 = xm[beyond]
    y2 = geometry.y_p(p, x2)
    rows1, cols1 = np.nonzero((xm[None, :] < xp[:, None]) & chordal[:, None])
    y1 = xm[cols1] * tan[rows1]
    lam = model.exponent_density(np.concatenate([x2, xm[cols1]]), np.concatenate([y2, y1]))
    lam2, lam1 = lam[: x2.size], lam[x2.size:]

    curve_w1 = np.zeros(m)
    curve_w2 = np.zeros(m)
    curve_idx = np.zeros(m, dtype=np.int64)
    curve_w1[beyond] = -h * lam2 * geometry.y_p_prime_abs(p, x2)
    curve_w2[beyond] = -h * lam2
    curve_idx[beyond] = ll.marg_index(y2, grid)
    on_curve = xm[None, :] > np.maximum(xp, 1.0)[:, None]
    coef_w1 = np.where(on_curve, curve_w1, 0.0)
    coef_w2 = np.where(on_curve, curve_w2, 0.0)
    idx_w2 = np.where(on_curve, curve_idx, 0)
    coef_w1[rows1, cols1] = h * lam1 * tan[rows1]
    coef_w2[rows1, cols1] = -h * lam1
    idx_w2[rows1, cols1] = ll.marg_index(y1, grid)
    return coef_w1, coef_w2, idx_w2


def dense_strip_tables(model, p: float, grid):
    """The strip coefficient tables a (W_1, by row i) and b (W_2, by column
    j), dense, shape (N + 2, M - 1): rows alpha(theta_1..N), alpha(pi/2), I."""
    N = grid.N
    m = grid.M - 1
    R = N + 2
    theta_ext = np.append(grid.theta_grid(), PI_2)
    g, x0, y0 = model.expansion_g(), 1.0, 1.0
    d1, d2 = model.stdf_partials(x0, y0)
    i11 = int(ll.marg_index(x0, grid))
    j11 = int(ll.marg_index(y0, grid))
    coef_w1, coef_w2, idx_w2 = dense_z_coefficients(model, grid, p, theta_ext)
    a = np.zeros((R, m))
    np.cumsum(coef_w1[:, :0:-1], axis=1, out=a[: N + 1, -2::-1])
    idx_w2 = idx_w2 + (np.arange(N + 1) * grid.M)[:, None]
    hist = np.bincount(
        idx_w2.ravel(), weights=coef_w2.ravel(), minlength=(N + 1) * grid.M
    ).reshape(N + 1, grid.M)
    b = np.zeros((R, m))
    np.cumsum(hist[:, :0:-1], axis=1, out=b[: N + 1, ::-1])
    a[N + 1, :i11] = g * (1.0 - d1)
    b[N + 1, :j11] = g * (1.0 - d2)
    return a, b


def dense_to_X(rows: np.ndarray, Q, int_f, f_prime_c, total_mass, grad_Q) -> np.ndarray:
    """The map (alpha(theta_1..N), alpha(pi/2), I) -> X along axis 0, as the
    identity plus three rank-one row updates; ``rows`` is updated in place."""
    n = Q.size
    out = rows[:n]
    out -= np.outer(Q, rows[n])
    out += np.outer(int_f, f_prime_c @ out)
    out /= total_mass
    out -= np.outer(grad_Q, rows[n + 1])
    return out


def dense_set_masses(masses, grid, p: float, i11: int, j11: int):
    """Mass of each set S_r (C_{p,theta_1..N}, C_{p,pi/2}, the I block) in
    each row and each column, shape (M - 1, N + 2), and the mass of
    S_0..S_N inside the I block.  Per row, a histogram over the first angle
    index whose set holds each cell, cumulated over the angles."""
    N = grid.N
    m = grid.M - 1
    R = N + 2
    bound_N = ll._c_bounds(grid, p, PI_2)
    tan = np.array([math.tan(t) for t in grid.theta_grid()])
    cols = np.arange(m)
    u = np.zeros((m, R))
    v = np.zeros((m, R))
    set_in_block = np.zeros(R)
    for i in range(m):
        kappa = np.searchsorted(np.floor(i * tan) + 1, cols, side="right")
        kappa[bound_N[i]:] = N + 1
        u[i] = np.bincount(kappa, weights=masses[i], minlength=R)
        v[cols, kappa] += masses[i]
        if i < i11:
            set_in_block += np.bincount(kappa[:j11], weights=masses[i, :j11], minlength=R)
    np.cumsum(u, axis=1, out=u)
    np.cumsum(v, axis=1, out=v)
    np.cumsum(set_in_block, out=set_in_block)
    block = masses[:i11, :j11]
    u[:, N + 1] = 0.0
    u[:i11, N + 1] = block.sum(axis=1)
    v[:, N + 1] = 0.0
    v[:j11, N + 1] = block.sum(axis=0)
    return u, v, set_in_block[: N + 1]


def dense_covariance(model, p: float, grid) -> np.ndarray:
    """Covariance of X assembled from the dense (N + 2) x (M - 1) strip
    tables and the per-row histograms of ``dense_set_masses``."""
    N = grid.N
    g, x0, y0 = model.expansion_g(), 1.0, 1.0
    i11 = int(ll.marg_index(x0, grid))
    j11 = int(ll.marg_index(y0, grid))
    a, b = dense_strip_tables(model, p, grid)

    masses = ll.cell_masses(model, grid)
    row_of, col_of = ll.overflow_masses(model, grid, masses)
    row_tot = masses.sum(axis=1) + row_of
    col_tot = masses.sum(axis=0) + col_of
    u, v, set_in_block = dense_set_masses(masses, grid, p, i11, j11)
    u[:, N + 1] *= -g
    v[:, N + 1] *= -g
    block_mass = float(masses[:i11, :j11].sum())
    set_mass = u[:, : N + 1].sum(axis=0)

    u += masses @ b.T
    u += 0.5 * row_tot[:, None] * a.T
    v += 0.5 * col_tot[:, None] * b.T
    sigma = a @ u + b @ v
    sigma += sigma.T.copy()
    sigma[: N + 1, : N + 1] += np.minimum.outer(set_mass, set_mass)
    sigma[: N + 1, N + 1] -= g * set_in_block
    sigma[N + 1, : N + 1] -= g * set_in_block
    sigma[N + 1, N + 1] += g * g * block_mass

    law = get_law(model, p)
    theta = grid.theta_grid()
    args = (
        law.normalized_cdf(theta),
        law.f_integral(theta),
        (PI_2 / N) * geometry.constraint_f_prime(p, theta) / law.var_f,
        law.total_mass,
        grad_normalized_cdf(model, p, theta),
    )
    dense_to_X(dense_to_X(sigma, *args).T, *args)
    return sigma[:N, :N]


def draw_X(sim: ll.LimitLawSimulator, rng: np.random.Generator) -> np.ndarray:
    """One trajectory of X on the theta grid, from the simulator's factor."""
    return sim._F @ rng.standard_normal(sim.grid.N)


def q_cells(q, grid) -> np.ndarray:
    """Exact integrals of the weight q over the N theta cells."""
    edges = np.arange(grid.N + 1) * (PI_2 / grid.N)
    return np.asarray(geometry.weight_q_cell_integral(q, edges[:-1], edges[1:]), dtype=float)


def draw(sim: ll.LimitLawSimulator, q, rng: np.random.Generator) -> float:
    """One draw of L under the weight q (Riemann sum with exact weight-cell
    integrals)."""
    return float(np.abs(draw_X(sim, rng)) @ q_cells(q, sim.grid))
