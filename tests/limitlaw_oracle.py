"""Reference pipeline for the limit-law simulator: the discretized Wiener field.

The field is drawn cell by cell (W_ij ~ N(0, Lambda(C_ij)) plus one overflow
cell per row and per column strip) and every process entering X is evaluated
from its prefix sums, one angle at a time.  This is the construction that
``limitlaw.LimitLawSimulator`` replaces by an exact covariance: pushing unit
vectors through it yields the linear map G from the cell variables to X, and
G G' is the covariance the simulator assembles in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from angular_gof import geometry
from angular_gof import limitlaw as ll
from angular_gof.geometry import PI_2
from angular_gof.models import (
    expansion_constants,
    get_law,
    grad_normalized_cdf,
)


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
    ``limitlaw._z_coefficients``."""
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
    g, (x0, y0) = expansion_constants(model)
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
