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
Sigma matters.  ``LimitLawSimulator`` assembles Sigma exactly from prefix
sums of the cell masses and keeps the lower Cholesky factor F of
Sigma + delta I, delta = 1e-11 max diag(Sigma) (Sigma is positive
semidefinite and nearly singular, so the jitter makes the factorization
succeed; Rasmussen & Williams 2006, Gaussian Processes for Machine Learning,
App. A.2).  A draw is X = F eps with eps ~ N(0, I_N).  ``simulate_L`` draws
replicates in blocks of 64: block j fills its 64 x N matrix of eps row by row
from one generator keyed by (base_seed, j), and replicate b is row b % 64 of
block b // 64, so its value depends on neither B nor the thread count.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import PI_2, WeightKind
from .models import (
    Model,
    expansion_constants,
    get_law,
    grad_normalized_cdf,
    make_model,
)

__all__ = [
    "FieldGrid",
    "DESK_GRID",
    "PAPER_GRID",
    "LimitLawDraws",
    "CriticalValueTable",
    "UnsupportedFeatureError",
    "cell_masses",
    "overflow_masses",
    "LimitLawSimulator",
    "simulate_L",
    "quantile",
    "p_value",
    "critical_value_table",
    "block_rng",
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
        if self.h <= 0 or self.M < 3 or self.N < 2:
            raise ValueError("invalid grid specification")

    @property
    def coverage(self) -> float:
        return self.h * (self.M - 1)

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
    elementwise, so the result does not depend on the block size.
    """
    x = np.arange(grid.M) * grid.h
    masses = np.empty((grid.M - 1, grid.M - 1))
    for i0 in range(0, grid.M - 1, _MASS_BLOCK):
        i1 = min(i0 + _MASS_BLOCK, grid.M - 1)
        R = model.rect_mass(x[i0:i1 + 1, None], x[None, :])
        np.maximum(R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1], 0.0, out=masses[i0:i1])
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


def _z_coefficients(model: Model, grid: FieldGrid, p: float, theta: np.ndarray):
    """Midpoint-rule coefficients of Z_p(theta_k) in (W_1(x_m), W_2(.)).

    Returns (coef_w1, coef_w2, idx_w2), each of shape (len(theta), M-1), with
    Z_p(theta_k) = coef_w1[k] . W1_mid + sum_m coef_w2[k, m] W2[idx_w2[k, m]],
    where W1_mid[m] = W_1 at the m-th cell midpoint.  theta = pi/2 keeps only
    the boundary-curve integral (the chordal integrand vanishes in that
    limit).  The exponent density is evaluated in one call for all angles.
    """
    h = grid.h
    m = grid.M - 1
    xm = (np.arange(m) + 0.5) * h
    xp = geometry.x_p_of_theta(p, theta)
    chordal = theta < PI_2
    tan = np.zeros(theta.size)
    tan[chordal] = [math.tan(t) for t in theta[chordal]]

    # Boundary-curve part: midpoints beyond max(x_p(theta), 1).  The curve
    # point (x, y_p(x)) does not depend on theta.
    beyond = xm > 1.0
    x2 = xm[beyond]
    y2 = geometry.y_p(p, x2)
    # Chordal part: midpoints below x_p(theta), on the ray of angle theta.
    rows1, cols1 = np.nonzero((xm[None, :] < xp[:, None]) & chordal[:, None])
    y1 = xm[cols1] * tan[rows1]
    lam = model.exponent_density(np.concatenate([x2, xm[cols1]]), np.concatenate([y2, y1]))
    lam2, lam1 = lam[: x2.size], lam[x2.size:]

    curve_w1 = np.zeros(m)
    curve_w2 = np.zeros(m)
    curve_idx = np.zeros(m, dtype=np.int64)
    curve_w1[beyond] = -h * lam2 * geometry.y_p_prime_abs(p, x2)
    curve_w2[beyond] = -h * lam2
    curve_idx[beyond] = marg_index(y2, grid)
    on_curve = xm[None, :] > np.maximum(xp, 1.0)[:, None]
    coef_w1 = np.where(on_curve, curve_w1, 0.0)
    coef_w2 = np.where(on_curve, curve_w2, 0.0)
    idx_w2 = np.where(on_curve, curve_idx, 0)
    coef_w1[rows1, cols1] = h * lam1 * tan[rows1]
    coef_w2[rows1, cols1] = -h * lam1
    idx_w2[rows1, cols1] = marg_index(y1, grid)
    return coef_w1, coef_w2, idx_w2


def _to_X(rows: np.ndarray, Q, int_f, f_prime_c, total_mass, grad_Q) -> np.ndarray:
    """Apply the map (alpha(theta_1..N), alpha(pi/2), I) -> X along axis 0.

    ``rows`` has N + 2 rows and is updated in place; the returned view holds
    the N rows of X.  The map is the identity plus three rank-one terms (the
    beta step, the gamma step with f_prime_c = dtheta f' / sigma_Q^2(f), and
    the gradient term), applied as row updates.
    """
    n = Q.size
    out = rows[:n]
    out -= np.outer(Q, rows[n])
    out += np.outer(int_f, f_prime_c @ out)
    out /= total_mass
    out -= np.outer(grad_Q, rows[n + 1])
    return out


def _covariance(model: Model, p: float, grid: FieldGrid, tol: float = 1e-8) -> np.ndarray:
    """Exact covariance of X on the theta grid, shape (N, N).

    Row r of alpha_ext = (alpha(theta_1..N), alpha(pi/2), I) gives cell (i, j)
    the coefficient a_r(i) + b_r(j) + s_r 1{(i, j) in S_r}: a_r collects the
    W_1 strips (a suffix sum of the Z_p coefficients), b_r the W_2 strips (a
    reverse-cumulative histogram of the Z_p coefficients by W_2 index), and
    S_r is C_{p,theta} (s_r = 1) or, for the I row, the block below (1, 1)
    (s_r = -g).  The row overflow cell carries a_r(i) alone and the column
    overflow cell b_r(j) alone.  The C-set bounds are monotone in theta, so
    cell (i, j) lies in S_k exactly for k >= kappa_ij and the indicator cross
    terms are prefix sums of mass histograms over kappa.
    """
    if math.isinf(p):
        raise UnsupportedFeatureError("p = inf is not supported by the limit-law simulator")
    N = grid.N
    m = grid.M - 1
    R = N + 2
    theta_ext = np.append(grid.theta_grid(), PI_2)
    g, (x0, y0) = expansion_constants(model)
    d1, d2 = model.stdf_partials(x0, y0)
    i11 = int(marg_index(x0, grid))
    j11 = int(marg_index(y0, grid))

    # Strip coefficients, shape (R, m): a[r, i] of row i (W_1), b[r, j] of
    # column j (W_2).
    coef_w1, coef_w2, idx_w2 = _z_coefficients(model, grid, p, theta_ext)
    a = np.zeros((R, m))
    np.cumsum(coef_w1[:, :0:-1], axis=1, out=a[: N + 1, -2::-1])
    del coef_w1
    idx_w2 += (np.arange(N + 1) * grid.M)[:, None]
    hist = np.bincount(
        idx_w2.ravel(), weights=coef_w2.ravel(), minlength=(N + 1) * grid.M
    ).reshape(N + 1, grid.M)
    del coef_w2, idx_w2
    b = np.zeros((R, m))
    np.cumsum(hist[:, :0:-1], axis=1, out=b[: N + 1, ::-1])
    del hist
    a[N + 1, :i11] = g * (1.0 - d1)
    b[N + 1, :j11] = g * (1.0 - d2)

    masses = cell_masses(model, grid)
    row_of, col_of = overflow_masses(model, grid, masses)
    row_tot = masses.sum(axis=1) + row_of
    col_tot = masses.sum(axis=0) + col_of

    # u[i, r] and v[j, r]: s_r times the mass of S_r in row i and column j.
    # kappa (per row i) holds for each column j the first index of theta_ext
    # whose set includes cell (i, j), or N + 1 if none does.  By _c_bounds,
    # C_{p,pi/2} holds the cells j < bound_N[i], and C_{p,theta_k} (k < N)
    # those of them with j < floor(i tan theta_k) + 1, nondecreasing in k.
    bound_N = _c_bounds(grid, p, PI_2)
    tan = np.array([math.tan(t) for t in theta_ext[:N]])
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
    u[:i11, N + 1] = -g * block.sum(axis=1)
    v[:, N + 1] = 0.0
    v[:j11, N + 1] = -g * block.sum(axis=0)
    block_mass = float(block.sum())
    set_mass = u[:, : N + 1].sum(axis=0)

    # Sigma_alpha = a D_row a' + b D_col b' + sym(a (masses b' + u) + b v) + K
    #             = sym(a (masses b' + u + D_row a' / 2) + b (v + D_col b' / 2)) + K.
    u += masses @ b.T
    del masses
    u += 0.5 * row_tot[:, None] * a.T
    v += 0.5 * col_tot[:, None] * b.T
    sigma = a @ u
    del a, u
    sigma += b @ v
    del b, v
    sigma += sigma.T.copy()
    # The sets are nested, so mass(S_k & S_l) = set_mass[min(k, l)], and
    # set_mass is nondecreasing.
    sigma[: N + 1, : N + 1] += np.minimum.outer(set_mass, set_mass)
    sigma[: N + 1, N + 1] -= g * set_in_block[: N + 1]
    sigma[N + 1, : N + 1] -= g * set_in_block[: N + 1]
    sigma[N + 1, N + 1] += g * g * block_mass

    law = get_law(model, p, tol)
    theta = theta_ext[:N]
    args = (
        law.normalized_cdf(theta),
        law.f_integral(theta),
        (PI_2 / N) * geometry.constraint_f_prime(p, theta) / law.var_f,
        law.total_mass,
        grad_normalized_cdf(model, p, theta, tol),
    )
    _to_X(_to_X(sigma, *args).T, *args)
    return sigma[:N, :N]


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

    def __init__(self, model: Model, p: float, grid: FieldGrid, q: WeightKind, tol: float = 1e-8):
        self.model = model
        self.p = p
        self.grid = grid
        self.q = q
        sigma = _covariance(model, p, grid, tol)
        sigma[np.diag_indices(grid.N)] += _JITTER * sigma.diagonal().max()
        try:
            self._F = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"covariance of X is not positive definite for {model.family} "
                f"r={model.r:.12g}, p={p:.12g}, grid h={grid.h:.12g} M={grid.M} "
                f"N={grid.N}: {exc}"
            ) from exc
        # Exact per-cell integrals of the weight function.
        edges = np.arange(grid.N + 1) * (PI_2 / grid.N)
        self._q_cells = np.asarray(
            geometry.weight_q_cell_integral(q, edges[:-1], edges[1:]), dtype=float
        )

    def draw_X(self, rng: np.random.Generator) -> np.ndarray:
        """One trajectory of X on the theta grid."""
        return self._F @ rng.standard_normal(self.grid.N)

    def draw(self, rng: np.random.Generator) -> float:
        """One draw of L (Riemann sum with exact weight-cell integrals)."""
        return float(np.abs(self.draw_X(rng)) @ self._q_cells)


@dataclass
class LimitLawDraws:
    """B simulated draws of the null law with full reproduction metadata."""

    values: np.ndarray
    family: str
    r: float
    p: float
    q: WeightKind
    grid: FieldGrid
    base_seed: int
    B: int


def block_rng(base_seed: int, block: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one block of replicates."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=base_seed, spawn_key=(block,)))
    )


@functools.lru_cache(maxsize=16)
def _cached_simulator(family: str, r: float, p: float, grid: FieldGrid, q: WeightKind, tol: float):
    return LimitLawSimulator(make_model(family, r), p, grid, q, tol)


def get_simulator(model: Model, p: float, grid: FieldGrid, q: WeightKind, tol: float = 1e-8) -> LimitLawSimulator:
    return _cached_simulator(model.family, model.r, p, grid, q, tol)


# Replicates per block in simulate_L: one generator fills a block's normals
# and one matrix product maps them.  The shape of every product is fixed (the
# last block is zero-padded), so replicate b is computed by the same
# arithmetic whatever B is.
_CHUNK = 64


def simulate_L(
    model: Model,
    p: float,
    grid: FieldGrid,
    q: WeightKind,
    B: int,
    base_seed: int,
    threads: int = 1,
) -> LimitLawDraws:
    """B independent draws.  Replicate b is row b % 64 of the normals that
    ``block_rng(base_seed, b // 64)`` writes row by row, so its value depends
    on neither B nor ``threads``.

    ``threads`` is accepted for the callers' signatures and unused: the draws
    are matrix products whose threading is the BLAS library's.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    sim = get_simulator(model, p, grid, q)
    values = np.empty(B)
    eps = np.empty((_CHUNK, grid.N))
    for start in range(0, B, _CHUNK):
        n = min(_CHUNK, B - start)
        block_rng(base_seed, start // _CHUNK).standard_normal(out=eps[:n])
        eps[n:] = 0.0
        values[start:start + n] = (np.abs(eps @ sim._F.T) @ sim._q_cells)[:n]
    return LimitLawDraws(
        values=values, family=model.family, r=model.r, p=p, q=q,
        grid=grid, base_seed=base_seed, B=B,
    )


def quantile(draws: LimitLawDraws | np.ndarray, alpha: float) -> float:
    """ceil(alpha * B)-th order statistic of the draws."""
    values = draws.values if isinstance(draws, LimitLawDraws) else np.asarray(draws)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    b = values.size
    rank = max(int(math.ceil(alpha * b)), 1)
    return float(np.sort(values)[rank - 1])


def p_value(draws: LimitLawDraws | np.ndarray, t: float) -> float:
    """Exceedance proportion (1/B) #{b : L_b >= t}."""
    values = draws.values if isinstance(draws, LimitLawDraws) else np.asarray(draws)
    return float(np.count_nonzero(values >= t)) / values.size


def _round_sig(x: float, digits: int = 12) -> float:
    """Round to a fixed number of significant digits (table quantization)."""
    return float(f"{x:.{digits}g}")


@dataclass
class CriticalValueTable:
    """Quantiles of L on a parameter grid, linearly interpolated in r.

    Quantile values are quantized to 12 significant digits at construction so
    that a table written to disk and read back reproduces decisions exactly.
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

    def interp(self, r: float, alpha: float) -> float:
        try:
            col = self.alphas.index(alpha)
        except ValueError:
            raise KeyError(f"alpha {alpha} not in table (have {self.alphas})") from None
        r_clamped = float(np.clip(r, self.r_grid[0], self.r_grid[-1]))
        return float(np.interp(r_clamped, self.r_grid, self.quantiles[:, col]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    def dumps(self) -> str:
        out = io.StringIO()
        out.write("# angular-gof critical-value table v1\n")
        out.write(f"# family={self.family}\n")
        out.write(f"# p={self.p:.12g}\n")
        out.write(f"# grid_h={self.grid.h:.12g} grid_M={self.grid.M} grid_N={self.grid.N}\n")
        out.write(f"# q={self.q.value}\n")
        out.write(f"# B={self.B}\n")
        out.write(f"# seed={self.seed}\n")
        out.write("# columns: r " + " ".join(f"q{a:.12g}" for a in self.alphas) + "\n")
        for i, r in enumerate(self.r_grid):
            row = " ".join(f"{v:.12g}" for v in self.quantiles[i])
            out.write(f"{r:.12g} {row}\n")
        return out.getvalue()

    @classmethod
    def load(cls, path) -> "CriticalValueTable":
        meta = {}
        rows = []
        alphas = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("columns:"):
                        alphas = tuple(
                            float(tok[1:]) for tok in body.split()[2:]
                        )
                    else:
                        for tok in body.split():
                            if "=" in tok:
                                key, val = tok.split("=", 1)
                                meta[key] = val
                    continue
                rows.append([float(tok) for tok in line.split()])
        if alphas is None or not rows:
            raise ValueError(f"malformed critical-value table {path}")
        arr = np.asarray(rows)
        grid = FieldGrid(h=float(meta["grid_h"]), M=int(meta["grid_M"]), N=int(meta["grid_N"]))
        return cls(
            family=meta["family"],
            p=float(meta["p"]),
            grid=grid,
            q=WeightKind.from_name(meta["q"]),
            r_grid=arr[:, 0],
            alphas=alphas,
            B=int(meta["B"]),
            seed=int(meta["seed"]),
            quantiles=arr[:, 1:],
        )


def critical_value_table(
    family: str,
    p: float,
    grid: FieldGrid,
    q: WeightKind,
    r_grid,
    alphas,
    B: int,
    seed: int,
    threads: int = 1,
) -> CriticalValueTable:
    """Simulate L on an r grid and tabulate the requested quantiles.

    Replicate streams are keyed by (seed, r-index, b) so the table is
    deterministic and independent of scheduling.
    """
    r_grid = np.asarray(sorted(float(r) for r in r_grid))
    alphas = tuple(float(a) for a in alphas)
    quants = np.empty((r_grid.size, len(alphas)))
    for i, r in enumerate(r_grid):
        model = make_model(family, float(r))
        draws = simulate_L(model, p, grid, q, B, base_seed=seed * 1_000_003 + i, threads=threads)
        for j, a in enumerate(alphas):
            quants[i, j] = _round_sig(quantile(draws, a))
    return CriticalValueTable(
        family=family, p=p, grid=grid, q=q, r_grid=r_grid,
        alphas=alphas, B=B, seed=seed, quantiles=quants,
    )
