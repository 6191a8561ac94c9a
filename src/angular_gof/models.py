"""Parametric extremal-dependence families and their angular measures.

Two built-in families (logistic and Hüsler–Reiss, by tag in ``FAMILIES``)
implement a common interface: the stable tail dependence function (stdf)
ell_r, the exponent measure density lambda_r, rectangle masses, stdf partial
derivatives, the inversion of ell(1,1) with its clamped values and expansion
constant g, the power-study r grid and base parameter ``scenario_r``, an exact
sampler ``sample(n, rng)`` of the copula exp(-ell_r(-log u, -log v)) with no
root finding, and the angular density / CDF on the positive arc of the L_p
unit sphere.

The angular CDF has no closed form; it is integrated once per (family, r, p)
by composite Gauss–Legendre panels under an endpoint substitution that tames
the density singularity (logistic density ~ theta^(1/r - 2) near the axes).
Both families are exchangeable, so the angular measure is symmetric about
pi/4: the cumulative integrals are kept on the lower half-arc [0, pi/4] only,
one table of monotone cubic Hermite coefficients per cumulative, indexed by
panel, and an angle above pi/4 is looked up at its mirror image.
``get_law`` keeps the laws in the package's one byte-bounded cache
(``_lru.CACHE``), so a command builds each (model, p) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from statistics import NormalDist

import numpy as np

from . import _lru
from .geometry import PI_2, PI_4, lp_norm

__all__ = [
    "LogisticModel",
    "HuslerReissModel",
    "ParamEstimate",
    "QuadratureError",
    "FAMILIES",
    "family_class",
    "make_model",
    "estimate_param",
    "angular_density",
    "get_law",
    "AngularLaw",
]


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _npdf(x):
    """Standard normal density (the expression scipy.stats.norm.pdf evaluates)."""
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


# W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969; his
# CALERF), leading coefficient first: erf(z) = z P(z^2)/Q(z^2) for z < 0.5,
# erfc(z) = exp(-z^2) P(z)/Q(z) on [0.5, 4], and beyond it
# erfc(z) = exp(-z^2)/z (1/sqrt(pi) - w P(w)/Q(w)) with w = 1/z^2.
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_Q = (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
_ERFC_P = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
           6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
           1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_ERFC_Q = (1.0, 1.57449261107098347e1, 1.17693950891312499e2,
           5.37181101862009858e2, 1.62138957456669019e3, 3.29079923573345963e3,
           4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3)
_ASYM_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ASYM_Q = (1.0, 2.56852019228982242e0, 1.87295284992346725e0,
           5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)
_SQRT1_2 = math.sqrt(0.5)
_SQRT1_PI = 5.6418958354775628695e-1
_Z_ZERO = 27.5  # exp(-z^2) underflows to 0 from about z = 27.3 on
_STD_NORMAL = NormalDist()  # inv_cdf is Wichura's AS 241


def _horner(coef, t):
    """Polynomial with coefficients ``coef`` (leading first) at t, in place."""
    out = coef[0] * t
    out += coef[1]
    for c in coef[2:]:
        out *= t
        out += c
    return out


def _ndtr(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2, vectorized.

    With z = |x| / sqrt(2), Phi is 1/2 + erf(x / sqrt(2)) / 2 for z < 0.5,
    and erfc(z)/2 (x < 0) or 1 - erfc(z)/2 (x > 0) elsewhere.  exp(-z^2) is
    exp(-(z - t)(z + t)) exp(-t^2) with t = z truncated to 1/16, as in Cody's
    code: t^2 is exact, so the lower tail keeps its relative accuracy down to
    the subnormal range.  Each branch runs only on its own elements; +-inf
    give 0 and 1 (z is capped where erfc(z)/2 underflows), nan stays nan.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    with np.errstate(under="ignore"):
        z = np.abs(x) * _SQRT1_2
        near = z < 0.5
        u = x[near] * _SQRT1_2
        w = u * u
        out[near] = 0.5 + 0.5 * (u * _horner(_ERF_P, w) / _horner(_ERF_Q, w))
        tail = z >= 0.5
        v = np.minimum(z[tail], _Z_ZERO)
        half_erfc = np.empty(v.shape)
        mid = v <= 4.0
        vm = v[mid]
        half_erfc[mid] = 0.5 * _horner(_ERFC_P, vm) / _horner(_ERFC_Q, vm)
        vf = v[~mid]
        w = 1.0 / (vf * vf)
        half_erfc[~mid] = 0.5 * (_SQRT1_PI - w * _horner(_ASYM_P, w) / _horner(_ASYM_Q, w)) / vf
        t = np.trunc(v * 16.0) / 16.0
        half_erfc *= np.exp(-(v - t) * (v + t))
        half_erfc *= np.exp(-t * t)
        out[tail] = np.where(x[tail] < 0.0, half_erfc, 1.0 - half_erfc)
    return out[()]


class QuadratureError(RuntimeError):
    """Raised when the angular-CDF quadrature fails to reach tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class LogisticModel:
    """Logistic family: ell_r(x, y) = (x^(1/r) + y^(1/r))^r, r in (0, 1]."""

    r: float

    family = "logistic"
    param_bounds = (0.0, 1.0)
    clamped_r = (1e-3, 1.0 - 1e-9)  # r for ell_hat(1,1) <= 1 and >= 2
    # Power-study r grid; capped where near-atomic measures may fail quadrature.
    grid_pitch, grid_cap = 0.05, 0.95
    scenario_r = 0.5  # power-study base copula: Gumbel(2)

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"logistic parameter must lie in (0, 1], got {self.r}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n pairs of the Gumbel copula with theta = 1/r, by a Marshall–Olkin
        frailty: U_j = exp(-(E_j / S)^r).

        E_1, E_2 are standard exponential and S is positive stable with Laplace
        transform exp(-t^r), drawn by Kanter's representation (Kanter 1975;
        Chambers, Mallows & Stuck 1976) from V uniform on (0, pi] and W standard
        exponential: S^r = sin(rV)^r sin((1-r)V)^(1-r) / (sin(V) W^(1-r)).  It is
        taken in logs, so no power under- or overflows even at r = 0.001.
        At r = 1 (independence) S = 1.
        """
        r = self.r
        e = rng.standard_exponential((n, 2))
        v = np.pi * (1.0 - rng.uniform(size=n))
        w = rng.standard_exponential(n)
        # An exponential draw of exactly 0 (probability about 2^-53) gives U = 1.
        with np.errstate(divide="ignore"):
            log_sr = np.zeros((n, 1))
            if r < 1.0:
                log_sr[:, 0] = (r * np.log(np.sin(r * v))
                                + (1.0 - r) * np.log(np.sin((1.0 - r) * v))
                                - np.log(np.sin(v)) - (1.0 - r) * np.log(w))
            return np.exp(-np.exp(r * np.log(e) - log_sr))

    def stdf(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = 1.0 / self.r
        big = np.maximum(x, y)
        small = np.minimum(x, y)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(big > 0, small / big, 0.0)
            out = big * np.power(1.0 + np.power(ratio, s), self.r)
        out = np.where(big == 0.0, 0.0, out)
        return out[()] if out.ndim == 0 else out

    def exponent_density(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x <= 0) or np.any(y <= 0):
            raise ValueError("exponent_density requires x, y > 0")
        s = 1.0 / self.r
        # Scale out the largest component (homogeneity of degree -1) so that
        # the powers below never overflow for large grid coordinates.
        m = np.maximum(x, y)
        a, b = x / m, y / m
        with np.errstate(under="ignore"):
            out = (
                (s - 1.0)
                * np.power(a * b, s - 1.0)
                / np.power(np.power(a, s) + np.power(b, s), 2.0 - self.r)
            ) / m
        return out[()] if out.ndim == 0 else out

    def stdf_partials(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any((x == 0) & (y == 0)):
            raise ValueError("stdf_partials undefined at the origin")
        s = 1.0 / self.r
        big = np.maximum(x, y)
        with np.errstate(invalid="ignore", under="ignore"):
            u = np.power(np.minimum(x, y) / big, s)
            d_big = np.power(1.0 / (1.0 + u), 1.0 - self.r)
            d_small = np.power(u / (1.0 + u), 1.0 - self.r)
        dx = np.where(x >= y, d_big, d_small)
        dy = np.where(x >= y, d_small, d_big)
        if dx.ndim == 0:
            return float(dx), float(dy)
        return dx, dy

    def extremal_coefficient(self) -> float:
        return 2.0 ** self.r

    @staticmethod
    def invert_ell11(ell: float) -> float:  # r with 2^r = ell
        return math.log2(ell)

    def expansion_g(self) -> float:  # dr / d ell(1, 1)
        return 1.0 / (2.0 ** self.r * math.log(2.0))

    def rect_mass(self, a, b):
        return _rect_mass(self, a, b)

    def endpoint_kappa(self) -> float:
        """Substitution power for the angular-CDF quadrature.

        The density behaves like theta^(1/r - 2) near the axes; theta = s^kappa
        turns it into s^(kappa (1/r - 1) - 1), bounded and smooth for
        kappa (1/r - 1) >= 2.
        """
        a1 = (1.0 - self.r) / self.r
        if a1 <= 0:
            return 1e4
        return float(max(2.0, min(1e4, 2.0 / a1)))

    def endpoint_tail_mass(self, theta_c: float) -> float:
        """Angular mass of [0, theta_c): integral of (1/r - 1) theta^(1/r - 2).

        Used to account exactly for mass sitting below the floating-point
        range when the parameter is close to the independence boundary.
        """
        return math.exp((1.0 / self.r - 1.0) * math.log(theta_c))


@dataclass(frozen=True)
class HuslerReissModel:
    """Hüsler–Reiss family, r in (0, inf); chi = 2 Phi(r)."""

    r: float

    family = "hr"
    param_bounds = (0.0, math.inf)
    clamped_r = (1e-3, 8.0)
    grid_pitch, grid_cap = 0.1, 8.0
    scenario_r = 1.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"Hüsler–Reiss parameter must be positive, got {self.r}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n pairs of the copula by extremal functions (Dombry, Engelke &
        Oesting 2016, Algorithm 1), d = 2.

        The stdf has variogram 4r^2, so under the j-th tilted law the other
        log-coordinate is N(-2r^2, 4r^2).  The unit Fréchet values Z_j are kept
        as T_j = 1/Z_j.  Site 1 takes one Poisson point: T_1 = E and
        T_2 = T_1 exp(2r^2 - 2rN).  Site 2 walks the Poisson points 1/t,
        t = E_1 + ... + E_m, while t < T_2 (the point lies above Z_2); the first
        with T_1 exp(2rN' - 2r^2) < t (its function stays below Z_1) sets
        T_2 = t and ends the walk.  Each round draws one exponential per walking
        point and one normal per point still above Z_2, so the number of draws
        depends on the data, but a seed fixes every value.  U_j = exp(-T_j).
        """
        s, m = 2.0 * self.r, 2.0 * self.r * self.r
        t1 = rng.standard_exponential(n)
        t2 = t1 * np.exp(m - s * rng.standard_normal(n))
        idx = np.arange(n)
        t = np.zeros(n)
        while idx.size:
            t += rng.standard_exponential(idx.size)
            above = t < t2[idx]
            idx, t = idx[above], t[above]
            hit = t1[idx] * np.exp(s * rng.standard_normal(idx.size) - m) < t
            t2[idx[hit]] = t[hit]
            idx, t = idx[~hit], t[~hit]
        return np.column_stack([np.exp(-t1), np.exp(-t2)])

    def _z(self, x, y):
        """r + log(x/y)/(2r), with the conventions at the axes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.r + np.log(x / y) / (2.0 * self.r)
        return out

    def stdf(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = self._z(x, y)
            b = self._z(y, x)
            term = x * _ndtr(a) + y * _ndtr(b)
        # Continuity at the axes: ell(x, 0) = x, ell(0, y) = y.
        term = np.where(x == 0.0, y, term)
        term = np.where(y == 0.0, np.where(x == 0.0, 0.0, x), term)
        return term[()] if np.ndim(term) == 0 else term

    def exponent_density(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x <= 0) or np.any(y <= 0):
            raise ValueError("exponent_density requires x, y > 0")
        a = self._z(x, y)
        b = self._z(y, x)
        # The two expressions phi(a)/(2 r y) and phi(b)/(2 r x) agree
        # analytically; averaging keeps the implementation symmetric in x, y.
        out = 0.5 * (_npdf(a) / (2.0 * self.r * y) + _npdf(b) / (2.0 * self.r * x))
        return out[()] if np.ndim(out) == 0 else out

    def stdf_partials(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any((x == 0) & (y == 0)):
            raise ValueError("stdf_partials undefined at the origin")
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = _ndtr(self._z(x, y))
            dy = _ndtr(self._z(y, x))
        dx = np.where(x == 0.0, 0.0, np.where(y == 0.0, 1.0, dx))
        dy = np.where(y == 0.0, 0.0, np.where(x == 0.0, 1.0, dy))
        if np.ndim(dx) == 0:
            return float(dx), float(dy)
        return dx, dy

    def extremal_coefficient(self) -> float:
        return float(2.0 * _ndtr(self.r))

    @staticmethod
    def invert_ell11(ell: float) -> float:  # r with 2 Phi(r) = ell
        return _STD_NORMAL.inv_cdf(ell / 2.0)

    def expansion_g(self) -> float:  # dr / d ell(1, 1)
        return 1.0 / (2.0 * _npdf(self.r))

    def rect_mass(self, a, b):
        return _rect_mass(self, a, b)

    def endpoint_kappa(self) -> float:
        # The HR angular density concentrates near theta ~ exp(-2 r^2) at the
        # endpoints; kappa ~ r^2 places that spike at a moderate value of the
        # substitution variable.
        return max(2.0, self.r * self.r)

    def endpoint_tail_mass(self, theta_c: float) -> float:
        # Super-exponentially small below any representable cutoff.
        return 0.0


Model = LogisticModel | HuslerReissModel


def _rect_mass(model, a, b):
    """Lambda([0,a] x [0,b]) = a + b - ell(a, b) (Lebesgue-margins identity)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - model.stdf(a, b)
    scale = np.maximum(1.0, a + b)
    if np.any(out < -1e-9 * scale):
        raise RuntimeError("rect_mass produced a substantially negative value")
    out = np.maximum(out, 0.0)
    return out[()] if out.ndim == 0 else out


FAMILIES = {cls.family: cls for cls in (LogisticModel, HuslerReissModel)}


def family_class(family: str) -> type:
    """The model class of a family tag ('logistic' or 'hr')."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def make_model(family: str, r: float) -> Model:
    """Instantiate a model by family tag ('logistic' or 'hr')."""
    return family_class(family)(r)


@dataclass(frozen=True)
class ParamEstimate:
    """Result of the extremal-coefficient inversion."""

    r: float
    clamped: bool


def estimate_param(family: str, ell_hat_11: float) -> ParamEstimate:
    """Invert the extremal coefficient chi = ell(1,1) for the parameter.

    Estimates outside the valid range (1, 2) are clamped to the family's
    near-boundary values ``clamped_r`` so that downstream code never
    receives an invalid parameter; the flag records the clamping.
    """
    cls = family_class(family)
    if ell_hat_11 <= 1.0:
        return ParamEstimate(cls.clamped_r[0], True)
    if ell_hat_11 >= 2.0:
        return ParamEstimate(cls.clamped_r[1], True)
    return ParamEstimate(cls.invert_ell11(ell_hat_11), False)


def angular_density(model: Model, p: float, theta):
    """phi_{p,r}(theta) = ||(cos, sin)||_p / (cos sin) * lambda_r(cos, sin).

    Valid for every p in [1, inf] (the radial truncation of the exponent
    measure cancels in the same way for the max norm as for finite p).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0) or np.any(theta >= PI_2):
        raise ValueError("angular_density requires theta in (0, pi/2)")
    c, s = np.cos(theta), np.sin(theta)
    out = lp_norm(p, c, s) / (c * s) * model.exponent_density(c, s)
    return out[()] if np.ndim(out) == 0 else out


# Absolute change of the lower half-arc totals at which panel doubling stops.
_LAW_TOL = 1e-8

# Panel counts of the doubling levels, grouped by the sweep that builds them.
_LEVELS = ((256, 512), (1024,), (2048,), (4096,))

_THETA_CUT = 1e-280  # quadrature cutoff; mass below it is added analytically

# Gauss–Legendre nodes/weights on [0, 1], shared by all panel quadratures.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = (_GL_NODES + 1.0) / 2.0
_GL_WEIGHTS = _GL_WEIGHTS / 2.0


def _cumulative(panel: np.ndarray) -> np.ndarray:
    """Cumulative sums of the (n, 8) panel integrals of a half-arc, starting
    at 0.

    Panel integrals below the smallest normal float are set to zero: they
    occur where the density underflows (Hüsler–Reiss at small r), carry no
    usable mass, and would make the harmonic-mean knot slopes of
    ``_hermite_table`` overflow.
    """
    sums = panel.sum(axis=1)
    sums[np.abs(sums) < np.finfo(float).tiny] = 0.0
    return np.concatenate([[0.0], np.cumsum(sums)])


def _arc_sweep(model: Model, p: float, counts) -> list:
    """(s_edges, cum, cum_f, total_f2) for each panel count n in ``counts``.

    cum and cum_f are the (n + 1,) cumulative integrals of phi and f*phi over
    the lower half-arc [0, pi/4], parametrized theta = (pi/4) s^kappa and run
    from theta = 0 inward, in s; total_f2 is the integral of f^2*phi over it.
    The upper half-arc swaps cos and sin, and ``exponent_density`` and
    ``lp_norm`` are symmetric in their arguments bit for bit, so under the
    mirror map theta = pi/2 - (pi/4) s^kappa it has the same cumulatives of
    phi and f^2*phi and that of f*phi negated.
    The density is evaluated once, on the nodes of every count; every
    operation on them is elementwise, and each count sums its own (n, 8)
    panels, so a count's tables do not depend on the other counts.
    """
    kappa = model.endpoint_kappa()
    tail = model.endpoint_tail_mass(_THETA_CUT)
    s_cut = 0.0
    if tail > 0.0:
        s_cut = math.exp(math.log(_THETA_CUT / PI_4) / kappa)
    edges = [np.linspace(s_cut, 1.0, n + 1) for n in counts]
    widths = [np.diff(e) for e in edges]
    s = np.concatenate([(e[:-1, None] + w[:, None] * _GL_NODES[None, :]).ravel()
                        for e, w in zip(edges, widths)])
    # Distance from the arc endpoint; floored so sin(eps) never underflows
    # to an exact zero (large kappa drives s^kappa below the float range).
    eps = np.maximum(PI_4 * np.power(s, kappa), 1e-300)
    jac = PI_4 * kappa * np.power(s, kappa - 1.0)
    # Taking cos and sin from eps rather than forming theta keeps eps from
    # being rounded away near the endpoint, where the singular density
    # amplifies that noise.
    c, sn = np.cos(eps), np.sin(eps)
    norm = lp_norm(p, c, sn)
    dens = norm / (c * sn) * model.exponent_density(c, sn) * jac
    f = (sn - c) / norm
    # The analytic endpoint atom seeds the cumulatives; f is -1 at theta = 0.
    out, at = [], 0
    for e, width in zip(edges, widths):
        n = len(width)
        d = dens[at:at + 8 * n].reshape(n, 8)
        fd = f[at:at + 8 * n].reshape(n, 8)
        w = _GL_WEIGHTS[None, :] * width[:, None]
        out.append((e, tail + _cumulative(d * w), -tail + _cumulative(d * fd * w),
                    tail + _cumulative(d * fd * fd * w)[-1]))
        at += 8 * n
    return out


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point knot slope, zeroed or capped to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _hermite_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone cubic Hermite interpolant of (x, y), one column per cell.

    Column k is (x_k, y_k, d_k, c_k, e_k): on [x_k, x_{k+1}] the interpolant is
    y_k + d_k t + c_k t^2 + e_k t^3 with t = x - x_k.  The knot slopes d are
    the Fritsch–Butland weighted harmonic mean of the adjacent secants, zero
    where the secants change sign or one vanishes, and the one-sided
    three-point rule at the ends (Fritsch & Carlson 1980; Fritsch & Butland
    1984): the slopes of scipy's ``PchipInterpolator``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        hmean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.concatenate([
        [_end_slope(h[0], h[1], m[0], m[1])],
        np.where(flat, 0.0, hmean),
        [_end_slope(h[-1], h[-2], m[-1], m[-2])],
    ])
    cubic = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([x[:-1], y[:-1], d[:-1], (m - d[:-1]) / h - cubic, cubic / h])


class AngularLaw:
    """Cached angular measure of a model on the L_p arc.

    Exposes the unnormalized CDF Phi, the probability CDF Q, the partial
    moments of f under Q, the total mass and the variance var_f of f under
    Q.  Construction runs the panel quadrature with doubling refinement until
    the lower half-arc totals of phi and f*phi are stable to ``_LAW_TOL``
    (absolute).  No law stops before 512 panels, so the 256- and 512-panel
    levels come from one ``_arc_sweep``, and each later level from one more,
    built only when needed.  The measure is symmetric about pi/4, so the
    tables hold the lower half-arc only: the total mass is twice its mass,
    and E_Q[f] is exactly 0.
    """

    def __init__(self, model: Model, p: float):
        self.model = model
        self.p = p
        prev = None
        achieved = math.inf
        levels = chain.from_iterable(_arc_sweep(model, p, counts) for counts in _LEVELS)
        for edges, cum, cum_f, total_f2 in levels:
            totals = np.array([cum[-1], cum_f[-1]])
            if prev is not None:
                achieved = float(np.max(np.abs(totals - prev)))
                if achieved < _LAW_TOL:
                    break
            prev = totals
        else:
            raise QuadratureError(
                f"angular CDF quadrature did not converge for {model}", achieved
            )
        self.total_mass = float(cum[-1] + cum[-1])
        # The total angular mass always lies in [1, 2]; anything outside means
        # the quadrature missed mass sitting below float resolution (the
        # measure is effectively atomic at the endpoints for parameters very
        # close to the independence boundary).
        if not 1.0 - 1e-3 <= self.total_mass <= 2.0 + 1e-3:
            raise QuadratureError(
                f"implausible angular total mass {self.total_mass} for {model}",
                achieved,
            )
        self.var_f = float((total_f2 + total_f2) / self.total_mass)
        self._n_cells = len(edges) - 1
        self._s0 = edges[0]
        self._inv_ds = self._n_cells / (1.0 - edges[0])
        self._inv_kappa = 1.0 / model.endpoint_kappa()
        self._cdf_table = _hermite_table(edges, cum)
        self._f_table = _hermite_table(edges, cum_f)

    def _eval(self, table, theta):
        """Evaluate a lower half-arc ``_hermite_table`` at the distance of
        each angle theta in [0, pi/2] from the nearer arc end, and give 0 at
        theta >= pi/2: nothing lies beyond pi/2, its atom included, so the
        CDF reaches the total mass and the f moment 0 there."""
        theta = np.asarray(theta, dtype=float)
        # NaN fails both comparisons; as a cell index it would be INT_MIN.
        if not np.all((theta >= -1e-12) & (theta <= PI_2 + 1e-12)):
            raise ValueError("theta must lie in [0, pi/2]")
        # Below the quadrature cutoff the cumulative equals the endpoint atom.
        dist = np.maximum(np.minimum(theta, PI_2 - theta), 0.0)
        s = np.maximum(np.power(dist / PI_4, self._inv_kappa), self._s0)
        cell = np.minimum(((s - self._s0) * self._inv_ds).astype(np.intp), self._n_cells - 1)
        x, y, d, c, e = np.take(table, cell, axis=1)
        t = s - x
        t2 = t * t
        # Summed in the order of scipy's PPoly, so G keeps the rounding of
        # PCHIP on the same tables.
        return np.where(theta >= PI_2, 0.0, y + d * t + c * t2 + e * (t2 * t))

    def cdf(self, theta):
        """Unnormalized angular CDF Phi_{p,r}(theta), vectorized; above pi/4
        it is the total mass less Phi at the mirror angle pi/2 - theta."""
        theta = np.asarray(theta, dtype=float)
        out = self._eval(self._cdf_table, theta)
        out = np.where(theta > PI_4, self.total_mass - out, out)
        return out[()] if out.ndim == 0 else out

    def normalized_cdf(self, theta):
        """Angular probability CDF Q_{p,r}(theta)."""
        return self.cdf(theta) / self.total_mass

    def f_integral(self, theta):
        """Cumulative moment int_0^theta f dQ, vectorized.  f is odd about
        pi/4, so the moment is even about it: no mirror term is needed."""
        return self._eval(self._f_table, theta) / self.total_mass


def get_law(model: Model, p: float) -> AngularLaw:
    """The angular law of (model, p), kept in the package's one cache
    (``_lru.CACHE``) under the key (model, p)."""
    return _lru.CACHE.get((model, p), lambda: AngularLaw(model, p))


def grad_normalized_cdf(model: Model, p: float, theta):
    """d/dr of Q_{p,r}(theta) by central finite differences, with both steps
    kept inside the family's open parameter range ``param_bounds``."""
    r, eps = model.r, 1e-4 * max(1.0, abs(model.r))
    lo, hi = model.param_bounds
    r_lo, r_hi = max(r - eps, lo + 1e-12), min(r + eps, hi - 1e-12)
    law_lo = get_law(make_model(model.family, r_lo), p)
    law_hi = get_law(make_model(model.family, r_hi), p)
    return (law_hi.normalized_cdf(theta) - law_lo.normalized_cdf(theta)) / (r_hi - r_lo)
