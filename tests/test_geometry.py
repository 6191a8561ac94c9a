"""Geometry primitives: norms, boundary curve, constraint function, weights.

The pointwise set membership ``in_C_p_theta`` and weight ``weight_q`` below
are references the package does not need: it works with cell sums and exact
cell integrals.

Oracle tags:
  [TRIVIAL]  asserted directly from the definition
  [DERIVED]  value frozen from an independent computation (noted inline)
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_gof import geometry as g

PI_4 = math.pi / 4.0
PI_2 = math.pi / 2.0


def in_C_p_theta(p: float, theta: float, x, y):
    """Membership of (x, y) in the angular set C_{p,theta}.

    Three branches: at theta = 0 the set degenerates to the horizontal axis
    plus the segment {inf} x [0,1]; at theta = pi/2 only the boundary curve
    constrains; in between, y <= min(x tan(theta), y_p(x)).
    """
    if not 0.0 <= theta <= PI_2:
        raise ValueError("theta must lie in [0, pi/2]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if theta == 0.0:
        out = (y == 0.0) | (np.isinf(x) & (y <= 1.0))
    elif theta == PI_2:
        out = y <= g.y_p(p, x)
    else:
        out = (y <= x * math.tan(theta)) & (y <= g.y_p(p, x))
    return out[()] if out.ndim == 0 else out


def weight_q(kind: g.WeightKind, theta):
    """Evaluate q(theta); the singular kind diverges at theta = pi/4."""
    theta = np.asarray(theta, dtype=float)
    if kind is g.WeightKind.CONSTANT:
        out = np.ones_like(theta)
    elif kind is g.WeightKind.INV_SQRT_PI4:
        out = 1.0 / np.sqrt(np.abs(theta - PI_4))
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown weight kind {kind!r}")
    return out[()] if out.ndim == 0 else out


class TestLpNorm:
    def test_pythagorean_triple(self):
        # [TRIVIAL] 3-4-5
        assert g.lp_norm(2.0, 3.0, 4.0) == pytest.approx(5.0, abs=1e-14)

    def test_p1_is_sum(self):
        assert g.lp_norm(1.0, 0.3, 0.4) == pytest.approx(0.7, abs=1e-15)

    def test_pinf_is_max(self):
        assert g.lp_norm(math.inf, 0.3, 0.4) == 0.4

    def test_pinf_is_maximum_bit_for_bit(self):
        # zeros, equal components, subnormals, huge values and inf
        x = np.array([0.0, 0.0, 1.0, 0.3, 2.5, 5e-324, 1e300, math.inf, math.inf, 0.0, 7.0])
        y = np.array([0.0, 1.0, 0.0, 0.3, 2.5, 5e-324, 1e300, 1.0, math.inf, math.inf, 7.5])
        assert g.lp_norm(math.inf, x, y).tobytes() == np.maximum(x, y).tobytes()
        for a, b in zip(x, y):
            assert g.lp_norm(math.inf, a, b) == max(a, b)

    def test_no_overflow_for_huge_components(self):
        # naive x^p would overflow at p = 10 for x ~ 1e60
        out = g.lp_norm(10.0, 1e60, 1e60)
        assert out == pytest.approx(1e60 * 2 ** 0.1, rel=1e-12)

    def test_zero(self):
        assert g.lp_norm(3.0, 0.0, 0.0) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            g.lp_norm(0.5, 1.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g.lp_norm(2.0, -1.0, 1.0)

    @given(
        p=st.floats(1.0, 50.0),
        x=st.floats(0.0, 1e6),
        y=st.floats(0.0, 1e6),
        c=st.floats(0.001, 1000.0),
    )
    @settings(max_examples=200)
    def test_homogeneous_and_bounded(self, p, x, y, c):
        n = g.lp_norm(p, x, y)
        # positive homogeneity
        assert g.lp_norm(p, c * x, c * y) == pytest.approx(c * n, rel=1e-10)
        # max <= ||.||_p <= sum
        assert max(x, y) <= n * (1 + 1e-12) + 1e-300
        assert n <= x + y + 1e-12 * n


class TestBoundaryCurve:
    def test_inf_below_one(self):
        # [TRIVIAL] region boundary is at infinity for x <= 1
        assert g.y_p(2.0, 0.5) == math.inf
        assert g.y_p(2.0, 1.0) == math.inf

    def test_p2_closed_form(self):
        # [DERIVED] p=2, x=2: (1 + 1/3)^(1/2)
        assert g.y_p(2.0, 2.0) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-14)

    def test_point_on_unit_sphere_of_dual_region(self):
        # (x, y_p(x)) satisfies x^(-p) + y^(-p) = 1 for every x > 1
        for p in (1.0, 2.0, 3.5, 7.0):
            for x in (1.01, 1.5, 2.0, 10.0):
                y = g.y_p(p, x)
                assert x ** (-p) + y ** (-p) == pytest.approx(1.0, rel=1e-10)

    def test_pinf_flat(self):
        assert g.y_p(math.inf, 1.0) == 1.0
        assert g.y_p(math.inf, 7.3) == 1.0
        assert g.y_p(math.inf, 0.99) == math.inf

    def test_huge_x_tends_to_one(self):
        assert g.y_p(2.0, 1e200) == pytest.approx(1.0, rel=1e-12)

    def test_prime_matches_finite_difference(self):
        # [DERIVED] oracle: central FD of y_p
        for p in (1.5, 2.0, 4.0):
            for x in (1.2, 2.0, 5.0):
                h = 1e-6 * x
                fd = (g.y_p(p, x + h) - g.y_p(p, x - h)) / (2 * h)
                assert g.y_p_prime_abs(p, x) == pytest.approx(abs(fd), rel=1e-6)

    def test_prime_large_p_is_zero_without_overflow(self):
        # x^1000 overflows to inf from x = 10^0.3083 = 2.033; the limit is 0,
        # while x = 2 (2^1000 = 1.07e301) keeps its tiny finite value
        x = np.array([2.0, 2.04, 3.0, 10.0, 1e10, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = g.y_p_prime_abs(1000.0, x)
        np.testing.assert_array_equal(out[1:], 0.0)
        assert out[0] == pytest.approx(2.0 ** -1001.0, rel=1e-12)

    def test_prime_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            g.y_p_prime_abs(2.0, 1.0)
        with pytest.raises(ValueError):
            g.y_p_prime_abs(math.inf, 2.0)


class TestSphereParametrization:
    def test_at_pi_2(self):
        # cot(pi/2) = 0 -> ||(1, 0)||_p = 1
        assert g.x_p_of_theta(2.0, PI_2) == pytest.approx(1.0, abs=1e-15)

    def test_at_pi_4(self):
        assert g.x_p_of_theta(2.0, PI_4) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_consistency_with_boundary(self):
        # y_p(x_p(theta)) = x_p(theta) tan(theta) for theta in (pi/4, pi/2):
        # the boundary curve and the ray through theta intersect on the sphere.
        for theta in (0.9, 1.1, 1.4):
            x = g.x_p_of_theta(2.0, theta)
            assert g.y_p(2.0, x) == pytest.approx(x * math.tan(theta), rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            g.x_p_of_theta(2.0, 0.0)


class TestAngularSets:
    def test_nested_in_theta(self):
        # C_{p,theta} grows with theta
        pts = np.random.default_rng(0).uniform(0, 10, size=(500, 2))
        prev = np.zeros(len(pts), dtype=bool)
        for theta in np.linspace(0.1, PI_2, 15):
            cur = in_C_p_theta(2.0, theta, pts[:, 0], pts[:, 1])
            assert np.all(prev <= cur)
            prev = cur

    def test_theta_zero_branch(self):
        assert in_C_p_theta(2.0, 0.0, 3.0, 0.0)
        assert not in_C_p_theta(2.0, 0.0, 3.0, 0.1)
        assert in_C_p_theta(2.0, 0.0, math.inf, 0.7)

    def test_theta_pi2_is_full_region(self):
        assert in_C_p_theta(2.0, PI_2, 0.5, 100.0)  # below inf boundary
        assert not in_C_p_theta(2.0, PI_2, 2.0, 1.5)  # above y_p(2) ~ 1.155


class TestConstraintFunction:
    def test_zero_at_pi4(self):
        assert g.constraint_f(2.0, PI_4) == pytest.approx(0.0, abs=1e-14)

    def test_endpoints(self):
        # [TRIVIAL] f(0) = -1, f(pi/2) = 1 for every p
        for p in (1.0, 2.0, 5.0, math.inf):
            assert g.constraint_f(p, 0.0) == pytest.approx(-1.0, abs=1e-14)
            assert g.constraint_f(p, PI_2) == pytest.approx(1.0, abs=1e-14)

    def test_known_value_p2(self):
        # [DERIVED] p=2 the norm is 1: f = sin - cos; at theta = pi/3,
        # f = (sqrt(3) - 1)/2
        assert g.constraint_f(2.0, math.pi / 3) == pytest.approx(
            (math.sqrt(3.0) - 1.0) / 2.0, rel=1e-14
        )

    def test_prime_matches_finite_difference(self):
        for p in (1.0, 2.0, 3.0):
            for theta in (0.2, PI_4, 1.3):
                h = 1e-6
                fd = (g.constraint_f(p, theta + h) - g.constraint_f(p, theta - h)) / (2 * h)
                assert g.constraint_f_prime(p, theta) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @given(theta=st.floats(0.0, PI_2), p=st.floats(1.0, 20.0))
    @settings(max_examples=200)
    def test_monotone_and_bounded(self, theta, p):
        val = g.constraint_f(p, theta)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestWeights:
    def test_constant(self):
        assert weight_q(g.WeightKind.CONSTANT, 0.3) == 1.0
        assert g.weight_q_cell_integral(g.WeightKind.CONSTANT, 0.1, 0.4) == pytest.approx(0.3)

    def test_singular_value(self):
        # [TRIVIAL] q(pi/4 + 0.25) = 2
        assert weight_q(g.WeightKind.INV_SQRT_PI4, PI_4 + 0.25) == pytest.approx(2.0)

    def test_integral_total(self):
        # [DERIVED] int_0^{pi/2} |t - pi/4|^{-1/2} dt = 4 sqrt(pi/4) = 2 sqrt(pi)
        total = g.weight_q_cell_integral(g.WeightKind.INV_SQRT_PI4, 0.0, PI_2)
        assert total == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_integral_matches_quadrature_away_from_singularity(self):
        from scipy.integrate import quad

        val, _ = quad(lambda t: weight_q(g.WeightKind.INV_SQRT_PI4, t), 0.9, 1.4)
        assert g.weight_q_cell_integral(g.WeightKind.INV_SQRT_PI4, 0.9, 1.4) == pytest.approx(
            val, rel=1e-10
        )

    def test_integral_additive_through_singularity(self):
        a, m, b = 0.7, PI_4, 0.9
        w = g.WeightKind.INV_SQRT_PI4
        assert g.weight_q_cell_integral(w, a, b) == pytest.approx(
            g.weight_q_cell_integral(w, a, m) + g.weight_q_cell_integral(w, m, b),
            rel=1e-12,
        )

    def test_from_name(self):
        assert g.WeightKind("const") is g.WeightKind.CONSTANT
        assert g.WeightKind("invsqrt") is g.WeightKind.INV_SQRT_PI4
        with pytest.raises(ValueError):
            g.WeightKind("bogus")
