"""Parametric families: stdf, densities, estimator, angular law.

Key oracles:
  - exponent density vs. mixed finite differences of the rectangle mass
    (the density is d^2/dxdy of -rect_mass up to sign conventions)
  - stdf partials vs. finite differences of the stdf
  - total angular mass vs. direct adaptive quadrature of the raw density
  - the moment identity E_Q[f] = 0 (the true angular measure satisfies the
    constraint the Euclidean weights enforce)
  - the law built from one density sweep over the lower half-arc and
    several levels against one ``models_oracle.half_arc`` per half-arc and
    level, bit for bit (the law keeps the lower half-arc only, so the
    oracle's upper half is checked to mirror it bit for bit, and the
    exponent density and the L_p norm to be symmetric bit for bit)
"""

import math
import os
import subprocess
import sys
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import angular_gof

from angular_gof import models as md
from angular_gof import geometry as g

import datagen_oracle as do
import models_oracle as mo

PI_2 = math.pi / 2.0
PI_4 = math.pi / 4.0


class TestLogisticStdf:
    def test_symmetric_point(self):
        # [TRIVIAL] ell(1,1) = 2^r
        for r in (0.2, 0.5, 0.9):
            assert md.LogisticModel(r).stdf(1.0, 1.0) == pytest.approx(2.0 ** r, rel=1e-14)

    def test_margins(self):
        m = md.LogisticModel(0.5)
        assert m.stdf(3.0, 0.0) == 3.0
        assert m.stdf(0.0, 2.0) == 2.0
        assert m.stdf(0.0, 0.0) == 0.0

    def test_value(self):
        # [DERIVED] r = 0.5: (2^2 + 3^2)^0.5 with x=4? no: ell(x,y) =
        # (x^2 + y^2)^(1/2) at r = 1/2; ell(3,4) = 5
        assert md.LogisticModel(0.5).stdf(3.0, 4.0) == pytest.approx(5.0, rel=1e-14)

    def test_r1_is_sum(self):
        assert md.LogisticModel(1.0).stdf(1.3, 2.2) == pytest.approx(3.5, rel=1e-14)

    @given(
        r=st.floats(0.05, 1.0),
        x=st.floats(1e-3, 100.0),
        y=st.floats(1e-3, 100.0),
        c=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200)
    def test_homogeneity_and_bounds(self, r, x, y, c):
        m = md.LogisticModel(r)
        v = m.stdf(x, y)
        assert m.stdf(c * x, c * y) == pytest.approx(c * v, rel=1e-9)
        assert max(x, y) <= v * (1 + 1e-12)
        assert v <= (x + y) * (1 + 1e-12)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            md.LogisticModel(0.0)
        with pytest.raises(ValueError):
            md.LogisticModel(1.2)


class TestHuslerReissStdf:
    def test_symmetric_point(self):
        # [TRIVIAL] ell(1,1) = 2 Phi(r)
        for r in (0.5, 1.0, 2.0):
            assert md.HuslerReissModel(r).stdf(1.0, 1.0) == pytest.approx(
                2.0 * norm.cdf(r), rel=1e-14
            )

    def test_margins(self):
        m = md.HuslerReissModel(1.0)
        assert m.stdf(3.0, 0.0) == 3.0
        assert m.stdf(0.0, 2.0) == 2.0

    def test_value(self):
        # [DERIVED] r=1, x=2, y=1: 2 Phi(1 + log(2)/2) + Phi(1 - log(2)/2)
        expect = 2.0 * norm.cdf(1.0 + math.log(2.0) / 2.0) + norm.cdf(1.0 - math.log(2.0) / 2.0)
        assert md.HuslerReissModel(1.0).stdf(2.0, 1.0) == pytest.approx(expect, rel=1e-12)

    @given(r=st.floats(0.1, 5.0), x=st.floats(1e-3, 50.0), y=st.floats(1e-3, 50.0))
    @settings(max_examples=200)
    def test_bounds(self, r, x, y):
        v = md.HuslerReissModel(r).stdf(x, y)
        assert max(x, y) <= v * (1 + 1e-10)
        assert v <= (x + y) * (1 + 1e-10)


class TestDensities:
    def test_logistic_point(self):
        # [DERIVED] lambda(1,1) at r=0.5: (1/r - 1) (1)^... / (2)^(2-r)
        # = 1 / 2^1.5
        assert md.LogisticModel(0.5).exponent_density(1.0, 1.0) == pytest.approx(
            2.0 ** -1.5, rel=1e-14
        )

    def test_hr_point(self):
        # [DERIVED] lambda(1,1) at r=1: phi(1)/2
        assert md.HuslerReissModel(1.0).exponent_density(1.0, 1.0) == pytest.approx(
            norm.pdf(1.0) / 2.0, rel=1e-14
        )

    @pytest.mark.parametrize("family,r", [("hr", 0.001), ("hr", 1.0), ("hr", 8.0),
                                          ("logistic", 0.001), ("logistic", 0.5),
                                          ("logistic", 1.0 - 1e-9), ("logistic", 1.0)])
    def test_density_and_norm_are_symmetric_bit_for_bit(self, family, r):
        """``AngularLaw`` takes the upper half-arc as the mirror of the lower
        one; that holds only if swapping the arguments changes no bit."""
        model = md.make_model(family, r)
        eps = np.geomspace(1e-300, PI_4, 400)
        rng = np.random.default_rng(3)
        x = np.concatenate([np.cos(eps), np.exp(rng.uniform(-7.0, 7.0, 400))])
        y = np.concatenate([np.sin(eps), np.exp(rng.uniform(-7.0, 7.0, 400))])
        np.testing.assert_array_equal(model.exponent_density(x, y), model.exponent_density(y, x))
        for p in (1.0, 2.0, 3.5, math.inf):
            np.testing.assert_array_equal(g.lp_norm(p, x, y), g.lp_norm(p, y, x))

    @pytest.mark.parametrize(
        "model",
        [md.LogisticModel(0.3), md.LogisticModel(0.7), md.HuslerReissModel(0.8),
         md.HuslerReissModel(2.0)],
    )
    def test_density_is_mixed_derivative_of_rect_mass(self, model):
        # [DERIVED] lambda(x,y) = d2/dxdy Lambda([0,x]x[0,y]) via central FD
        for x, y in ((0.7, 0.9), (1.5, 0.6), (2.0, 2.5)):
            h = 1e-4
            fd = (
                model.rect_mass(x + h, y + h)
                - model.rect_mass(x + h, y - h)
                - model.rect_mass(x - h, y + h)
                + model.rect_mass(x - h, y - h)
            ) / (4 * h * h)
            assert model.exponent_density(x, y) == pytest.approx(fd, rel=5e-5)

    @pytest.mark.parametrize(
        "model", [md.LogisticModel(0.4), md.HuslerReissModel(1.3)]
    )
    def test_partials_match_finite_differences(self, model):
        for x, y in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.7)):
            h = 1e-6 * max(x, y)
            dx_fd = (model.stdf(x + h, y) - model.stdf(x - h, y)) / (2 * h)
            dy_fd = (model.stdf(x, y + h) - model.stdf(x, y - h)) / (2 * h)
            dx, dy = model.stdf_partials(x, y)
            assert dx == pytest.approx(dx_fd, rel=1e-6)
            assert dy == pytest.approx(dy_fd, rel=1e-6)

    def test_partials_sum_via_euler(self):
        # Homogeneity of degree 1: x dx + y dy = ell
        for model in (md.LogisticModel(0.6), md.HuslerReissModel(1.5)):
            x, y = 1.7, 0.4
            dx, dy = model.stdf_partials(x, y)
            assert x * dx + y * dy == pytest.approx(model.stdf(x, y), rel=1e-12)

    def test_rect_mass_identity(self):
        # [TRIVIAL] Lambda([0,a]x[0,b]) = a + b - ell(a,b)
        m = md.LogisticModel(0.5)
        assert m.rect_mass(1.0, 1.0) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)

    def test_density_rejects_axis(self):
        with pytest.raises(ValueError):
            md.LogisticModel(0.5).exponent_density(0.0, 1.0)

    @pytest.mark.parametrize(
        "model",
        [md.LogisticModel(0.02), md.LogisticModel(0.5), md.LogisticModel(1.0),
         md.HuslerReissModel(0.01), md.HuslerReissModel(1.0), md.HuslerReissModel(8.0)],
    )
    def test_stdf_terms_match_separate_evaluations(self, model):
        rng = np.random.default_rng(3)
        x, y = rng.exponential(3.0, 500), rng.exponential(3.0, 500)
        ell, dx, dy, lam = do.stdf_terms(model, x, y)
        ref_dx, ref_dy = model.stdf_partials(x, y)
        np.testing.assert_allclose(ell, model.stdf(x, y), rtol=1e-14)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-14, atol=1e-300)
        # Phi(2r - a) is evaluated in the deep tail at r = 0.01, where the
        # rounding of its argument is amplified by about |a|^2
        np.testing.assert_allclose(dy, ref_dy, rtol=1e-11, atol=1e-300)
        np.testing.assert_allclose(lam, model.exponent_density(x, y), rtol=1e-11, atol=1e-300)


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(angular_gof.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs every CLI subcommand with scipy made unimportable; prints the exit codes.
_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
from angular_gof import cli
csv_path, out = sys.argv[1], sys.argv[2]
runs = [
    ["test", csv_path, "--family", "hr", "--B", "20"],
    ["pairs", csv_path, "--family", "hr", "--B", "20"],
    ["power", "--family", "hr", "--n", "400", "--k", "20", "--lambdas", "0",
     "--reps", "2", "--B", "20"],
    ["quantiles", "--family", "hr", "--r-grid", "1", "--B", "20"],
]
print([cli.main(argv + ["--out", out]) for argv in runs])
"""


class TestSpecialFunctions:
    def test_bit_identical_to_scipy_stats_norm(self):
        x = np.linspace(-40.0, 40.0, 100_001)
        np.testing.assert_array_equal(md._npdf(x), norm.pdf(x))
        assert md._npdf(1.0) == norm.pdf(1.0)

    def test_ndtr_matches_scipy(self):
        import mpmath

        # |error| <= 2e-15 (1 + x^2) Phi(x): x^2 is the condition number of
        # Phi in the lower tail (the rounding of x / sqrt(2) enters exp(-x^2/2)).
        # Below x = -37.7 scipy's ndtr returns 0, so mpmath is the reference
        # there; one subnormal quantum is the resolution of those values.
        x = np.concatenate([np.linspace(-38.5, 38.5, 1_000_000), [0.0, -0.0]])
        ref = ndtr(x)
        flushed = ref == 0.0
        assert 0 < flushed.sum() < 20_000
        with mpmath.workdps(30):
            ref[flushed] = [float(mpmath.ncdf(v)) for v in x[flushed]]
        bound = 2e-15 * (1.0 + x * x) * ref + np.nextafter(0.0, 1.0)
        assert np.all(np.abs(md._ndtr(x) - ref) <= bound)
        np.testing.assert_array_equal(md._ndtr(np.array([-np.inf, np.inf, np.nan])),
                                      [0.0, 1.0, np.nan])
        assert md._ndtr(0.0) == 0.5 and np.ndim(md._ndtr(0.0)) == 0

    def test_ndtr_raises_no_warning(self):
        x = np.array([-np.inf, -1e308, -40.0, np.nan, -0.0, 5e-324, 1e-300, 0.3, 5.0, 1e308, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                got = md._ndtr(x)
        np.testing.assert_allclose(got, [0.0, 0.0, 0.0, np.nan, 0.5, 0.5, 0.5, ndtr(0.3),
                                         ndtr(5.0), 1.0, 1.0], rtol=1e-15, atol=0.0)

    def test_invert_ell11_matches_ndtri(self):
        ell = np.linspace(1.0, 2.0, 10_001)[1:-1]
        got = np.array([md.HuslerReissModel.invert_ell11(v) for v in ell])
        np.testing.assert_allclose(got, ndtri(ell / 2.0), rtol=2e-15, atol=0.0)

    @staticmethod
    def _scipy_modules_after_import():
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, angular_gof; print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True, text=True, env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_import_does_not_load_scipy_stats(self):
        assert "'scipy.stats'" not in self._scipy_modules_after_import()

    def test_import_does_not_load_scipy_interpolate(self):
        # No scipy module at all: interpolate, linalg, optimize and sparse included.
        assert self._scipy_modules_after_import() == "[]"

    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        from angular_gof import datagen as dg

        data = dg.sample(dg.husler_reiss(1.0), 400, np.random.default_rng(2))
        csv_path = tmp_path / "hr.csv"
        np.savetxt(csv_path, data, delimiter=",")
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_RUN, str(csv_path), str(tmp_path / "out.json")],
            capture_output=True, text=True, env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0]"


class TestEstimator:
    def test_logistic_round_trip(self):
        for r in (0.2, 0.5, 0.85):
            chi = md.LogisticModel(r).extremal_coefficient()
            est = md.estimate_param("logistic", chi)
            assert not est.clamped
            assert est.r == pytest.approx(r, rel=1e-12)

    def test_hr_round_trip(self):
        for r in (0.4, 1.0, 2.5):
            chi = md.HuslerReissModel(r).extremal_coefficient()
            est = md.estimate_param("hr", chi)
            assert not est.clamped
            assert est.r == pytest.approx(r, rel=1e-9)

    def test_clamping(self):
        assert md.estimate_param("logistic", 0.9).clamped
        assert md.estimate_param("logistic", 2.3).clamped
        assert md.estimate_param("hr", 1.0).clamped
        assert md.estimate_param("hr", 2.0) == md.ParamEstimate(8.0, True)

    def test_expansion_constants(self):
        # [DERIVED] closed forms: g = 1/(2^r ln 2) and 1/(2 phi(r))
        gval = md.LogisticModel(0.5).expansion_g()
        assert gval == pytest.approx(1.0 / (2.0 ** 0.5 * math.log(2.0)), rel=1e-14)
        gval = md.HuslerReissModel(1.0).expansion_g()
        assert gval == pytest.approx(1.0 / (2.0 * norm.pdf(1.0)), rel=1e-14)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            md.estimate_param("gauss", 1.5)
        with pytest.raises(ValueError):
            md.make_model("gauss", 1.5)


class TestAngularLaw:
    @pytest.mark.parametrize(
        "model,p",
        [
            (md.LogisticModel(0.5), 2.0),
            (md.LogisticModel(0.3), 1.0),
            (md.HuslerReissModel(1.0), 2.0),
            (md.HuslerReissModel(0.7), 3.0),
        ],
    )
    def test_total_mass_against_adaptive_quadrature(self, model, p):
        # [DERIVED] oracle: scipy.integrate.quad of the raw angular density
        # (independent of the panel/substitution machinery)
        oracle, err = quad(
            lambda t: md.angular_density(model, p, t), 0.0, PI_2,
            points=[PI_4], limit=200,
        )
        law = md.get_law(model, p)
        assert law.total_mass == pytest.approx(oracle, rel=1e-8)

    def test_mass_of_symmetric_family_at_r_half_p2(self):
        # [DERIVED] frozen from two independent quadratures: logistic r = 0.5,
        # p = 2 has total angular mass pi/2.
        law = md.get_law(md.LogisticModel(0.5), 2.0)
        assert law.total_mass == pytest.approx(PI_2, rel=1e-10)

    @pytest.mark.parametrize(
        "model", [md.LogisticModel(0.5), md.LogisticModel(0.8), md.HuslerReissModel(1.0)]
    )
    def test_moment_constraint_holds(self, model):
        # The true angular probability measure satisfies E_Q[f] = 0, so var_f
        # is E_Q[f^2]; oracle: scipy.integrate.quad of the raw density.
        law = md.get_law(model, 2.0)

        def moment(power):
            return quad(lambda t: g.constraint_f(2.0, t) ** power * md.angular_density(model, 2.0, t),
                        0.0, PI_2, points=[PI_4], limit=200)[0] / law.total_mass

        assert moment(1) == pytest.approx(0.0, abs=1e-9)
        assert law.var_f == pytest.approx(moment(2), rel=1e-8)
        assert law.var_f > 0.0

    def test_cdf_properties(self):
        law = md.get_law(md.HuslerReissModel(1.0), 2.0)
        th = np.linspace(0.0, PI_2, 1001)
        Q = law.normalized_cdf(th)
        assert Q[0] == pytest.approx(0.0, abs=1e-12)
        assert Q[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(Q) >= -1e-12)

    def test_symmetry_of_exchangeable_families(self):
        # Q(pi/4) = 1/2 and Q(theta) + Q(pi/2 - theta) = 1 for p = 2
        law = md.get_law(md.LogisticModel(0.6), 2.0)
        assert law.normalized_cdf(PI_4) == pytest.approx(0.5, abs=1e-10)
        th = np.array([0.2, 0.5, 0.7])
        assert law.normalized_cdf(th) + law.normalized_cdf(PI_2 - th) == pytest.approx(
            np.ones(3), abs=1e-9
        )

    def test_cdf_against_quadrature_at_interior_points(self):
        model = md.LogisticModel(0.5)
        law = md.get_law(model, 2.0)
        for theta in (0.3, PI_4, 1.1):
            oracle, _ = quad(lambda t: md.angular_density(model, 2.0, t), 0.0, theta, limit=200)
            assert law.cdf(theta) == pytest.approx(oracle, rel=1e-7)

    def test_f_integral_against_quadrature(self):
        model = md.HuslerReissModel(1.0)
        law = md.get_law(model, 2.0)
        for theta in (0.5, 1.2):
            oracle, _ = quad(
                lambda t: g.constraint_f(2.0, t) * md.angular_density(model, 2.0, t),
                0.0, theta, limit=200,
            )
            assert law.f_integral(theta) == pytest.approx(oracle / law.total_mass, rel=1e-6)

    def test_near_independence_is_atomic(self):
        # Parameters within ~1e-9 of independence: the mass collapses onto the
        # endpoints below float resolution; the law must report total ~ 2 with
        # endpoint atoms rather than a silently truncated measure.
        law = md.get_law(md.LogisticModel(1.0 - 1e-9), 2.0)
        assert law.total_mass == pytest.approx(2.0, rel=1e-6)
        assert law.normalized_cdf(1e-10) == pytest.approx(0.5, rel=1e-5)

    def test_grad_normalized_cdf_matches_coarse_fd(self):
        th = np.array([0.4, PI_4, 1.2])
        model = md.LogisticModel(0.5)
        grad = md.grad_normalized_cdf(model, 2.0, th)
        dr = 5e-3
        lo = md.get_law(md.LogisticModel(0.5 - dr), 2.0).normalized_cdf(th)
        hi = md.get_law(md.LogisticModel(0.5 + dr), 2.0).normalized_cdf(th)
        assert grad == pytest.approx((hi - lo) / (2 * dr), rel=5e-3, abs=1e-6)

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1])
    def test_small_hr_parameter_builds_without_warnings(self, r):
        # The density underflows to subnormal panel integrals near the
        # endpoints; the interpolant must be built without a float overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = md.AngularLaw(md.HuslerReissModel(r), 2.0)
        Q = law.normalized_cdf(np.linspace(0.0, PI_2, 201))
        assert np.all(np.isfinite(Q)) and np.all(np.diff(Q) >= -1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 3.0, -1e-9, PI_2 + 1e-9])
    def test_angles_outside_the_arc_raise(self, bad):
        law = md.get_law(md.LogisticModel(0.5), 2.0)
        for method in (law.cdf, law.normalized_cdf, law.f_integral):
            with pytest.raises(ValueError):
                method(np.array([bad, 0.3]))
            with pytest.raises(ValueError):
                method(bad)
        edge = law.normalized_cdf(np.array([-1e-12, PI_2 + 1e-12]))
        assert edge == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_cache_returns_same_object(self):
        a = md.get_law(md.LogisticModel(0.5), 2.0)
        b = md.get_law(md.LogisticModel(0.5), 2.0)
        assert a is b


def _pchip_oracle(law, theta, moment: bool):
    """The cumulative of ``law`` (times its total mass for the f moment) by
    scipy's PCHIP on the same s-edges and half-arc cumulative tables.  The
    cumulative is right-continuous: at pi/2 it takes the whole arc, the
    endpoint atom included."""
    from scipy.interpolate import PchipInterpolator

    lower = mo.half_arc(law.model, law.p, True, law._n_cells)
    upper = mo.half_arc(law.model, law.p, False, law._n_cells)
    cum_lo, cum_up = (lower.cum_f, upper.cum_f) if moment else (lower.cum, upper.cum)
    low = theta <= PI_4
    dist = np.where(low, theta, PI_2 - theta)
    s = np.clip(np.power(dist / PI_4, 1.0 / lower.kappa), lower.s_edges[0], 1.0)
    G_lo = PchipInterpolator(lower.s_edges, cum_lo)(s)
    G_up = np.where(theta >= PI_2, 0.0, PchipInterpolator(upper.s_edges, cum_up)(s))
    return np.where(low, G_lo, cum_lo[-1] + cum_up[-1] - G_up)


class TestPchipOracle:
    # logistic r = 1 - 1e-9 puts the quadrature cutoff at s = 0.94, so the
    # cell index runs from a nonzero first edge.
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "family,r",
        [("hr", 0.01), ("hr", 1.0), ("hr", 8.0),
         ("logistic", 0.05), ("logistic", 0.5), ("logistic", 0.95), ("logistic", 1.0 - 1e-9)],
    )
    def test_cdf_and_f_integral_match_pchip(self, family, r, p):
        law = md.AngularLaw(md.make_model(family, r), p)
        edges = mo.half_arc(law.model, p, True, law._n_cells).s_edges
        theta_edges = PI_4 * edges ** law.model.endpoint_kappa()
        theta = np.concatenate([
            [0.0, 1e-300, PI_4, PI_2],
            theta_edges,
            PI_2 - theta_edges,
            np.random.default_rng(0).uniform(0.0, PI_2, 5000),
        ])
        tol = 1e-14 * law.total_mass
        np.testing.assert_allclose(law.cdf(theta), _pchip_oracle(law, theta, False), rtol=0, atol=tol)
        np.testing.assert_allclose(
            law.f_integral(theta) * law.total_mass, _pchip_oracle(law, theta, True),
            rtol=0, atol=tol,
        )

    @pytest.mark.parametrize("r", [0.999, 1.0 - 1e-9])
    def test_endpoint_atoms_at_both_ends(self, r):
        # logistic r near 1 puts most of its mass in atoms at 0 and pi/2:
        # Q(0) is the atom's share and Q(pi/2) takes the other atom too
        law = md.AngularLaw(md.make_model("logistic", r), 2.0)
        lower = mo.half_arc(law.model, 2.0, True, law._n_cells)
        assert law.normalized_cdf(0.0) == pytest.approx(lower.cum[0] / law.total_mass, abs=1e-14)
        assert law.normalized_cdf(0.0) > 0.25
        assert law.cdf(PI_2) == law.total_mass
        assert law.normalized_cdf(PI_2) == 1.0
        assert law.f_integral(PI_2) == 0.0
        np.testing.assert_array_equal(law.normalized_cdf(np.array([PI_2, PI_2 + 1e-13])), 1.0)
        np.testing.assert_array_equal(law.f_integral(np.array([PI_2, PI_2 + 1e-13])), 0.0)


def _per_level_law(model, p):
    """The AngularLaw construction with one ``half_arc`` per half-arc and
    level, both halves' totals tested and summed: (n_cells, total_mass,
    var_f, lower ``HalfArc``), or the QuadratureError it raises."""
    prev = None
    achieved = math.inf
    for n_panels in (256, 512, 1024, 2048, 4096):
        lower = mo.half_arc(model, p, True, n_panels)
        upper = mo.half_arc(model, p, False, n_panels)
        _assert_upper_mirrors_lower(lower, upper)
        totals = np.array([lower.total, upper.total, lower.total_f, upper.total_f])
        if prev is not None:
            achieved = float(np.max(np.abs(totals - prev)))
            if achieved < md._LAW_TOL:
                break
        prev = totals
    else:
        return md.QuadratureError(f"angular CDF quadrature did not converge for {model}", achieved)
    total_mass = lower.total + upper.total
    mean_f = (lower.total_f + upper.total_f) / total_mass
    var_f = max((lower.total_f2 + upper.total_f2) / total_mass - mean_f**2, 0.0)
    return n_panels, total_mass, var_f, lower


def _assert_upper_mirrors_lower(lower, upper):
    """The premise of the one-half-arc law: the upper half-arc's cumulatives
    of phi and f^2*phi are the lower one's, and that of f*phi its negation,
    bit for bit."""
    np.testing.assert_array_equal(upper.s_edges, lower.s_edges)
    np.testing.assert_array_equal(upper.cum, lower.cum)
    np.testing.assert_array_equal(upper.cum_f, -lower.cum_f)
    np.testing.assert_array_equal(upper.cum_f2, lower.cum_f2)


# HR r = 0.001 and 1.45 and logistic r = 0.002 stop at 1024 panels, logistic
# r = 0.001 at 2048, the rest at 512; logistic r = 1 - 1e-9 cuts the
# quadrature at s = 0.94.
SWEEP_CASES = [("hr", 0.001), ("hr", 1.0), ("hr", 1.45), ("hr", 8.0),
               ("logistic", 0.001), ("logistic", 0.002), ("logistic", 0.5),
               ("logistic", 1.0 - 1e-9)]


class TestLawSweep:
    """The 256- and 512-panel levels of the lower half-arc come from one
    density sweep; the law must equal the per-level construction from both
    half-arcs bit for bit, with tables of the lower half-arc alone."""

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("family,r", SWEEP_CASES)
    def test_law_equals_per_level_half_caches(self, family, r, p):
        model = md.make_model(family, r)
        law = md.AngularLaw(model, p)
        n_cells, total_mass, var_f, lower = _per_level_law(model, p)
        assert law._n_cells == n_cells
        assert law.total_mass == total_mass
        assert law.var_f == var_f
        assert law._cdf_table.shape == law._f_table.shape == (5, n_cells)
        np.testing.assert_array_equal(law._cdf_table, md._hermite_table(lower.s_edges, lower.cum))
        np.testing.assert_array_equal(law._f_table, md._hermite_table(lower.s_edges, lower.cum_f))

    def test_cases_cover_three_panel_counts(self):
        cells = {md.AngularLaw(md.make_model(f, r), 2.0)._n_cells for f, r in SWEEP_CASES}
        assert cells == {512, 1024, 2048}

    @pytest.mark.parametrize("family,r", [("hr", 1.0), ("logistic", 0.002)])
    def test_quadrature_error_as_per_level(self, family, r, monkeypatch):
        # No level can converge at tolerance 0: all five are built and the
        # error reports the last change of the totals.
        monkeypatch.setattr(md, "_LAW_TOL", 0.0)
        model = md.make_model(family, r)
        expect = _per_level_law(model, 2.0)
        assert isinstance(expect, md.QuadratureError)
        with pytest.raises(md.QuadratureError) as err:
            md.AngularLaw(model, 2.0)
        assert str(err.value) == str(expect) and err.value.achieved == expect.achieved

    @pytest.mark.parametrize("family,r", [("hr", 1.45), ("logistic", 0.002)])
    def test_levels_are_the_per_level_half_caches(self, family, r):
        model = md.make_model(family, r)
        levels = chain.from_iterable(md._arc_sweep(model, 2.0, counts) for counts in md._LEVELS)
        for n_panels, (edges, cum, cum_f, _) in zip((256, 512, 1024), levels):
            assert edges.size == n_panels + 1
            lower = mo.half_arc(model, 2.0, True, n_panels)
            np.testing.assert_array_equal(cum, lower.cum)
            np.testing.assert_array_equal(cum_f, lower.cum_f)
            _assert_upper_mirrors_lower(lower, mo.half_arc(model, 2.0, False, n_panels))

    @pytest.mark.parametrize("family,r", SWEEP_CASES)
    def test_sweep_parts_equal_single_half_caches(self, family, r):
        model = md.make_model(family, r)
        counts = (512, 256, 1024)
        for n_panels, (edges, cum, cum_f, total_f2) in zip(counts, md._arc_sweep(model, 2.0, counts)):
            lower = mo.half_arc(model, 2.0, True, n_panels)
            np.testing.assert_array_equal(edges, lower.s_edges)
            np.testing.assert_array_equal(cum, lower.cum)
            np.testing.assert_array_equal(cum_f, lower.cum_f)
            assert total_f2 == lower.total_f2
            _assert_upper_mirrors_lower(lower, mo.half_arc(model, 2.0, False, n_panels))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("family,r", SWEEP_CASES)
    def test_joint_sweep_equals_separate_sweeps(self, family, r, p):
        model = md.make_model(family, r)
        joint = md._arc_sweep(model, p, (256, 512))
        separate = md._arc_sweep(model, p, (256,)) + md._arc_sweep(model, p, (512,))
        assert len(joint) == len(separate) == 2
        for got, expect in zip(joint, separate):
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)


class TestByteLRU:
    class _Entry:
        def __init__(self, nbytes):
            self.table = np.zeros(nbytes // 8)
            self.name = "not counted"

    def test_evicts_least_recently_used_under_the_limit(self):
        from angular_gof._lru import ByteLRU

        cache = ByteLRU(limit=3 * 800)
        built = []

        def get(key):
            def build():
                built.append(key)
                return self._Entry(800)
            return cache.get(key, build)

        for key in "abca":  # "b" is now the least recently used
            get(key)
        assert built == ["a", "b", "c"] and cache.nbytes == 2400
        get("d")  # overfull: "b" goes
        assert cache.nbytes == 2400 <= cache.limit
        for key in "cad":
            get(key)
        assert built == ["a", "b", "c", "d"]
        get("b")  # rebuilt; "c" goes
        get("c")
        assert built == ["a", "b", "c", "d", "b", "c"]
        assert cache.nbytes <= cache.limit

    def test_an_entry_over_the_limit_is_kept_alone(self):
        from angular_gof._lru import ByteLRU

        cache = ByteLRU(limit=1000)
        small = cache.get("small", lambda: self._Entry(400))
        big = cache.get("big", lambda: self._Entry(4000))
        assert cache.nbytes == 4000
        assert cache.get("big", lambda: None) is big
        assert cache.get("small", lambda: self._Entry(400)) is not small  # evicted, rebuilt
        assert cache.nbytes == 400

    def test_law_cache_counts_table_bytes(self):
        law = md.get_law(md.make_model("logistic", 0.5), 2.0)
        assert md._LAWS.get((md.LogisticModel(0.5), 2.0), lambda: None) is law
        n = law._cdf_table.shape[1]
        assert md._LAWS.nbytes >= 2 * 5 * n * 8
        assert md._LAWS.nbytes <= md._LAW_CACHE_BYTES
