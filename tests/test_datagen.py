"""Copula specs, CDFs, conditional CDFs, and samplers.

Oracles: finite differences of the copula CDF for the conditional CDF and
of the conditional CDF for the copula density; the fixed-step bisection
sampler for the Newton sampler (both in ``datagen_oracle``); Monte-Carlo
agreement of the empirical copula of the exact samplers with the analytic
one; exact uniform margins by construction checks (Kolmogorov-Smirnov).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest, norm

from angular_gof import datagen as dg

import datagen_oracle as do


class TestSpecs:
    def test_gumbel_validation(self):
        with pytest.raises(ValueError):
            dg.gumbel(0.9)
        assert dg.gumbel(2.0).params == (2.0,)

    def test_maxlinear_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dg.maxlinear(0.7, 0.2, 0.1, 0.9)
        dg.maxlinear(0.7, 0.3, 0.1, 0.9)

    def test_mixture_weight_range(self):
        base, alt = dg.gumbel(2.0), dg.comonotone()
        with pytest.raises(ValueError):
            dg.mixture(1.5, base, alt)

    def test_scenarios(self):
        s1 = dg.scenario_copula(1, 0.3, "logistic")
        assert s1.kind == "mixture"
        assert s1.components[0].kind == "gumbel"
        assert s1.components[1].kind == "comonotone"
        s2 = dg.scenario_copula(2, 0.3, "hr")
        assert s2.components[0].kind == "hr"
        assert s2.components[1].kind == "maxlinear"
        with pytest.raises(ValueError):
            dg.scenario_copula(3, 0.1)

    def test_describe(self):
        assert "gumbel" in dg.scenario_copula(1, 0.5).describe()

    def test_scenario_bases(self):
        # the power-study bases: Gumbel(2) (logistic r0 = 0.5) and HR(1)
        assert dg.scenario_copula(2, 0.3, "logistic").components[0] == dg.gumbel(2.0)
        assert dg.scenario_copula(1, 0.3, "hr").components[0] == dg.husler_reiss(1.0)

    def test_scenario_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'gauss'"):
            dg.scenario_copula(2, 0.4, "gauss")


class TestCopulaCdf:
    SPECS = [
        dg.gumbel(2.0),
        dg.husler_reiss(1.0),
        dg.comonotone(),
        dg.maxlinear(0.7, 0.3, 0.1, 0.9),
        dg.mixture(0.4, dg.gumbel(3.0), dg.maxlinear(0.5, 0.5, 0.2, 0.8)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_copula_axioms(self, spec):
        u = np.array([0.1, 0.35, 0.5, 0.77, 0.94])
        # uniform margins: C(u, 1) = u and C(1, v) = v
        np.testing.assert_allclose(do.copula_cdf(spec, u, np.full(5, 1.0 - 1e-15)), u, atol=1e-9)
        np.testing.assert_allclose(do.copula_cdf(spec, np.full(5, 1.0 - 1e-15), u), u, atol=1e-9)
        # Frechet bounds
        for uu in u:
            for vv in u:
                c = do.copula_cdf(spec, uu, vv)
                assert max(uu + vv - 1.0, 0.0) - 1e-12 <= c <= min(uu, vv) + 1e-12

    def test_gumbel_closed_form(self):
        # [DERIVED] C(u,v) = exp(-((-log u)^t + (-log v)^t)^(1/t)), t = 2
        u, v = 0.4, 0.7
        x, y = -math.log(u), -math.log(v)
        expect = math.exp(-math.hypot(x, y))
        assert do.copula_cdf(dg.gumbel(2.0), u, v) == pytest.approx(expect, rel=1e-14)

    def test_hr_closed_form(self):
        # [DERIVED] from the HR stdf with r = 1
        u, v = 0.3, 0.8
        x, y = -math.log(u), -math.log(v)
        ell = x * norm.cdf(1.0 + math.log(x / y) / 2.0) + y * norm.cdf(
            1.0 + math.log(y / x) / 2.0
        )
        assert do.copula_cdf(dg.husler_reiss(1.0), u, v) == pytest.approx(
            math.exp(-ell), rel=1e-12
        )

    def test_comonotone_is_min(self):
        assert do.copula_cdf(dg.comonotone(), 0.3, 0.8) == 0.3

    def test_mixture_is_convex_combination(self):
        base, alt = dg.gumbel(2.0), dg.comonotone()
        spec = dg.mixture(0.25, base, alt)
        u, v = 0.5, 0.6
        expect = 0.75 * do.copula_cdf(base, u, v) + 0.25 * do.copula_cdf(alt, u, v)
        assert do.copula_cdf(spec, u, v) == pytest.approx(expect, rel=1e-14)


class TestConditionalCdf:
    @pytest.mark.parametrize(
        "spec",
        [dg.gumbel(2.0), dg.husler_reiss(1.0),
         dg.mixture(0.3, dg.gumbel(2.0), dg.husler_reiss(0.5))],
        ids=lambda s: s.kind,
    )
    def test_matches_finite_difference(self, spec):
        # [DERIVED] dC/du via central FD of the copula CDF
        for u in (0.2, 0.5, 0.8):
            for v in (0.3, 0.6, 0.9):
                h = 1e-6
                fd = (do.copula_cdf(spec, u + h, v) - do.copula_cdf(spec, u - h, v)) / (2 * h)
                assert do.conditional_cdf(spec, u, v) == pytest.approx(fd, rel=1e-5)

    def test_is_cdf_in_v(self):
        spec = dg.gumbel(2.0)
        v = np.linspace(1e-6, 1 - 1e-6, 200)
        vals = do.conditional_cdf(spec, 0.4, v)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 1e-3 and vals[-1] > 1 - 1e-3

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            do.conditional_cdf(dg.comonotone(), 0.5, 0.5)


class TestCopulaDensity:
    @pytest.mark.parametrize(
        "spec",
        [dg.gumbel(1.5), dg.gumbel(10.0), dg.husler_reiss(0.3), dg.husler_reiss(1.0),
         dg.husler_reiss(5.0)],
        ids=lambda s: s.describe(),
    )
    def test_density_matches_finite_difference(self, spec):
        # [DERIVED] c(u, v) = d/dv dC/du (u, v) via central FD of conditional_cdf
        model = do.ev_model(spec)
        u, v = np.meshgrid([0.1, 0.4, 0.7, 0.95], [0.15, 0.5, 0.8, 0.97])
        u, v = u.ravel(), v.ravel()
        h = 1e-6
        fd = (do.conditional_cdf(spec, u, v + h) - do.conditional_cdf(spec, u, v - h)) / (2 * h)
        g, dens = do.conditional_terms(model, u, -np.log(u), v)
        np.testing.assert_allclose(dens, fd, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(g, do.conditional_cdf(spec, u, v), rtol=1e-13)


class TestNewtonSampler:
    SPECS = (
        [dg.husler_reiss(r) for r in (0.01, 0.1, 1.0, 5.0, 8.0)]
        + [dg.gumbel(t) for t in (1.0, 1.5, 2.0, 10.0, 50.0)]
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_matches_bisection_oracle(self, spec):
        for seed in range(3):
            got = do.sample_conditional(spec, 3000, np.random.default_rng(seed))
            ref = do.sample_conditional_bisection(spec, 3000, np.random.default_rng(seed))
            np.testing.assert_array_equal(got[:, 0], ref[:, 0])
            assert np.max(np.abs(got[:, 1] - ref[:, 1])) <= 1e-12

    @pytest.mark.parametrize("spec", [dg.husler_reiss(1.0), dg.gumbel(2.0)], ids=lambda s: s.kind)
    def test_consumes_two_uniforms_per_pair(self, spec):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        do.sample_conditional(spec, 500, rng)
        do.sample_conditional_bisection(spec, 500, ref_rng)
        np.testing.assert_array_equal(rng.uniform(size=4), ref_rng.uniform(size=4))


class TestExactSamplers:
    EV_SPECS = (
        [dg.husler_reiss(r) for r in (0.1, 1.0, 3.0)]
        + [dg.gumbel(t) for t in (1.0, 1.2, 2.0, 5.0)]
    )
    ENDS = [dg.husler_reiss(0.001), dg.husler_reiss(8.0), dg.gumbel(1.0), dg.gumbel(1000.0)]

    @pytest.mark.parametrize("spec", EV_SPECS, ids=lambda s: s.describe())
    def test_copula_matches_stdf(self, spec):
        # [DERIVED] C(u, v) = exp(-ell(-log u, -log v)) on a 5 x 5 grid, each
        # empirical value within 4 binomial standard errors at 10^6 draws
        n = 1_000_000
        x = dg.sample(spec, n, np.random.default_rng(17))
        grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        # emp[i, j]: the share of draws with U <= grid[i] and V <= grid[j]
        iu = np.searchsorted(grid, x[:, 0])
        iv = np.searchsorted(grid, x[:, 1])
        cells = np.zeros((6, 6))
        np.add.at(cells, (iu, iv), 1.0)
        emp = np.cumsum(np.cumsum(cells, axis=0), axis=1)[:5, :5] / n
        u, v = np.meshgrid(grid, grid, indexing="ij")
        c = do.copula_cdf(spec, u, v)
        se = np.sqrt(c * (1.0 - c) / n)
        assert np.all(np.abs(emp - c) <= 4.0 * se)

    @pytest.mark.parametrize("spec", ENDS, ids=lambda s: s.describe())
    def test_parameter_ends(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = dg.sample(spec, 100_000, np.random.default_rng(8))
        assert x.shape == (100_000, 2)
        assert np.all(np.isfinite(x))
        assert np.all((x >= 0.0) & (x <= 1.0))

    @pytest.mark.parametrize(
        "spec",
        [dg.husler_reiss(0.01), dg.husler_reiss(1.0), dg.gumbel(2.0),
         dg.scenario_copula(2, 0.4, "hr")],
        ids=["hr-0.01", "hr-1", "gumbel-2", "hr-mixture"],
    )
    def test_reproducible_per_seed(self, spec):
        a = dg.sample(spec, 2000, np.random.default_rng(21))
        b = dg.sample(spec, 2000, np.random.default_rng(21))
        c = dg.sample(spec, 2000, np.random.default_rng(22))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mixture_component_order(self):
        # the component labels first, then every base draw, then every
        # alternative draw, all from the one stream
        base, alt = dg.husler_reiss(1.0), dg.maxlinear(0.7, 0.3, 0.1, 0.9)
        got = dg.sample(dg.mixture(0.3, base, alt), 1000, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        take_alt = rng.uniform(size=1000) < 0.3
        expect = np.empty((1000, 2))
        expect[~take_alt] = dg.sample(base, int(np.count_nonzero(~take_alt)), rng)
        expect[take_alt] = dg.sample(alt, int(np.count_nonzero(take_alt)), rng)
        np.testing.assert_array_equal(got, expect)


class TestSampling:
    N = 40_000

    @pytest.mark.parametrize(
        "spec",
        [dg.gumbel(2.0), dg.husler_reiss(1.0), dg.maxlinear(0.7, 0.3, 0.1, 0.9),
         dg.scenario_copula(2, 0.5, "logistic")],
        ids=lambda s: s.kind,
    )
    def test_margins_uniform(self, spec):
        x = dg.sample(spec, self.N, np.random.default_rng(1))
        assert x.shape == (self.N, 2)
        assert np.all((x > 0) & (x < 1))
        for j in range(2):
            assert kstest(x[:, j], "uniform").pvalue > 1e-4

    @pytest.mark.parametrize(
        "spec",
        [dg.gumbel(2.0), dg.husler_reiss(1.0), dg.comonotone(),
         dg.maxlinear(0.7, 0.3, 0.1, 0.9),
         dg.mixture(0.5, dg.gumbel(2.0), dg.comonotone())],
        ids=lambda s: s.kind,
    )
    def test_empirical_copula_matches_analytic(self, spec):
        x = dg.sample(spec, self.N, np.random.default_rng(2))
        for u, v in ((0.25, 0.25), (0.5, 0.7), (0.8, 0.4)):
            emp = np.mean((x[:, 0] <= u) & (x[:, 1] <= v))
            ana = do.copula_cdf(spec, u, v)
            # binomial SE at N = 40000 is <= 0.0025
            assert emp == pytest.approx(ana, abs=0.01)

    def test_comonotone_exact(self):
        x = dg.sample(dg.comonotone(), 100, np.random.default_rng(3))
        np.testing.assert_array_equal(x[:, 0], x[:, 1])

    def test_reproducible(self):
        a = dg.sample(dg.gumbel(2.0), 50, 123)
        b = dg.sample(dg.gumbel(2.0), 50, 123)
        np.testing.assert_array_equal(a, b)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            dg.sample(dg.comonotone(), 0, 1)

    def test_mixture_composition(self):
        # lambda = 1 reduces to the alternative exactly
        rng = np.random.default_rng(4)
        spec = dg.mixture(1.0, dg.gumbel(2.0), dg.comonotone())
        x = dg.sample(spec, 200, rng)
        np.testing.assert_array_equal(x[:, 0], x[:, 1])

    def test_tail_dependence_of_gumbel(self):
        # chi = 2 - 2^r with r = 1/theta_g: for theta_g = 2, chi = 2 - sqrt(2)
        x = dg.sample(dg.gumbel(2.0), self.N, np.random.default_rng(5))
        q = 0.98
        chi_emp = np.mean((x[:, 0] > q) & (x[:, 1] > q)) / (1.0 - q)
        assert chi_emp == pytest.approx(2.0 - 2.0 ** 0.5, abs=0.08)
