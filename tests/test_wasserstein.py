"""Weighted L1 distance between step and smooth CDFs.

Oracles: brute-force Riemann/midpoint sums.  For the singular weight the oracle
integrates in the transformed variable u = sqrt|theta - pi/4| (du-sums are
well-behaved there), which exercises a completely different code path from the
cellwise panel quadrature under test.  ``wasserstein_oracle`` keeps the
fixed-step bisection and 64-node cells as the reference for the regula falsi
crossings and the Gauss-Kronrod cells.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from angular_gof import datagen
from angular_gof import wasserstein as ws
from angular_gof.empirical import StepCDF, angular_dataset, empirical_angular_cdf
from angular_gof.geometry import WeightKind
from angular_gof.models import LogisticModel, estimate_param, get_law, make_model

import wasserstein_oracle as wo

PI_4 = math.pi / 4.0
PI_2 = math.pi / 2.0


def _riemann_oracle(F, G, kind, n=2_000_001):
    if kind is WeightKind.CONSTANT:
        t = (np.arange(n) + 0.5) * (PI_2 / n)
        return float(np.mean(np.abs(F(t) - G(t))) * PI_2)
    # substitute theta = pi/4 +/- u^2 on each side: q dtheta = 2 du
    total = 0.0
    for sign, umax in ((-1.0, math.sqrt(PI_4)), (1.0, math.sqrt(PI_2 - PI_4))):
        u = (np.arange(n) + 0.5) * (umax / n)
        t = PI_4 + sign * u * u
        total += float(np.mean(np.abs(F(t) - G(t))) * 2.0 * umax)
    return total


def _smooth_cdf(t):
    """A simple analytic CDF on [0, pi/2] (normalized sin^2)."""
    t = np.asarray(t, dtype=float)
    out = np.sin(t) ** 2
    return out[()] if np.ndim(t) == 0 else out


class TestAgainstRiemannOracle:
    @pytest.mark.parametrize("kind", [WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4])
    def test_single_step(self, kind):
        F = StepCDF(np.array([0.6]), np.array([1.0]))
        val, _ = ws.weighted_l1_distance(F, _smooth_cdf, kind)
        oracle = _riemann_oracle(F, _smooth_cdf, kind)
        assert val == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("kind", [WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4])
    def test_many_steps(self, kind):
        rng = np.random.default_rng(5)
        locs = np.sort(rng.uniform(0.01, PI_2 - 0.01, size=30))
        w = rng.dirichlet(np.ones(30))
        F = StepCDF(locs, np.cumsum(w))
        val, n_cells = ws.weighted_l1_distance(F, _smooth_cdf, kind)
        oracle = _riemann_oracle(F, _smooth_cdf, kind)
        assert val == pytest.approx(oracle, rel=1e-5)
        assert n_cells >= 31

    def test_step_at_pi4_with_singular_weight(self):
        # jump exactly at the singularity: the closed-form antiderivative keeps
        # the integral finite and exact
        F = StepCDF(np.array([PI_4]), np.array([1.0]))
        val, _ = ws.weighted_l1_distance(F, _smooth_cdf, WeightKind.INV_SQRT_PI4)
        oracle = _riemann_oracle(F, _smooth_cdf, WeightKind.INV_SQRT_PI4)
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_against_parametric_cdf(self):
        rng = np.random.default_rng(6)
        law = get_law(LogisticModel(0.5), 2.0)
        locs = np.sort(rng.uniform(0.02, PI_2 - 0.02, size=20))
        F = StepCDF(locs, np.cumsum(rng.dirichlet(np.ones(20))))
        for kind in (WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4):
            val, _ = ws.weighted_l1_distance(F, law.normalized_cdf, kind)
            oracle = _riemann_oracle(F, law.normalized_cdf, kind)
            assert val == pytest.approx(oracle, rel=2e-5)


class TestProperties:
    def test_zero_distance_to_itself_as_smooth(self):
        # G equal to the step values on each cell gives zero
        F = StepCDF(np.array([0.4, 1.0]), np.array([0.5, 1.0]))
        val, _ = ws.weighted_l1_distance(F, F, WeightKind.CONSTANT)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_monotone_guard(self):
        def bad(t):
            return -np.asarray(t, dtype=float)

        F = StepCDF(np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            ws.weighted_l1_distance(F, bad, WeightKind.CONSTANT)

    def test_bounded_by_sup_distance(self):
        # |F - G| <= 1 so the distance is at most int q
        F = StepCDF(np.array([1.5]), np.array([1.0]))
        val, _ = ws.weighted_l1_distance(F, _smooth_cdf, WeightKind.CONSTANT)
        assert val <= PI_2 + 1e-12


class TestTestStatistic:
    def test_scaling_and_metadata(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(size=(800, 2))
        # induce dependence via common shock
        z = rng.uniform(size=800)
        x = np.column_stack([np.maximum(u[:, 0], z), np.maximum(u[:, 1], z)])
        ds = angular_dataset(x, 28, 2.0)
        law = get_law(LogisticModel(0.5), 2.0)
        stat = ws.test_statistic(ds, law, WeightKind.INV_SQRT_PI4)
        raw, _ = ws.weighted_l1_distance(
            __import__("angular_gof.empirical", fromlist=["empirical_angular_cdf"]).empirical_angular_cdf(ds),
            law.normalized_cdf, WeightKind.INV_SQRT_PI4,
        )
        assert stat.value == pytest.approx(math.sqrt(28) * raw, rel=1e-12)
        assert stat.k == 28
        assert stat.weight_kind is WeightKind.INV_SQRT_PI4

    def test_statistic_small_under_matching_model(self):
        # data sampled from the logistic model itself should give a smaller
        # statistic than badly mismatched data
        from angular_gof import datagen

        rng = np.random.default_rng(8)
        good = datagen.sample(datagen.gumbel(2.0), 4000, rng)
        bad = datagen.sample(datagen.comonotone(), 4000, rng)
        law = get_law(LogisticModel(0.5), 2.0)
        k = 60
        s_good = ws.test_statistic(angular_dataset(good, k, 2.0), law, WeightKind.INV_SQRT_PI4)
        ds_bad = angular_dataset(bad, k, 2.0)
        # comonotone data is degenerate for the weight estimator; use raw
        # weights for the comparison
        from angular_gof.empirical import select_exceedances, empirical_angular_cdf

        ds_raw = select_exceedances(bad, k, 2.0)
        v_bad, _ = ws.weighted_l1_distance(
            empirical_angular_cdf(ds_raw),
            law.normalized_cdf, WeightKind.INV_SQRT_PI4,
        )
        assert s_good.value < math.sqrt(k) * v_bad


def _fitted(family, spec, p, seed, n=3000, k=100):
    ds = angular_dataset(datagen.sample(spec, n, np.random.default_rng(seed)), k, p)
    est = estimate_param(family, ds.ell_hat_11)
    return empirical_angular_cdf(ds), get_law(make_model(family, est.r), p)


class _CountingLaw:
    def __init__(self, law):
        self.law = law
        self.calls = 0
        self.points = 0

    def normalized_cdf(self, theta):
        self.calls += 1
        self.points += np.size(theta)
        return self.law.normalized_cdf(theta)


class TestAgainstBisectionOracle:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("family,spec", [
        ("logistic", datagen.gumbel(2.0)),
        ("hr", datagen.husler_reiss(1.0)),
    ])
    def test_roots_and_statistic_match(self, family, spec, p):
        agree = total = 0
        for seed in (1, 2, 3):
            F, law = _fitted(family, spec, p, seed)
            G = law.normalized_cdf
            c, lo, hi = wo.crossing_brackets(F, G)
            ref = wo.bisect_crossings(G, c, lo, hi)
            new = ws._regula_falsi_crossings(lambda x, _rows: G(x), c, lo, hi, G(lo) - c, G(hi) - c)
            assert np.all((new >= lo) & (new <= hi))
            # The oracle's root is the midpoint of a bracket of width
            # (hi - lo) / 2^48.  Where the roots differ by more, G cannot
            # tell them apart: |G - c| is within 16 ulp of c at both.
            close = np.abs(new - ref) <= 4.0 * np.spacing(ref) + (hi - lo) * 2.0**-49
            flat = np.maximum(np.abs(G(new) - c), np.abs(G(ref) - c)) <= 16.0 * np.spacing(c)
            assert np.all(close | flat)
            agree += int(np.count_nonzero(close))
            total += c.size
            for kind in (WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4):
                val, _ = ws.weighted_l1_distance(F, G, kind)
                ref_val, _ = wo.weighted_l1_distance(F, G, kind)
                assert val == pytest.approx(ref_val, rel=1e-7)
        assert total > 0
        assert agree >= 0.75 * total

    @pytest.mark.parametrize("t0", [1e-3, 0.3, PI_4 - 1e-7, 1.5707])
    def test_steep_step_stays_in_bracket(self, t0):
        # a logistic step 1e-12 wide on the whole quarter circle
        calls = []

        def G(t):
            calls.append(1)
            return expit((np.asarray(t) - t0) / 1e-12)

        lo, hi, c = np.array([0.0]), np.array([PI_2]), np.array([0.5])
        f_lo, f_hi = G(lo) - c, G(hi) - c
        calls.clear()
        root = ws._regula_falsi_crossings(lambda x, _rows: G(x), c, lo, hi, f_lo, f_hi)
        assert len(calls) <= 48
        assert lo[0] < root[0] < hi[0]
        assert abs(root[0] - t0) <= 1e-11


class TestKronrodRule:
    def test_k15_exact_to_degree_23(self):
        x, w = ws._GK_NODES, ws._GK_WEIGHTS[:, 0]
        for k in range(24):
            assert abs(w @ x**k - 1.0 / (k + 1)) <= 1e-15

    def test_g7_is_leggauss_and_exact_to_degree_13(self):
        gauss = ws._GK_WEIGHTS[:, 1] != 0.0
        x, w = ws._GK_NODES[gauss], ws._GK_WEIGHTS[gauss, 1]
        ref_x, ref_w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(x, (ref_x + 1.0) / 2.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, ref_w / 2.0, rtol=0, atol=1e-15)
        for k in range(14):
            assert abs(w @ x**k - 1.0 / (k + 1)) <= 1e-15


@pytest.fixture(scope="class")
def hr_scenario_two_counts():
    """G calls, G points and crossing calls of ten power-study statistics:
    HR scenario 2, n = 3000, k = 100."""
    spec = datagen.scenario_copula(2, 0.4, "hr")
    crossing_calls = []
    real = ws._regula_falsi_crossings

    def counting_crossings(G, *args):
        def counted(theta, rows):
            crossing_calls[-1] += 1
            return G(theta, rows)

        return real(counted, *args)

    calls, points = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ws, "_regula_falsi_crossings", counting_crossings)
        for seed in range(10):
            x = datagen.sample(spec, 3000, np.random.default_rng(seed))
            ds = angular_dataset(x, 100, 2.0)
            law = _CountingLaw(get_law(make_model("hr", estimate_param("hr", ds.ell_hat_11).r), 2.0))
            crossing_calls.append(0)
            ws.test_statistic(ds, law, WeightKind.INV_SQRT_PI4)
            calls.append(law.calls)
            points.append(law.points)
    return np.array(calls), np.array(points), np.array(crossing_calls)


class TestEvaluationCount:
    def test_hr_scenario_two(self, hr_scenario_two_counts):
        counts = hr_scenario_two_counts[0]
        # one call on the partition, the crossings, and the panel levels
        assert np.mean(counts) <= 16
        assert max(counts) <= 1 + ws._ROOT_MAX_EVALS + 6

    def test_g_points(self, hr_scenario_two_counts):
        # about 175 pieces, most of them done after one 15-point panel
        assert np.mean(hr_scenario_two_counts[1]) <= 4500

    def test_crossing_calls(self, hr_scenario_two_counts):
        # 5 or 6 crossings, iterated together
        assert np.mean(hr_scenario_two_counts[2]) <= 5.5


def _batch_cases(p):
    """Datasets with a law each: logistic and Hüsler-Reiss, among them HR
    r = 2 (kappa = 4 > 2); the first law comes back at the end, so the batch
    has to regroup its datasets by law."""
    specs = [("logistic", 0.5, datagen.gumbel(2.0)), ("hr", 1.0, datagen.husler_reiss(1.0)),
             ("hr", 2.0, datagen.husler_reiss(2.0)), ("logistic", 0.8, datagen.gumbel(1.25)),
             ("hr", 0.5, datagen.husler_reiss(0.5))]
    cases = []
    for seed, (family, r, spec) in enumerate(specs):
        ds = angular_dataset(datagen.sample(spec, 2000, np.random.default_rng(seed)), 60, p)
        cases.append((ds, get_law(make_model(family, r), p)))
    extra = angular_dataset(datagen.sample(datagen.gumbel(2.0), 2000, np.random.default_rng(9)), 60, p)
    return cases + [(extra, cases[0][1])]


class TestBatch:
    @pytest.mark.parametrize("kind", [WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_batch_matches_one_at_a_time(self, p, kind):
        cases = _batch_cases(p)
        assert max(law.model.endpoint_kappa() for _, law in cases) > 2.0
        batch = ws.test_statistic([ds for ds, _ in cases], [law for _, law in cases], kind)
        singles = [ws.test_statistic(ds, law, kind) for ds, law in cases]
        assert len(batch.statistics) == len(cases)
        for got, ref in zip(batch.statistics, singles):
            assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert (got.k, got.weight_kind, got.n_cells) == (ref.k, ref.weight_kind, ref.n_cells)
        assert isinstance(batch.n_cells, int)
        assert batch.n_cells == sum(s.n_cells for s in singles)

    def test_each_law_called_once_per_step(self, monkeypatch):
        cases = _batch_cases(2.0)
        datasets = [ds for ds, _ in cases]

        def counting(laws):
            wrapped = {id(law): _CountingLaw(law) for law in laws}
            return [wrapped[id(law)] for law in laws], list(wrapped.values())

        singles, single_counts = counting([law for _, law in cases])
        for ds, law in zip(datasets, singles):
            ws.test_statistic(ds, law, WeightKind.INV_SQRT_PI4)
        steps = []
        real = ws._by_group
        monkeypatch.setattr(ws, "_by_group", lambda *a: steps.append(1) or real(*a))
        batched, batch_counts = counting([law for _, law in cases])
        ws.test_statistic(datasets, batched, WeightKind.INV_SQRT_PI4)
        # the partition, the crossing steps and the panel levels of the whole batch
        assert len(steps) <= 1 + ws._ROOT_MAX_EVALS + 6
        assert all(1 <= law.calls <= len(steps) for law in batch_counts)
        # the same points as one dataset at a time
        assert [law.points for law in batch_counts] == [law.points for law in single_counts]

    def test_empty_batch(self):
        batch = ws.test_statistic([], [], WeightKind.CONSTANT)
        assert batch.statistics == () and batch.n_cells == 0

    def test_one_law_per_dataset(self):
        (ds, law), *_ = _batch_cases(2.0)
        with pytest.raises(ValueError, match="2 datasets but 1 laws"):
            ws.test_statistic([ds, ds], [law], WeightKind.CONSTANT)
