"""Experiment orchestration: single tests, power studies, corrections."""

import math

import numpy as np
import pytest

from angular_gof import datagen as dg
from angular_gof import experiments as ex
from angular_gof import limitlaw as ll
from angular_gof import wasserstein as ws
from angular_gof import _lru
from angular_gof._lru import ByteLRU
from angular_gof.empirical import angular_dataset
from angular_gof.geometry import WeightKind
from angular_gof.limitlaw import FieldGrid
from angular_gof.models import QuadratureError, estimate_param, get_law, make_model

TINY = FieldGrid(h=0.1, M=22, N=16)
SMALL = FieldGrid(h=0.05, M=100, N=200)


class TestFit:
    def test_matches_the_written_out_pipeline(self):
        # the HR scenario-2 samples of test_wasserstein.TestEvaluationCount
        spec = dg.scenario_copula(2, 0.4, "hr")
        q = WeightKind.INV_SQRT_PI4
        for seed in range(10):
            x = dg.sample(spec, 3000, np.random.default_rng(seed))
            ds = angular_dataset(x, 100, 2.0)
            est = estimate_param("hr", ds.ell_hat_11)
            t = ws.test_statistic(ds, get_law(make_model("hr", est.r), 2.0), q)
            res = ex.fit(x, "hr", 100, 2.0, q)
            assert res.status == "ok" and res.message == ""
            assert res.dataset.K == ds.K
            assert res.dataset.ell_hat_11 == ds.ell_hat_11
            assert res.estimate == est
            assert res.model == make_model("hr", est.r)
            assert res.statistic.value == t.value

    @pytest.mark.parametrize("family,spec", [("hr", dg.husler_reiss(1.0)),
                                             ("logistic", dg.gumbel(2.0))], ids=["hr", "logistic"])
    def test_column_swap_leaves_the_fit_unchanged(self, family, spec):
        # both families are exchangeable: swapping the columns keeps r_hat
        # exactly and T to rounding
        for seed in range(5):
            x = dg.sample(spec, 3000, np.random.default_rng(seed))
            a, b = ex.fit(x, family, 100), ex.fit(x[:, ::-1], family, 100)
            assert a.status == b.status == "ok"
            assert a.estimate.r == b.estimate.r
            assert b.statistic.value == pytest.approx(a.statistic.value, rel=1e-12, abs=0.0)

    def test_comonotone_is_degenerate(self):
        u = np.random.default_rng(2).uniform(size=500)
        res = ex.fit(np.column_stack([u, u]), "logistic", 20)
        assert res.status == "degenerate"
        assert res.dataset.degenerate and res.message
        assert res.estimate is None and res.statistic is None

    def test_quadrature_failure_is_an_error(self, monkeypatch):
        def failing_law(*_args, **_kwargs):
            raise QuadratureError("no convergence", 1e-3)

        monkeypatch.setattr(ex, "get_law", failing_law)
        data = dg.sample(dg.husler_reiss(1.0), 800, np.random.default_rng(3))
        res = ex.fit(data, "hr", 28)
        assert res.status == "error"
        assert res.message.startswith("no convergence")
        assert res.estimate is not None and res.statistic is None

    def test_constant_column_is_degenerate(self):
        x = dg.sample(dg.husler_reiss(1.0), 800, np.random.default_rng(4))
        x[:, 1] = 0.5
        res = ex.fit(x, "hr", 28)
        assert res.status == "degenerate"
        assert res.message == "ties reach the top k = 28 ranks of margin 2 (28 tied values)"
        assert res.estimate is None and res.statistic is None

    def test_ties_below_the_top_k_are_ok(self):
        x = dg.sample(dg.husler_reiss(1.0), 800, np.random.default_rng(4))
        low = x[:, 0] < np.median(x[:, 0])
        x[low, 0] = np.round(x[low, 0], 1)
        res = ex.fit(x, "hr", 28)
        assert res.status == "ok"
        assert res.dataset.n_ties > 0 and res.dataset.top_ties == (0, 0)


class TestFitAll:
    SPEC = dg.scenario_copula(2, 0.4, "hr")

    def _samples(self, count):
        return [dg.sample(self.SPEC, 1500, np.random.default_rng(seed)) for seed in range(count)]

    def test_matches_fit(self):
        samples = self._samples(6)
        fits = ex.fit_all(iter(samples), "hr", 40)
        for x, res in zip(samples, fits):
            ref = ex.fit(x, "hr", 40)
            assert res.status == ref.status == "ok"
            assert res.estimate == ref.estimate
            assert res.statistic.value == pytest.approx(ref.statistic.value, rel=1e-12, abs=0.0)
            assert res.statistic.n_cells == ref.statistic.n_cells

    def test_failures_are_marked_alone(self, monkeypatch):
        good = self._samples(3)
        u = np.random.default_rng(2).uniform(size=1500)
        samples = [good[0], np.column_stack([u, u]), good[1], good[2]]
        refs = [ex.fit(x, "hr", 40) for x in good]
        calls = []

        def second_law_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise QuadratureError("no convergence", 1e-3)
            return get_law(*args, **kwargs)

        monkeypatch.setattr(ex, "get_law", second_law_fails)
        fits = ex.fit_all(samples, "hr", 40)
        assert [res.status for res in fits] == ["ok", "degenerate", "error", "ok"]
        assert fits[2].message.startswith("no convergence") and fits[2].statistic is None
        for res, ref in ((fits[0], refs[0]), (fits[3], refs[2])):
            assert res.statistic.value == pytest.approx(ref.statistic.value, rel=1e-12, abs=0.0)


class TestSingleTest:
    def test_null_data_accepts(self):
        data = dg.sample(dg.gumbel(2.0), 3000, np.random.default_rng(0))
        rep = ex.run_single_test(data, "logistic", 50, B=300, seed=1, grid=SMALL)
        assert rep.status == "ok"
        assert rep.p_value > 0.05
        assert rep.r_hat == pytest.approx(0.5, abs=0.12)
        assert rep.critical_values[0.9] < rep.critical_values[0.99]
        assert not rep.r_clamped

    def test_gross_misfit_rejects(self):
        data = dg.sample(dg.MaxLinear(0.7, 0.3, 0.1, 0.9), 3000, np.random.default_rng(1))
        rep = ex.run_single_test(data, "logistic", 50, B=300, seed=1, grid=SMALL)
        assert rep.status == "ok"
        assert rep.p_value < 0.01
        assert rep.t_value > rep.critical_values[0.99]

    def test_degenerate_data_reported(self):
        u = np.random.default_rng(2).uniform(size=500)
        rep = ex.run_single_test(np.column_stack([u, u]), "logistic", 20, B=50, seed=1, grid=TINY)
        assert rep.status == "degenerate"
        assert math.isnan(rep.p_value)
        assert rep.message

    def test_deterministic(self, monkeypatch):
        data = dg.sample(dg.husler_reiss(1.0), 800, np.random.default_rng(3))
        a = ex.run_single_test(data, "hr", 28, B=100, seed=9, grid=TINY)
        monkeypatch.setattr(_lru, "CACHE", ByteLRU(_lru.CACHE_BYTES))  # draw again
        b = ex.run_single_test(data, "hr", 28, B=100, seed=9, grid=TINY)
        assert a.to_dict() == b.to_dict()

    def test_negative_seed_rejected_before_any_build(self, monkeypatch):
        def no_build(*_args, **_kwargs):
            raise AssertionError("a simulator was built")

        monkeypatch.setattr(ll, "LimitLawSimulator", no_build)
        data = dg.sample(dg.husler_reiss(1.0), 800, np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"^base_seed must be at least 0, got -1$"):
            ex.run_single_test(data, "hr", 28, B=100, seed=-1, grid=TINY)

    def test_report_metadata(self):
        data = dg.sample(dg.gumbel(2.0), 600, np.random.default_rng(4))
        rep = ex.run_single_test(data, "logistic", 24, B=60, seed=2, grid=TINY)
        assert rep.n == 600 and rep.k == 24 and rep.B == 60
        assert rep.grid == (TINY.h, TINY.M, TINY.N)
        assert rep.q == "invsqrt"
        assert 1.0 <= rep.ell_hat <= 2.0


class TestCorrections:
    def test_bonferroni(self):
        # [TRIVIAL] p <= alpha / m
        p = np.array([0.001, 0.02, 0.2])
        out = ex.bonferroni(p, 0.05)
        assert out.tolist() == [True, False, False]

    def test_bh_known_example(self):
        # [DERIVED] by hand: m=5, alpha=0.1, thresholds i/m*alpha =
        # 0.02, 0.04, 0.06, 0.08, 0.10; sorted p = 0.01, 0.015, 0.07, 0.5, 0.9:
        # largest i with p_(i) <= thr is i=2 -> reject the two smallest
        p = np.array([0.5, 0.01, 0.9, 0.015, 0.07])
        out = ex.benjamini_hochberg(p, 0.1)
        assert out.tolist() == [False, True, False, True, False]

    def test_bh_step_up_rescue(self):
        # a p-value above its own threshold is still rejected when a later
        # one passes (step-up property)
        p = np.array([0.03, 0.039])  # thresholds at alpha=0.05: 0.025, 0.05
        out = ex.benjamini_hochberg(p, 0.05)
        assert out.tolist() == [True, True]

    def test_bh_dependent_is_more_conservative(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 0.1, size=20)
        plain = ex.benjamini_hochberg(p, 0.05)
        dep = ex.benjamini_hochberg(p, 0.05, dependent=True)
        assert np.all(dep <= plain)

    def test_bh_none_rejected(self):
        out = ex.benjamini_hochberg(np.array([0.5, 0.8]), 0.05)
        assert not out.any()

    def test_no_pvalues(self):
        for out in (ex.bonferroni([], 0.05), ex.benjamini_hochberg([], 0.05),
                    ex.benjamini_hochberg([], 0.05, dependent=True)):
            assert out.dtype == bool and out.size == 0


class TestPowerStudy:
    def test_smoke_and_monotone(self):
        cfg = ex.ScenarioConfig(
            family="logistic", scenario=2, lambdas=(0.0, 0.8), n=800, k=28,
            B=200, alpha=0.05, reps=24, seed=3, grid=SMALL,
        )
        curve = ex.run_power_study(cfg, threads=4)
        assert curve.rates[0] < 0.3  # near-nominal at the null
        assert curve.rates[1] > curve.rates[0]  # power grows with contamination
        assert curve.reps.sum() + curve.failures.sum() == 2 * 24
        assert np.all((curve.r_grid > 0) & (curve.r_grid <= 0.95))

    def test_deterministic_across_threads(self, monkeypatch):
        cfg = ex.ScenarioConfig(
            family="logistic", scenario=1, lambdas=(0.5,), n=400, k=18,
            B=60, alpha=0.1, reps=8, seed=11, grid=TINY,
        )
        a = ex.run_power_study(cfg, threads=1)
        monkeypatch.setattr(_lru, "CACHE", ByteLRU(_lru.CACHE_BYTES))  # draw again
        b = ex.run_power_study(cfg, threads=4)
        np.testing.assert_array_equal(a.rates, b.rates)


    def test_one_statistic_call_per_lambda(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ws.test_statistic(*args, **kwargs)

        monkeypatch.setattr(ex, "test_statistic", counting)
        cfg = ex.ScenarioConfig(
            family="hr", scenario=2, lambdas=(0.0, 0.4, 0.8), n=400, k=20,
            B=20, alpha=0.1, reps=5, seed=2, grid=TINY,
        )
        curve = ex.run_power_study(cfg)
        assert curve.reps.tolist() == [5, 5, 5]
        assert len(calls) == 3

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*_args, **_kwargs):
            raise AssertionError("data were drawn")

        monkeypatch.setattr(dg, "sample", no_draw)
        cfg = ex.ScenarioConfig(family="hr", scenario=2, lambdas=(0.0,), n=400, k=20,
                                B=20, reps=2, seed=-1, grid=TINY)
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            ex.run_power_study(cfg)

class TestPairwise:
    def test_mixed_table(self):
        rng = np.random.default_rng(7)
        hr_pair = dg.sample(dg.husler_reiss(1.0), 1500, rng)
        indep = rng.uniform(size=(1500, 2))
        table = np.column_stack([hr_pair, indep[:, 0]])
        report = ex.run_pairwise_analysis(
            table, [(0, 1), (0, 2)], family="hr", B=300, seed=4, grid=SMALL,
            labels=["hr-pair", "cross"],
        )
        assert report.pairs[0].report.status == "ok"
        assert report.pairs[0].report.p_value > 0.01
        assert len(report.bonferroni_reject) == 2

    def test_missing_values_dropped(self):
        rng = np.random.default_rng(8)
        data = dg.sample(dg.husler_reiss(1.0), 900, rng)
        data[::10, 0] = np.nan
        table = data
        report = ex.run_pairwise_analysis(
            table, [(0, 1)], family="hr", B=80, seed=5, grid=TINY,
        )
        assert report.pairs[0].report.n == 810

    def test_too_small_pair(self):
        table = np.array([[1.0, 2.0], [2.0, 1.0]])
        report = ex.run_pairwise_analysis(table, [(0, 1)], B=10, seed=0, grid=TINY)
        assert report.pairs[0].report.status == "error"

    def test_no_pairs(self):
        report = ex.run_pairwise_analysis(np.ones((10, 1)), [], B=10, seed=0, grid=TINY)
        assert report.pairs == []
        for out in (report.bonferroni_reject, report.bh_reject, report.bh_dependent_reject):
            assert out.size == 0

    def test_each_pair_ranked_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return angular_dataset(*args, **kwargs)

        monkeypatch.setattr(ex, "angular_dataset", counting)
        rng = np.random.default_rng(10)
        table = np.column_stack([dg.sample(dg.husler_reiss(1.0), 600, rng),
                                 dg.sample(dg.gumbel(2.0), 600, rng)])
        report = ex.run_pairwise_analysis(
            table, [(0, 1), (2, 3)], family="hr", B=40, seed=1, grid=TINY,
        )
        assert [res.report.status for res in report.pairs] == ["ok", "ok"]
        assert len(calls) == 2

    def test_draws_shared_for_equal_estimates(self):
        # identical columns duplicated -> identical r_hat -> identical
        # critical values (shared null draws)
        rng = np.random.default_rng(9)
        pair = dg.sample(dg.husler_reiss(1.0), 700, rng)
        table = np.column_stack([pair, pair])
        report = ex.run_pairwise_analysis(
            table, [(0, 1), (2, 3)], family="hr", B=80, seed=6, grid=TINY,
        )
        a, b = report.pairs[0].report, report.pairs[1].report
        assert a.critical_values == b.critical_values
        assert a.p_value == b.p_value

    def test_rank_copy_pair_adds_no_build(self, monkeypatch):
        # a strictly increasing transform of a pair has its ranks, so its
        # r_hat, and simulate_L serves it the first pair's kept draws
        monkeypatch.setattr(_lru, "CACHE", ByteLRU(_lru.CACHE_BYTES))
        built = []
        real = ll.LimitLawSimulator

        def counting(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ll, "LimitLawSimulator", counting)
        pair = dg.sample(dg.husler_reiss(1.0), 700, np.random.default_rng(12))
        table = np.column_stack([pair, -1.0 / np.log(pair)])
        alone = ex.run_pairwise_analysis(table, [(0, 1)], family="hr", B=80, seed=6, grid=TINY)
        assert len(built) == 1
        report = ex.run_pairwise_analysis(
            table, [(0, 1), (2, 3)], family="hr", B=80, seed=6, grid=TINY,
        )
        assert len(built) == 1
        a, b = report.pairs[0].report, report.pairs[1].report
        assert a.status == "ok" and a.to_dict() == b.to_dict() == alone.pairs[0].report.to_dict()

    def test_pairs_share_the_normal_blocks(self, monkeypatch):
        # every pair draws at the command's seed, so only the first draws normals
        monkeypatch.setattr(_lru, "CACHE", ByteLRU(_lru.CACHE_BYTES))
        calls = []
        real = ll.keyed_rng

        def counting(seed, *key):
            calls.append((seed, *key))
            return real(seed, *key)

        monkeypatch.setattr(ll, "keyed_rng", counting)
        rng = np.random.default_rng(10)
        table = np.column_stack([dg.sample(dg.husler_reiss(1.0), 600, rng),
                                 dg.sample(dg.husler_reiss(2.0), 600, rng)])
        report = ex.run_pairwise_analysis(
            table, [(0, 1), (2, 3)], family="hr", B=130, seed=6, grid=TINY,
        )
        a, b = report.pairs[0].report, report.pairs[1].report
        assert a.status == b.status == "ok" and a.r_hat != b.r_hat
        assert calls == [(6, 0), (6, 1), (6, 2)]
