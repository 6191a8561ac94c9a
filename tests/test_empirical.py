"""Rank-based empirical angular measure and stdf.

Main oracle: the Euclidean-likelihood weights solve the equality-constrained
quadratic program min sum (K p_j - 1)^2 s.t. sum p = 1, sum p f = 0, which we
re-solve independently through the 2x2 KKT system with numpy.linalg.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_gof import empirical as emp
from angular_gof import geometry as g

import empirical_oracle as eo

PI_4 = math.pi / 4.0
PI_2 = math.pi / 2.0


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestRanks:
    def test_simple(self):
        sample = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        ranks = emp.compute_ranks(sample)
        assert ranks[:, 0].tolist() == [3, 1, 2]
        assert ranks[:, 1].tolist() == [1, 3, 2]

    def test_ties_broken_by_appearance(self):
        sample = np.array([[5.0, 1.0], [5.0, 2.0], [4.0, 3.0]])
        ranks = emp.compute_ranks(sample)
        # first occurrence of the tied 5.0 gets the smaller rank
        assert ranks[:, 0].tolist() == [2, 3, 1]

    def test_permutation(self):
        x = _rng(1).normal(size=(50, 2))
        ranks = emp.compute_ranks(x)
        for j in range(2):
            assert sorted(ranks[:, j]) == list(range(1, 51))

    def test_rejects_nan_and_shape(self):
        with pytest.raises(ValueError):
            emp.compute_ranks(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(ValueError):
            emp.compute_ranks(np.ones((5, 3)))

    def test_count_ties(self):
        sample = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        assert eo.count_ties(sample) == 1

    @pytest.mark.parametrize("kind", ["continuous", "rounded", "constant"])
    def test_stable_sort_ranks_and_ties(self, kind):
        # the default sort with a stable fallback on equal neighbours gives
        # the stable sort's ranks, and the tie count of np.unique
        x = _rng(12).normal(size=(500, 2))
        if kind == "rounded":
            x = np.round(x, 2)
        elif kind == "constant":
            x[:, 1] = 3.0
        ranks = emp.compute_ranks(x)
        for j in range(2):
            ref = np.empty(500, dtype=np.int64)
            ref[np.argsort(x[:, j], kind="stable")] = np.arange(1, 501)
            assert ranks[:, j].tobytes() == ref.tobytes()
        n_ties = eo.count_ties(x)
        assert (n_ties > 0) == (kind != "continuous")
        assert emp.select_exceedances(x, 20, 2.0).n_ties == n_ties
        assert emp.angular_dataset(x, 20, 2.0).n_ties == n_ties


    def test_top_ties_per_margin(self):
        # n = 10, k = 3: ranks 8..10 are the top k, rank 7 is n - k
        col = np.arange(10.0)
        x = np.column_stack([col, col[::-1]])
        assert emp.select_exceedances(x, 3, 2.0).top_ties == (0, 0)
        below = x.copy()
        below[[0, 1], 0] = 0.0  # a tie at ranks 1-2 only
        assert emp.select_exceedances(below, 3, 2.0).top_ties == (0, 0)
        across = x.copy()
        across[6, 0] = 7.0  # ranks 7 and 8 tie across the threshold
        assert emp.select_exceedances(across, 3, 2.0).top_ties == (1, 0)
        inside = x.copy()
        inside[[0, 1, 2], 1] = 9.5  # three equal values at ranks 8..10
        assert emp.angular_dataset(inside, 3, 2.0).top_ties == (0, 2)
        constant = x.copy()
        constant[:, 0] = 1.0
        assert emp.angular_dataset(constant, 3, 2.0).top_ties == (3, 0)

class TestExceedances:
    def test_count_matches_bruteforce(self):
        x = _rng(2).normal(size=(200, 2))
        k, p = 20, 2.0
        ds = emp.select_exceedances(x, k, p)
        ranks = emp.compute_ranks(x)
        s = 201.0 - ranks
        expect = np.sum((k / s[:, 0]) ** p + (k / s[:, 1]) ** p >= 1.0)
        assert ds.K == expect

    def test_angles_orientation(self):
        # A point with a much larger second-margin rank than first has a
        # survival pair (big, small) and hence a small pseudo-angle... the
        # convention is tan(theta) = s2/s1: large first-margin value (small
        # survivor s1) pushes theta towards pi/2.
        n = 100
        u = np.arange(1, n + 1) / (n + 1.0)
        x = np.column_stack([u, u[::-1]])  # perfectly anti-monotone
        ds = emp.select_exceedances(x, 10, 2.0)
        # the largest first coordinate has s1 = 1 and s2 = n -> angle near pi/2
        assert ds.angles.max() > 1.4
        assert ds.angles.min() < 0.2

    def test_comonotone_angles_all_pi4(self):
        u = _rng(3).uniform(size=300)
        x = np.column_stack([u, u])
        ds = emp.select_exceedances(x, 15, 2.0)
        assert np.allclose(ds.angles, PI_4)

    def test_rank_invariance(self):
        # angles depend only on the ranks: any strictly increasing marginal
        # transform leaves the dataset unchanged
        x = _rng(4).normal(size=(150, 2))
        y = np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3])
        a = emp.select_exceedances(x, 12, 2.0)
        b = emp.select_exceedances(y, 12, 2.0)
        np.testing.assert_allclose(a.angles, b.angles)

    def test_p_inf_rule(self):
        x = _rng(5).normal(size=(100, 2))
        k = 10
        ds = emp.select_exceedances(x, k, math.inf)
        ranks = emp.compute_ranks(x)
        s = 101 - ranks
        assert ds.K == np.sum(np.minimum(s[:, 0], s[:, 1]) <= k)

    def test_k_validation(self):
        x = _rng(6).normal(size=(50, 2))
        with pytest.raises(ValueError):
            emp.select_exceedances(x, 0, 2.0)
        with pytest.raises(ValueError):
            emp.select_exceedances(x, 50, 2.0)


class TestEuclideanWeights:
    def _kkt_oracle(self, fvals):
        # Solve min ||K p - 1||^2 s.t. [1'; f'] p = (1, 0) via KKT.
        K = fvals.size
        # stationarity: 2 K^2 p - 2 K 1 + A' mu = 0 -> p = (1/K) 1 - A' mu/(2K^2)
        A = np.vstack([np.ones(K), fvals])
        b = np.array([1.0, 0.0])
        # A p = b -> A ((1/K)1 - A'mu/(2K^2)) = b
        lhs = A @ A.T / (2 * K * K)
        rhs = A @ np.full(K, 1.0 / K) - b
        mu = np.linalg.solve(lhs, rhs)
        return np.full(K, 1.0 / K) - A.T @ mu / (2 * K * K)

    def test_against_kkt_oracle(self):
        angles = _rng(7).uniform(0.05, PI_2 - 0.05, size=40)
        w = emp.euclidean_weights(angles, 2.0)
        oracle = self._kkt_oracle(g.constraint_f(2.0, angles))
        np.testing.assert_allclose(w, oracle, atol=1e-12)

    def test_constraints_hold(self):
        angles = _rng(8).uniform(0.01, PI_2 - 0.01, size=25)
        for p in (1.0, 2.0, math.inf):
            w = emp.euclidean_weights(angles, p)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(w * g.constraint_f(p, angles)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_weights_preserved(self):
        # a tight majority cluster near pi/2 with two moderate angles makes
        # the cluster correction overshoot below zero
        angles = np.array([1.55] * 8 + [1.1468, PI_4])
        w = emp.euclidean_weights(angles, 2.0)
        assert np.any(w < 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(emp.DegenerateDataError):
            emp.euclidean_weights(np.array([0.3]), 2.0)
        with pytest.raises(emp.DegenerateDataError):
            emp.euclidean_weights(np.full(10, PI_4), 2.0)

    @given(seed=st.integers(0, 10_000), K=st.integers(3, 60))
    @settings(max_examples=100)
    def test_constraints_property(self, seed, K):
        angles = np.random.default_rng(seed).uniform(0.05, PI_2 - 0.05, size=K)
        if np.var(g.constraint_f(2.0, angles)) <= 0:
            return
        w = emp.euclidean_weights(angles, 2.0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
        assert np.sum(w * g.constraint_f(2.0, angles)) == pytest.approx(0.0, abs=1e-10)


class TestPipeline:
    def test_dataset_fields(self):
        x = _rng(9).normal(size=(400, 2))
        ds = emp.angular_dataset(x, 20, 2.0)
        assert not ds.degenerate
        assert ds.K == ds.angles.size == ds.weights.size
        assert 1.0 <= ds.ell_hat_11 <= 2.0
        assert np.all(np.diff(ds.angles) >= 0)

    def test_ranks_computed_once(self, monkeypatch):
        # one ranking sort serves the exceedances, the ties and ell_hat
        calls = []
        real = emp._rank

        def counting(sample):
            calls.append(1)
            return real(sample)

        monkeypatch.setattr(emp, "_rank", counting)
        emp.angular_dataset(_rng(9).normal(size=(400, 2)), 20, 2.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_matches_separate_estimators(self, p):
        # sharing the ranks changes no bit of the exceedances or of ell_hat
        x = np.round(_rng(11).normal(size=(600, 2)), 1)  # with ties
        ds = emp.angular_dataset(x, 30, p)
        ref = emp.select_exceedances(x, 30, p)
        assert ds.angles.tobytes() == ref.angles.tobytes()
        assert ds.weights.tobytes() == emp.euclidean_weights(ref.angles, p).tobytes()
        assert (ds.K, ds.n_ties, ds.degenerate) == (ref.K, ref.n_ties, ref.degenerate)
        assert ds.ell_hat_11 == emp.empirical_stdf(x, 30, 1.0, 1.0)

    def test_degenerate_comonotone(self):
        u = _rng(10).uniform(size=200)
        ds = emp.angular_dataset(np.column_stack([u, u]), 14, 2.0)
        assert ds.degenerate
        # the estimator input is still available for reporting
        assert 1.0 <= ds.ell_hat_11 <= 2.0

    def test_cdf_step_function(self):
        x = _rng(11).normal(size=(300, 2))
        ds = emp.angular_dataset(x, 17, 2.0)
        F = emp.empirical_angular_cdf(ds)
        assert F(0.0 - 1e-9) == 0.0
        assert F(PI_2) == pytest.approx(1.0, abs=1e-12)
        # right-continuity at a jump
        loc = F.locations[0]
        assert F(loc) == pytest.approx(F.cumulative[0], abs=1e-15)

    def test_cdf_ends_at_exactly_one(self):
        # the running sum of the weights ends up to a few ulp off 1 on most
        # of these samples (seeds 3-6, 8, 9); the CDF must not
        for seed in range(10):
            x = _rng(seed).normal(size=(300, 2))
            for ds in (emp.angular_dataset(x, 17, 2.0), emp.select_exceedances(x, 17, 2.0)):
                assert emp.empirical_angular_cdf(ds).cumulative[-1] == 1.0

    def test_cdf_merges_coincident_angles(self):
        ds = emp.AngularDataset(
            k=5, K=4, angles=np.array([0.3, 0.3, 0.8, 1.2]),
            weights=np.array([0.1, 0.2, 0.3, 0.4]), p=2.0,
        )
        F = emp.empirical_angular_cdf(ds)
        assert F.locations.size == 3
        assert F(0.3) == pytest.approx(0.3)


class TestEmpiricalStdf:
    def test_ell_11_bounds(self):
        # [TRIVIAL] 1 <= ell_hat(1,1) <= 2 always (with the 1/2 shift)
        for seed in range(5):
            x = _rng(seed).normal(size=(123, 2))
            v = emp.empirical_stdf(x, 11, 1.0, 1.0)
            assert 1.0 <= v <= 2.0

    def test_independence_value(self):
        # under (near-)independence the union count is close to 2k
        x = _rng(12).normal(size=(20_000, 2))
        v = emp.empirical_stdf(x, 140, 1.0, 1.0)
        assert v == pytest.approx(2.0 - 140.0 / 20_000 * 0, abs=0.1)

    def test_comonotone_value(self):
        u = _rng(13).uniform(size=5000)
        v = emp.empirical_stdf(np.column_stack([u, u]), 70, 1.0, 1.0)
        assert v == pytest.approx(1.0, abs=0.05)

    def test_exact_small_case(self):
        # [DERIVED] by hand: n = 4, k = 2, ranks of col0 = (1,2,3,4),
        # col1 = (4,3,2,1); condition R > n + 1/2 - k x = 2.5 -> R in {3,4}
        # in either margin -> every point counts -> 4/2 = 2
        x = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.4, 0.6]])
        assert emp.empirical_stdf(x, 2, 1.0, 1.0) == 2.0

    def test_monotone_in_arguments(self):
        x = _rng(14).normal(size=(500, 2))
        v1 = emp.empirical_stdf(x, 25, 0.5, 0.5)
        v2 = emp.empirical_stdf(x, 25, 1.0, 1.0)
        assert v1 <= v2


class TestDefaultK:
    def test_rounding(self):
        assert emp.default_k(428) == 21  # sqrt = 20.688 -> 21
        assert emp.default_k(400) == 20
        assert emp.default_k(3000) == 55  # sqrt = 54.77
