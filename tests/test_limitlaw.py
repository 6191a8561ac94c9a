"""Limit-law simulator: field discretization, process evaluation, draws.

Oracles:
  - brute-force double loops over grid cells (set membership by corner test)
    against the prefix-sum evaluators of the reference field pipeline
    (``limitlaw_oracle``)
  - Monte-Carlo variance identities Var W1(1) = 1 and Var W(A_(1,1)) = l(1,1),
    which hold exactly at grid multiples thanks to the overflow cells —
    deliberately checked on a *small* grid where plain truncation would fail
  - the covariance G G' of the reference pipeline, built from unit vectors,
    against the covariance LimitLawSimulator assembles in closed form
  - the Gaussian identity E|X| = sqrt(2/pi) sd(X) against the mean of draws
  - F F' of the Cholesky factor against the assembled covariance, and E[L]
    from the row norms of F against E[L] from its diagonal, over a sweep of
    both families
  - the staircase assembly (strip tables, set masses, covariance) and the
    tiled map to X against the dense assembly and map they replaced
    (``limitlaw_oracle.dense_covariance``), on the desk and paper grids and
    on a grid whose N is not a multiple of the tile
  - the cell masses mirrored across the diagonal against every cell
    evaluated (``limitlaw_oracle.full_cell_masses``), bit for bit
  - draws from cached normal blocks against draws from an empty cache and
    from a cache too small to keep the blocks, bit for bit
  - draws served by the cache against a cold-cache computation, bit
    for bit
  - each critical-value table row against the quantiles of a direct
    ``simulate_L`` call at the table's seed, bit for bit
"""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from angular_gof import geometry as g
from angular_gof import _lru
from angular_gof import limitlaw as ll
from angular_gof import models as md
from angular_gof._lru import ByteLRU
from angular_gof.geometry import WeightKind
from angular_gof.limitlaw import keyed_rng
from angular_gof.models import HuslerReissModel, LogisticModel, QuadratureError, get_law

import limitlaw_oracle as lo

PI_2 = math.pi / 2.0
TINY = ll.FieldGrid(h=0.1, M=22, N=16)
SMALL = ll.FieldGrid(h=0.05, M=60, N=40)
ODD_GRID = ll.FieldGrid(h=0.05, M=137, N=301)


class TestMasses:
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)])
    def test_strip_mass_identity(self, model):
        # every row/column strip of width h carries total Lambda-mass h
        masses = ll.cell_masses(model, SMALL)
        row_of, col_of = ll.overflow_masses(model, SMALL, masses)
        np.testing.assert_allclose(masses.sum(axis=1) + row_of, SMALL.h, atol=1e-12)
        np.testing.assert_allclose(masses.sum(axis=0) + col_of, SMALL.h, atol=1e-12)

    def test_cell_mass_value(self):
        # [DERIVED] Lambda of a single cell by inclusion-exclusion of
        # a + b - ell(a, b)
        model = LogisticModel(0.5)
        masses = ll.cell_masses(model, TINY)
        a0, a1, b0, b1 = 0.3, 0.4, 0.5, 0.6

        def R(a, b):
            return a + b - model.stdf(a, b)

        expect = R(a1, b1) - R(a0, b1) - R(a1, b0) + R(a0, b0)
        assert masses[3, 5] == pytest.approx(expect, rel=1e-12)

    def test_nonnegative(self):
        for model in (LogisticModel(0.3), HuslerReissModel(2.0)):
            assert np.all(ll.cell_masses(model, SMALL) >= 0.0)

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)])
    @pytest.mark.parametrize("grid", [ll.DESK_GRID, ll.FieldGrid(h=0.05, M=150, N=40)])
    def test_blocked_masses_equal_one_shot(self, model, grid):
        # M - 1 = 199 and 149 are not multiples of the row block
        assert (grid.M - 1) % ll._MASS_BLOCK != 0
        x = np.arange(grid.M) * grid.h
        R = model.rect_mass(x[:, None], x[None, :])
        one_shot = np.maximum(R[1:, 1:] - R[:-1, 1:] - R[1:, :-1] + R[:-1, :-1], 0.0)
        np.testing.assert_array_equal(ll.cell_masses(model, grid), one_shot)

    @pytest.mark.parametrize(
        "model",
        [LogisticModel(0.05), LogisticModel(0.5), LogisticModel(0.95),
         HuslerReissModel(0.1), HuslerReissModel(1.0), HuslerReissModel(7.9)],
    )
    @pytest.mark.parametrize("grid", [ll.DESK_GRID, ll.PAPER_GRID], ids=["desk", "paper"])
    def test_mirrored_masses_equal_full_evaluation(self, model, grid):
        # ell is symmetric bit for bit in both families, so the upper
        # triangle's transpose is the lower triangle's exact evaluation
        np.testing.assert_array_equal(ll.cell_masses(model, grid),
                                      lo.full_cell_masses(model, grid))


class TestFieldEvaluation:
    def _field(self, model=LogisticModel(0.5), grid=TINY, seed=1):
        return lo.simulate_field(model, grid, np.random.default_rng(seed))

    @staticmethod
    def _brute_c_sum(field, p, theta):
        """Sum W over cells whose lower-left corner lies in C_{p,theta}."""
        grid = field.grid
        m = grid.M - 1
        total = 0.0
        for i in range(m):
            x = i * grid.h
            yp = float(g.y_p(p, np.asarray(x, dtype=float)))
            lim = yp if theta >= PI_2 else min(x * math.tan(theta), yp)
            for j in range(m):
                if j * grid.h <= lim:
                    total += field.W[i, j]
        return total

    def test_c_set_matches_bruteforce_corner_loop(self):
        model = LogisticModel(0.5)
        field = self._field(model)
        for p in (1.0, 2.0, 4.0):
            for theta in (0.2, 1.0, 1.37, PI_2):
                expect = self._brute_c_sum(field, p, theta)
                assert lo.eval_W_on_Cptheta(field, p, theta) == pytest.approx(
                    expect, rel=1e-10, abs=1e-12
                )

    def test_marginals_match_bruteforce(self):
        field = self._field()
        w1, w2 = lo.eval_marginals(field, 1.0)
        idx = int(np.floor(1.0 / TINY.h))
        # W1 counts complete x-strips [0, 1] (rows 0..idx-1) including their
        # per-row overflow; W2 the analogous columns with column overflow.
        brute1 = field.W[:idx, :].sum() + field.row_of[:idx].sum()
        brute2 = field.W[:, :idx].sum() + field.col_of[:idx].sum()
        assert w1 == pytest.approx(brute1, rel=1e-12)
        assert w2 == pytest.approx(brute2, rel=1e-12)

    def test_rectangle_union_inclusion_exclusion(self):
        field = self._field()
        x = y = 1.0
        idx = int(np.floor(x / TINY.h))
        w1, w2 = lo.eval_marginals(field, x)
        block = field.W[:idx, :idx].sum()
        assert lo.eval_W_on_A(field, x, y) == pytest.approx(w1 + w2 - block, rel=1e-12)

    def test_zp_matches_handwritten_midpoint_sum(self):
        model = LogisticModel(0.5)
        field = self._field(model)
        p, theta = 2.0, 1.1
        h = TINY.h
        total = 0.0
        xp = g.x_p_of_theta(p, theta)
        for mi in range(TINY.M - 1):
            xm = (mi + 0.5) * h
            if xm < xp:
                lam = model.exponent_density(xm, xm * math.tan(theta))
                w1 = field.w1_cum[int(np.floor(xm / h))]
                w2 = field.w2_cum[int(np.floor(xm * math.tan(theta) / h))]
                total += lam * (w1 * math.tan(theta) - w2) * h
            elif xm > max(xp, 1.0):
                yv = float(g.y_p(p, xm))
                lam = model.exponent_density(xm, yv)
                w1 = field.w1_cum[int(np.floor(xm / h))]
                w2 = field.w2_cum[min(int(np.floor(yv / h)), TINY.M - 1)]
                total += lam * (-g.y_p_prime_abs(p, xm) * w1 - w2) * h
        assert lo.eval_Zp(field, model, p, theta) == pytest.approx(total, rel=1e-10)

    def test_p_inf_rejected(self):
        field = self._field()
        with pytest.raises(ll.UnsupportedFeatureError):
            lo.eval_W_on_Cptheta(field, math.inf, 0.5)
        with pytest.raises(ll.UnsupportedFeatureError):
            ll.LimitLawSimulator(LogisticModel(0.5), math.inf, TINY)


class TestVarianceIdentities:
    """Overflow cells make marginal variances exact even on a short grid."""

    N_REPS = 3000

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)])
    def test_var_w1_is_one(self, model):
        rng = np.random.default_rng(21)
        masses = ll.cell_masses(model, SMALL)
        vals = np.empty(self.N_REPS)
        for b in range(self.N_REPS):
            f = lo.simulate_field(model, SMALL, rng, masses)
            vals[b], _ = lo.eval_marginals(f, 1.0)
        # SE of the sample variance of N(0,1) over 3000 reps ~ 0.026
        assert np.var(vals) == pytest.approx(1.0, abs=0.09)
        assert np.mean(vals) == pytest.approx(0.0, abs=0.07)

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)])
    def test_var_union_rectangle_is_stdf(self, model):
        rng = np.random.default_rng(22)
        masses = ll.cell_masses(model, SMALL)
        vals = np.empty(self.N_REPS)
        for b in range(self.N_REPS):
            f = lo.simulate_field(model, SMALL, rng, masses)
            vals[b] = lo.eval_W_on_A(f, 1.0, 1.0)
        expect = float(model.stdf(1.0, 1.0))
        assert np.var(vals) == pytest.approx(expect, abs=0.12)

    def test_cov_of_nested_angular_sets(self):
        # Cov(W(C_t1), W(C_t2)) = included-cell mass of the smaller set
        model = LogisticModel(0.5)
        rng = np.random.default_rng(23)
        masses = ll.cell_masses(model, SMALL)
        t1, t2 = 0.6, 1.2
        a = np.empty(self.N_REPS)
        b_ = np.empty(self.N_REPS)
        for b in range(self.N_REPS):
            f = lo.simulate_field(model, SMALL, rng, masses)
            a[b] = lo.eval_W_on_Cptheta(f, 2.0, t1)
            b_[b] = lo.eval_W_on_Cptheta(f, 2.0, t2)
        bounds = ll._c_bounds(SMALL, 2.0, t1)
        included = sum(masses[i, : bounds[i]].sum() for i in range(SMALL.M - 1))
        cov = np.mean(a * b_) - np.mean(a) * np.mean(b_)
        assert cov == pytest.approx(included, abs=0.08)


def _mean_L(model, p, grid, q):
    """E[L] = sqrt(2/pi) sum_k q_cells[k] sd(X(theta_k)), exact given Sigma."""
    sd = np.sqrt(np.diag(ll._covariance(model, p, grid)))
    return math.sqrt(2.0 / math.pi) * float(lo.q_cells(q, grid) @ sd)


class TestSimulatorPipeline:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    @pytest.mark.parametrize("grid", [TINY, SMALL], ids=["tiny", "small"])
    def test_covariance_matches_field_oracle(self, grid, model, p):
        """The assembled covariance of X equals G G' of the reference field
        pipeline pushed through with unit vectors."""
        expect = lo.field_covariance(model, p, grid)
        sigma = ll._covariance(model, p, grid)
        assert np.max(np.abs(sigma - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    def test_mean_of_draws_matches_closed_form(self, model):
        q = WeightKind.INV_SQRT_PI4
        values = ll.simulate_L(model, 2.0, TINY, q, 4000, base_seed=13)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - _mean_L(model, 2.0, TINY, q)) < 4.0 * se

    def test_draw_is_weighted_abs_integral(self):
        model = HuslerReissModel(1.0)
        sim = ll.LimitLawSimulator(model, 2.0, TINY)
        x = lo.draw_X(sim, ll.keyed_rng(5, 0))
        val = lo.draw(sim, WeightKind.CONSTANT, ll.keyed_rng(5, 0))
        # constant weight: exact cell integrals are just dtheta
        assert val == pytest.approx(float(np.abs(x).sum() * PI_2 / TINY.N), rel=1e-12)

    def test_q_cells_sum_to_total_weight(self):
        q_cells = lo.q_cells(WeightKind.INV_SQRT_PI4, TINY)
        assert q_cells.sum() == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_one_factor_serves_both_weights(self, monkeypatch):
        """q has no part in the factor: draws under both weights are |F eps|
        of the same F, each summed against its own weight's cell integrals."""
        built = []
        real = ll.LimitLawSimulator

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ll, "LimitLawSimulator", counting)
        grid = ll.FieldGrid(h=0.1, M=22, N=19)  # a grid no other test uses
        model = HuslerReissModel(0.8)
        weights = (WeightKind.CONSTANT, WeightKind.INV_SQRT_PI4)
        draws = [ll.simulate_L(model, 2.0, grid, q, 3, base_seed=4) for q in weights]
        np.testing.assert_array_equal(built[0]._F, built[-1]._F)
        eps = ll.keyed_rng(4, 0).standard_normal((64, grid.N))[:3]
        abs_x = np.abs(eps @ built[0]._F.T)
        for q, got in zip(weights, draws):
            np.testing.assert_allclose(got, abs_x @ lo.q_cells(q, grid), rtol=1e-12)


def _staircase_rows(tables, R):
    """The dense (R, M-1) tables a - a_pi (alpha rows) and b rebuilt from the
    staircase blocks."""
    m = tables.a_pi.size
    a = np.zeros((R, m))
    b = np.zeros((R, m))
    for k0, A, B in tables.blocks:
        a[k0:k0 + A.shape[0], : A.shape[1]] = A
        b[k0:k0 + B.shape[0], : B.shape[1]] = B
    return a, b


_DESK_CASES = [HuslerReissModel(r) for r in (0.05, 1.0, 8.0)] + [
    LogisticModel(r) for r in (0.01, 0.5, 0.95)
]


class TestStaircaseAssembly:
    """The staircase assembly against the dense one it replaced."""

    @staticmethod
    def _assert_close(model, p, grid):
        expect = lo.dense_covariance(model, p, grid)
        sigma = ll._covariance(model, p, grid)
        assert np.max(np.abs(sigma - expect)) <= 1e-13 * np.max(np.diag(expect))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", _DESK_CASES, ids=lambda m: f"{m.family}-{m.r:g}")
    def test_desk_covariance_matches_dense(self, model, p):
        self._assert_close(model, p, ll.DESK_GRID)

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    def test_paper_covariance_matches_dense(self, model):
        self._assert_close(model, 2.0, ll.PAPER_GRID)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    def test_partial_tiles_match_dense(self, model, p):
        """N = 301 is not a multiple of the tile, so the last row and column
        of tiles are partial."""
        assert ODD_GRID.N % ll._TILE != 0
        self._assert_close(model, p, ODD_GRID)

    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    @pytest.mark.parametrize("grid", [ll.DESK_GRID, ll.PAPER_GRID], ids=["desk", "paper"])
    def test_covariance_is_exactly_symmetric(self, grid, model):
        sigma = ll._covariance(model, 2.0, grid)
        assert np.array_equal(sigma, sigma.T)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    @pytest.mark.parametrize("grid", [TINY, ll.DESK_GRID, ll.PAPER_GRID],
                             ids=["tiny", "desk", "paper"])
    def test_strip_tables_and_supports(self, grid, model, p):
        """Each row's declared support holds all of its dense nonzeros, and
        the staircase reproduces the dense tables."""
        N = grid.N
        R = N + 2
        a, b = lo.dense_strip_tables(model, p, grid)
        tables = ll._strip_tables(model, p, grid)
        a_stair, b_stair = _staircase_rows(tables, R)
        np.testing.assert_allclose(a[N], tables.a_pi, rtol=1e-12, atol=1e-15)
        a_off = a.copy()
        a_off[: N + 1] -= tables.a_pi
        cols = np.arange(grid.M - 1)
        for table, support in ((a_off, tables.sa), (b, tables.sb)):
            beyond = cols[None, :] >= support[:, None]
            assert not np.any((table != 0.0) & beyond)
        assert np.max(np.abs(a_stair - a_off)) <= 1e-12 * np.abs(a).max()
        assert np.max(np.abs(b_stair - b)) <= 1e-12 * np.abs(b).max()
        # a block stores no column beyond its rows' widest support
        for k0, A, B in tables.blocks:
            rows = slice(k0, k0 + A.shape[0])
            assert A.shape[1] == tables.sa[rows].max()
            assert B.shape[1] == tables.sb[rows].max()

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    @pytest.mark.parametrize("grid", [TINY, ll.DESK_GRID], ids=["tiny", "desk"])
    def test_set_masses_match_histograms(self, grid, model, p):
        """Prefix-sum gathers hold the same cells as the per-row kappa
        histograms: a cell counted on one side only would show as its mass."""
        masses = ll.cell_masses(model, grid)
        i11 = int(ll.marg_index(1.0, grid))
        got = ll._set_masses(masses, grid, p, i11)
        expect = lo.dense_set_masses(masses, grid, p, i11, i11)
        for x, y in zip(got, expect):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-18)

    def test_paper_build_memory(self):
        """The paper-grid assembly (logistic r = 0.5, p = 2) peaks below
        40 MiB of traced allocations; its result alone is 7.7 MiB."""
        model = LogisticModel(0.5)
        get_law(model, 2.0)
        tracemalloc.start()
        try:
            ll._covariance(model, 2.0, ll.PAPER_GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20, peak / 2**20


# Families and parameters of the factorization sweep; r = 0.001 is the most
# nearly singular covariance of both families.
_SWEEP = [HuslerReissModel(r) for r in (0.001, 0.01, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0)] + [
    LogisticModel(r) for r in (0.001, 0.05, 0.3, 0.5, 0.8, 0.95)
]


class TestFactor:
    """F F' reproduces Sigma up to the diagonal jitter delta."""

    @staticmethod
    def _check(model, p, grid):
        sigma = ll._covariance(model, p, grid)
        delta = ll._JITTER * sigma.diagonal().max()
        F = ll.LimitLawSimulator(model, p, grid)._F
        assert F.flags.c_contiguous and F.shape == (grid.N, grid.N)
        assert np.max(np.abs(F @ F.T - sigma)) <= 2.0 * delta
        # E[L] = sqrt(2/pi) sum_k q_cells[k] sd(X(theta_k)); the row norms of F
        # are the standard deviations of the factored law.
        q_cells = lo.q_cells(WeightKind.INV_SQRT_PI4, grid)
        mean_sigma = q_cells @ np.sqrt(sigma.diagonal())
        mean_F = q_cells @ np.linalg.norm(F, axis=1)
        assert mean_F == pytest.approx(mean_sigma, rel=1e-6)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", _SWEEP, ids=lambda m: f"{m.family}-{m.r:g}")
    def test_desk_grid(self, model, p):
        self._check(model, p, ll.DESK_GRID)

    @pytest.mark.parametrize("model", [HuslerReissModel(0.001), LogisticModel(0.001)],
                             ids=lambda m: m.family)
    def test_paper_grid_worst_cases(self, model):
        self._check(model, 1.0, ll.PAPER_GRID)

    def test_indefinite_covariance_raises(self, monkeypatch):
        sigma = np.eye(TINY.N)
        sigma[3, 3] = -0.1
        monkeypatch.setattr(ll, "_covariance", lambda *args, **kwargs: sigma.copy())
        with pytest.raises(np.linalg.LinAlgError, match=r"hr r=1\.5, p=2, grid h=0\.1 M=22 N=16"):
            ll.LimitLawSimulator(HuslerReissModel(1.5), 2.0, TINY)


class TestGridConvergence:
    @pytest.mark.parametrize("model", [LogisticModel(0.5), HuslerReissModel(1.0)],
                             ids=lambda m: m.family)
    def test_mean_converges_in_h(self, model):
        """At fixed coverage 9.9 and N = 500, halving h shrinks the change in
        the exact E[L] by at least 1.5x (roughly first order in h)."""
        means = [
            _mean_L(model, 2.0, ll.FieldGrid(h=h, M=M, N=500), WeightKind.INV_SQRT_PI4)
            for h, M in ((0.1, 100), (0.05, 199), (0.025, 397))
        ]
        assert abs(means[1] - means[0]) >= 1.5 * abs(means[2] - means[1]), means


def _no_build(*_args, **_kwargs):
    raise AssertionError("a simulator was built")


def _failing_law(*_args, **_kwargs):
    raise QuadratureError("no convergence", 1e-3)


def _fresh_cache(monkeypatch, limit=_lru.CACHE_BYTES):
    """Give the package an empty cache of laws, normal blocks and draws."""
    cache = ByteLRU(limit)
    monkeypatch.setattr(_lru, "CACHE", cache)
    return cache


class TestDraws:
    def test_thread_count_invariance(self, monkeypatch):
        model = LogisticModel(0.5)
        a = ll.simulate_L(model, 2.0, TINY, WeightKind.INV_SQRT_PI4, 32, base_seed=7, threads=1)
        _fresh_cache(monkeypatch)
        b = ll.simulate_L(model, 2.0, TINY, WeightKind.INV_SQRT_PI4, 32, base_seed=7, threads=4)
        np.testing.assert_array_equal(a, b)

    def test_replicate_values_do_not_depend_on_B(self):
        # 130 draws span two full blocks and two rows of a third; 1 and 65
        # use a single row of a block.
        model = HuslerReissModel(1.0)
        a = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 130, base_seed=9)
        for B in (1, 64, 65, 70):
            b = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, B, base_seed=9)
            np.testing.assert_array_equal(a[:B], b)

    def test_replicate_is_row_of_its_block(self):
        # replicate b is row b % 64 of the normals keyed_rng(seed, b // 64) fills
        model = HuslerReissModel(1.0)
        draws = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 130, base_seed=9)
        sim = ll.LimitLawSimulator(model, 2.0, TINY)
        q_cells = lo.q_cells(WeightKind.CONSTANT, TINY)
        for b in (0, 63, 64, 70, 129):
            eps = ll.keyed_rng(9, b // 64).standard_normal((64, TINY.N))[b % 64]
            expect = float(np.abs(sim._F @ eps) @ q_cells)
            assert draws[b] == pytest.approx(expect, rel=1e-12)

    def test_keyed_streams_are_the_philox_recipe(self):
        # block streams and the power study's data streams share one recipe
        for seed, key in ((9, (0,)), (9, (3,)), (5, (1, 7))):
            expect = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=key))).standard_normal(50)
            np.testing.assert_array_equal(ll.keyed_rng(seed, *key).standard_normal(50), expect)

    def test_negative_seed_rejected_before_any_build(self, monkeypatch):
        monkeypatch.setattr(ll, "LimitLawSimulator", _no_build)
        with pytest.raises(ValueError, match=r"^base_seed must be at least 0, got -1$"):
            ll.simulate_L(HuslerReissModel(1.0), 2.0, TINY, WeightKind.CONSTANT, 8, base_seed=-1)

    def test_seed_sensitivity(self):
        model = LogisticModel(0.5)
        a = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 8, base_seed=1)
        b = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 8, base_seed=2)
        assert not np.array_equal(a, b)

    def test_draws_positive(self):
        draws = ll.simulate_L(LogisticModel(0.5), 2.0, TINY, WeightKind.CONSTANT, 50, base_seed=3)
        assert np.all(draws >= 0.0)

    def test_quantile_order_statistic_rule(self):
        # [TRIVIAL] ceil(alpha B) rule on a known array
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        assert ll.quantile(values, 0.5) == 3.0  # ceil(2.5) = 3rd order stat
        assert ll.quantile(values, 0.9) == 5.0
        assert ll.quantile(values, 0.2) == 1.0
        # 0.55 * 100 is 55.00000000000001 in floating point; the rank is 55
        assert ll.quantile(np.arange(1.0, 101.0), 0.55) == 55.0
        with pytest.raises(ValueError):
            ll.quantile(values, 1.0)

    def test_p_value_exceedance_proportion(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert ll.p_value(values, 2.5) == 0.5
        assert ll.p_value(values, 2.0) == 0.75  # ties count as exceedances
        assert ll.p_value(values, 10.0) == 0.0


class TestNormalsMemo:
    """simulate_L memoizes its normal blocks, by (base_seed, N, j), in the
    package's one cache.  Each test starts with an empty cache."""

    @pytest.fixture
    def cache(self, monkeypatch):
        return _fresh_cache(monkeypatch)

    @pytest.fixture
    def rng_calls(self, monkeypatch):
        calls = []
        real = ll.keyed_rng

        def counting(base_seed, block):
            calls.append((base_seed, block))
            return real(base_seed, block)

        monkeypatch.setattr(ll, "keyed_rng", counting)
        return calls

    def test_same_seed_and_N_draws_no_new_normals(self, cache, rng_calls, monkeypatch):
        ll.simulate_L(HuslerReissModel(1.0), 2.0, TINY, WeightKind.CONSTANT, 130, base_seed=21)
        assert rng_calls == [(21, 0), (21, 1), (21, 2)]
        rng_calls.clear()
        model = LogisticModel(0.5)
        again = ll.simulate_L(model, 2.0, TINY, WeightKind.INV_SQRT_PI4, 130, base_seed=21)
        fewer = ll.simulate_L(model, 2.0, TINY, WeightKind.INV_SQRT_PI4, 70, base_seed=21)
        assert rng_calls == []
        _fresh_cache(monkeypatch)
        fresh = ll.simulate_L(model, 2.0, TINY, WeightKind.INV_SQRT_PI4, 130, base_seed=21)
        assert rng_calls == [(21, 0), (21, 1), (21, 2)]
        np.testing.assert_array_equal(again, fresh)
        np.testing.assert_array_equal(fewer, fresh[:70])

    def test_more_draws_extend_the_memo(self, cache, rng_calls, monkeypatch):
        model = HuslerReissModel(1.0)
        ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 70, base_seed=21)
        more = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 200, base_seed=21)
        assert rng_calls == [(21, 0), (21, 1), (21, 2), (21, 3)]
        for j in range(4):
            np.testing.assert_array_equal(cache._entries[(21, TINY.N, j)][0],
                                          keyed_rng(21, j).standard_normal((64, TINY.N)))
        _fresh_cache(monkeypatch, limit=0)  # keeps the latest entry alone
        np.testing.assert_array_equal(
            more, ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 200, base_seed=21))

    def test_stored_blocks_are_read_only(self, cache):
        ll.simulate_L(LogisticModel(0.5), 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=23)
        for j in range(2):
            block = cache._entries[(23, TINY.N, j)][0]
            np.testing.assert_array_equal(block, keyed_rng(23, j).standard_normal((64, TINY.N)))
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0.0
        assert (23, TINY.N, 2) not in cache._entries

    def test_each_seed_and_N_keeps_its_blocks(self, cache, rng_calls):
        model = LogisticModel(0.5)
        ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 130, base_seed=24)
        ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 64, base_seed=25)
        ll.simulate_L(model, 2.0, SMALL, WeightKind.CONSTANT, 64, base_seed=25)
        assert rng_calls == [(24, 0), (24, 1), (24, 2), (25, 0), (25, 0)]  # seed 25 at each N
        assert cache._entries[(25, SMALL.N, 0)][0].shape == (64, SMALL.N)
        rng_calls.clear()
        other = HuslerReissModel(1.0)
        for seed, grid in ((24, TINY), (25, TINY), (25, SMALL)):
            ll.simulate_L(other, 2.0, grid, WeightKind.CONSTANT, 64, base_seed=seed)
        assert rng_calls == []

    def test_table_nodes_share_the_normals(self, cache, rng_calls):
        # every node draws at the table's seed, so only the first draws normals
        ll.critical_value_table("hr", 2.0, TINY, WeightKind.CONSTANT, [0.8, 1.0, 1.2], (0.95,),
                                130, seed=26)
        assert rng_calls == [(26, 0), (26, 1), (26, 2)]

    def test_draws_past_the_limit_are_unchanged(self, cache, rng_calls, monkeypatch):
        models = [HuslerReissModel(r) for r in (0.8, 1.0, 1.2)]
        full = [ll.simulate_L(m, 2.0, TINY, WeightKind.CONSTANT, 300, base_seed=22)
                for m in models]
        assert rng_calls == [(22, j) for j in range(5)]
        rng_calls.clear()
        # Room for two and a half blocks; an angular law alone is larger, so
        # each build evicts every block, and each model draws all five anew.
        small = _fresh_cache(monkeypatch, limit=5 * 64 * TINY.N * 8 // 2)
        for m, expect in zip(models, full):
            np.testing.assert_array_equal(
                expect, ll.simulate_L(m, 2.0, TINY, WeightKind.CONSTANT, 300, base_seed=22))
        assert rng_calls == [(22, j) for _ in models for j in range(5)]
        assert small.nbytes <= small.limit

    def test_a_failing_build_keeps_nothing(self, cache, rng_calls, monkeypatch):
        model = HuslerReissModel(1.0)
        with monkeypatch.context() as m:
            m.setattr(ll, "_covariance", lambda *args: -np.eye(TINY.N))
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=3)
        assert rng_calls == [] and cache.nbytes == 0 and not cache._entries
        with monkeypatch.context() as m:
            m.setattr(md, "AngularLaw", _failing_law)
            with pytest.raises(QuadratureError):
                get_law(model, 2.0)
        assert cache.nbytes == 0 and not cache._entries
        assert get_law(model, 2.0) is cache._entries[(model, 2.0)][0]


class TestCriticalValueTable:
    def _table(self):
        return ll.critical_value_table(
            "logistic", 2.0, TINY, WeightKind.INV_SQRT_PI4,
            r_grid=[0.4, 0.5, 0.6], alphas=(0.9, 0.95), B=64, seed=11,
        )

    def test_round_trip_is_exact(self, tmp_path):
        table = self._table()
        path = tmp_path / "cv.json"
        table.save(path)
        loaded = ll.CriticalValueTable.load(path)
        np.testing.assert_array_equal(table.quantiles, loaded.quantiles)
        np.testing.assert_array_equal(table.r_grid, loaded.r_grid)
        assert loaded.alphas == table.alphas
        assert loaded.grid == table.grid
        assert loaded.q is table.q
        # byte-for-byte stable serialization
        again = tmp_path / "again.json"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_interp_and_clamping(self):
        table = self._table()
        v_mid = table.interp(0.45, 0.95)
        lo = table.interp(0.4, 0.95)
        hi = table.interp(0.5, 0.95)
        assert v_mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)
        assert table.interp(-3.0, 0.95) == table.interp(0.4, 0.95)
        assert table.interp(9.0, 0.95) == table.interp(0.6, 0.95)
        with pytest.raises(KeyError):
            table.interp(0.5, 0.99)

    def _load_edited(self, tmp_path, **fields):
        """Load the table's JSON report with ``fields`` replaced."""
        path = tmp_path / "cv.json"
        path.write_text(json.dumps({**self._table().to_dict(), **fields}))
        return ll.CriticalValueTable.load(path)

    @pytest.mark.parametrize("r_grid", [[0.5, 0.4, 0.6], [0.4, 0.4, 0.6], [0.4, 0.5, math.inf]],
                             ids=["unsorted", "repeated", "infinite"])
    def test_load_rejects_an_r_grid_not_increasing_and_finite(self, tmp_path, r_grid):
        with pytest.raises(ValueError, match=r"^r_grid must be strictly increasing and finite"):
            self._load_edited(tmp_path, r_grid=r_grid)

    def test_load_rejects_rows_of_the_wrong_length(self, tmp_path):
        with pytest.raises(ValueError, match=r"^quantiles must have shape \(3, 2\), got \(3, 1\)$"):
            self._load_edited(tmp_path, quantiles=[[1.0], [2.0], [3.0]])

    def test_load_rejects_an_unknown_family(self, tmp_path):
        with pytest.raises(ValueError, match=r"^unknown family 'gumbel'$"):
            self._load_edited(tmp_path, family="gumbel")

    @pytest.mark.parametrize("fields,message", [
        ({"alphas": [1.5, 1.5, 0.3]}, r"^alpha must lie in \(0, 1\), got 1\.5$"),
        ({"alphas": [0.9, 0.9]}, r"^the alphas repeat 0\.9$"),
        ({"B": -3}, r"^B must be >= 1, got -3$"),
        ({"p": math.nan}, r"^p must be >= 1, got nan$"),
        ({"seed": -4}, r"^seed must be at least 0, got -4$"),
        ({"grid": [math.nan, 22, 16]}, r"^grid h must be positive and finite, got nan$"),
        ({"grid": [0.1, 22.5, 16]}, r"^grid M must be an integer >= 3, got 22\.5$"),
        ({"grid": [0.1, 22, 16.0]}, r"^grid N must be an integer >= 2, got 16\.0$"),
        ({"quantiles": [[math.nan, 1.0], [1.0, 1.0], [1.0, 1.0]]}, r"^quantiles must be finite$"),
        ({"B": 2.5}, r"^B must be an integer >= 1, got 2\.5$"),
        ({"seed": 1.5}, r"^seed must be an integer >= 0, got 1\.5$"),
    ], ids=["alphas-range", "alphas-repeated", "B", "p", "seed", "grid-h", "grid-M", "grid-N",
            "quantiles", "B-not-integer", "seed-not-integer"])
    def test_load_rejects_a_malformed_field(self, tmp_path, fields, message):
        with pytest.raises(ValueError, match=message):
            self._load_edited(tmp_path, **fields)

    @pytest.mark.parametrize("h,M,N", [(math.nan, 200, 500), (math.inf, 200, 500), (0.0, 200, 500),
                                       (0.05, 200.5, 500), (0.05, 200, 500.0), (0.05, 2, 500),
                                       (0.05, 200, 1)])
    def test_field_grid_rejects_a_malformed_grid(self, h, M, N):
        with pytest.raises(ValueError, match=r"^grid [hMN] must be"):
            ll.FieldGrid(h, M, N)

    def test_constructor_checks_too(self):
        table = self._table()
        with pytest.raises(ValueError, match=r"^quantiles must have shape"):
            ll.CriticalValueTable(**{**vars(table), "quantiles": table.quantiles[:2]})

    def test_negative_seed_rejected_before_any_build(self, monkeypatch):
        monkeypatch.setattr(ll, "LimitLawSimulator", _no_build)
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            ll.critical_value_table("hr", 2.0, TINY, WeightKind.CONSTANT, [1.0], (0.9,), 20, seed=-1)

    def test_quantiles_match_direct_simulation(self):
        table = self._table()
        draws = ll.simulate_L(
            LogisticModel(0.5), 2.0, TINY, WeightKind.INV_SQRT_PI4, 64, base_seed=11,
        )
        assert table.interp(0.5, 0.95) == ll.quantile(draws, 0.95)

    def test_node_row_does_not_depend_on_the_other_nodes(self, monkeypatch):
        _fresh_cache(monkeypatch)
        both = ll.critical_value_table("logistic", 2.0, TINY, WeightKind.INV_SQRT_PI4,
                                       [0.4, 0.5], (0.9, 0.95), B=100, seed=12)
        _fresh_cache(monkeypatch)
        alone = ll.critical_value_table("logistic", 2.0, TINY, WeightKind.INV_SQRT_PI4,
                                        [0.5], (0.9, 0.95), B=100, seed=12)
        np.testing.assert_array_equal(both.quantiles[1], alone.quantiles[0])

    def test_every_row_is_a_direct_quantile(self, monkeypatch):
        # each node's row, at every level, is the quantile of simulate_L at
        # the table's own seed, bit for bit, also from a cold cache
        alphas = (0.5, 0.9, 0.95)
        table = ll.critical_value_table("hr", 2.0, TINY, WeightKind.CONSTANT,
                                        [0.6, 1.0, 1.4], alphas, B=130, seed=13)
        for r, row in zip(table.r_grid, table.quantiles):
            _fresh_cache(monkeypatch)
            draws = ll.simulate_L(HuslerReissModel(r), 2.0, TINY, WeightKind.CONSTANT, 130,
                                  base_seed=13)
            assert row.tolist() == [ll.quantile(draws, a) for a in alphas]


class TestDrawsCache:
    """simulate_L keeps its draws by its whole input, and no factor."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Each build's simulator and factor, held by weak reference only."""
        built = []
        real = ll.LimitLawSimulator

        def counting(*args, **kwargs):
            sim = real(*args, **kwargs)
            built.append((weakref.ref(sim), weakref.ref(sim._F)))
            return sim

        monkeypatch.setattr(ll, "LimitLawSimulator", counting)
        _fresh_cache(monkeypatch)
        return built

    def test_builds_through_the_module_attribute(self, builds):
        model = LogisticModel(0.45)
        ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 8, base_seed=3)
        assert len(builds) == 1

    def test_repeated_call_builds_once_and_is_read_only(self, builds):
        model = HuslerReissModel(1.0)
        first = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=3)
        again = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=3, threads=2)
        assert again is first and len(builds) == 1
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert _lru.CACHE._entries[(model, 2.0, TINY, WeightKind.CONSTANT, 100, 3)][0] is first

    @pytest.mark.parametrize("change", [
        {"model": LogisticModel(0.5)}, {"p": 1.5}, {"grid": ll.FieldGrid(h=0.1, M=22, N=18)},
        {"q": WeightKind.INV_SQRT_PI4}, {"B": 99}, {"base_seed": 4},
    ], ids=["model", "p", "grid", "q", "B", "base_seed"])
    def test_each_input_keys_the_draws(self, builds, monkeypatch, change):
        base = {"model": HuslerReissModel(1.0), "p": 2.0, "grid": TINY,
                "q": WeightKind.CONSTANT, "B": 100, "base_seed": 3}
        first = ll.simulate_L(**base)
        other = ll.simulate_L(**{**base, **change})
        assert len(builds) == 2 and other is not first
        _fresh_cache(monkeypatch)
        np.testing.assert_array_equal(other, ll.simulate_L(**{**base, **change}))
        assert len(builds) == 3

    def test_non_finite_draws_raise_and_are_not_kept(self, builds, monkeypatch):
        model = HuslerReissModel(1.0)
        with monkeypatch.context() as m:
            m.setattr(g, "weight_q_cell_integral", lambda q, lo, hi: np.full(np.shape(lo), np.nan))
            with pytest.raises(np.linalg.LinAlgError,
                               match=r"not all finite for hr r=1, p=2, grid h=0\.1 M=22 N=16"):
                ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=3)
        assert (model, 2.0, TINY, WeightKind.CONSTANT, 100, 3) not in _lru.CACHE._entries
        draws = ll.simulate_L(model, 2.0, TINY, WeightKind.CONSTANT, 100, base_seed=3)
        assert np.isfinite(draws).all() and len(builds) == 2

    def test_no_factor_outlives_the_call(self, builds):
        ll.simulate_L(LogisticModel(0.5), 2.0, TINY, WeightKind.CONSTANT, 70, base_seed=3)
        assert len(builds) == 1
        assert [ref() for ref in builds[0]] == [None, None]
