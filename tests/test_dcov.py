import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffmdp.core import TrajectoryDataset
from suffmdp.dcov import (
    InsufficientDataError,
    _centered_distances,
    _PermutedSample,
    draw_permuted_side,
    pooled_pvalue,
    stratified_pooled_test,
)
from suffmdp.rng import substream
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def brute_force_dcov(x, y):
    """Definitional double-centered double sum, written as plain loops."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 1:
        x = x.T
    if y.shape[0] == 1:
        y = y.T
    m = x.shape[0]
    a = np.zeros((m, m))
    b = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            a[j, k] = np.linalg.norm(x[j] - x[k])
            b[j, k] = np.linalg.norm(y[j] - y[k])

    def center(d):
        out = np.zeros_like(d)
        for j in range(m):
            for k in range(m):
                out[j, k] = d[j, k] - d[j].mean() - d[:, k].mean() + d.mean()
        return out

    a_c, b_c = center(a), center(b)
    total = 0.0
    for j in range(m):
        for k in range(m):
            total += a_c[j, k] * b_c[j, k]
    return total / (m * m)


class TestCenteredDistances:
    @pytest.mark.parametrize("columns", range(1, 14))
    def test_bit_identical_to_centred_cdist(self, columns):
        # scipy is the reference here only; the package computes the
        # distances with numpy in cdist's order of operations
        from scipy.spatial.distance import cdist

        rng = substream(columns)
        for case in range(40):
            m = int(rng.integers(2, 41))
            x = rng.standard_normal((m, columns)) * 10.0 ** rng.uniform(-100, 100)
            if case % 2:
                x[rng.integers(1, m)] = x[0]  # tied rows
            d = cdist(x, x)
            want = d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()
            assert _centered_distances(x).tobytes() == want.tobytes()


def _sample(v):
    """A one-dimensional sample as one column."""
    v = np.asarray(v, dtype=np.float64)
    return v[:, None] if v.ndim == 1 else v


def dcov_statistic(x, y):
    """The observed statistic of a permutation test of ``x`` against ``y``."""
    return _PermutedSample(_sample(y), 1, substream(0)).statistics(_sample(x))[0]


def permutation_pvalue(x, y, n_permutations, seed):
    """``(statistic, p_value)`` of the test of ``x`` against ``y`` whose
    permutations come from ``substream(seed)``, as a stratum's do."""
    return _PermutedSample(_sample(y), n_permutations, substream(seed)).test(_sample(x))


class TestDcovStatistic:
    def test_constant_y_gives_zero(self):
        x = np.arange(6.0)
        y = np.full(6, 3.14)
        assert dcov_statistic(x, y) == 0.0

    def test_matches_brute_force_small_case(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert dcov_statistic(x, x) == pytest.approx(brute_force_dcov(x, x), abs=1e-12)

    def test_scales_exactly_with_y(self):
        rng = substream(5)
        x = rng.normal(size=(12, 2))
        base = dcov_statistic(x, x)
        for c in (2.0, 0.5, 4.0):  # powers of two scale without roundoff
            assert dcov_statistic(x, c * x) == c * base

    def test_scaling_near_exact_for_general_factor(self):
        rng = substream(6)
        x = rng.normal(size=(10, 1))
        assert dcov_statistic(x, 3.0 * x) == pytest.approx(
            3.0 * dcov_statistic(x, x), rel=1e-12
        )

    def test_matches_brute_force_on_random_instances(self):
        rng = substream(7)
        for _ in range(100):
            m = int(rng.integers(2, 21))
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            x = rng.normal(size=(m, d1))
            y = x[:, :1] * rng.normal(size=(m, d2)) + rng.normal(size=(m, d2))
            assert dcov_statistic(x, y) == pytest.approx(
                brute_force_dcov(x, y), abs=1e-12
            )

    def test_nonnegative_and_translation_invariant(self):
        rng = substream(8)
        for _ in range(20):
            x = rng.normal(size=(9, 2))
            y = rng.normal(size=(9, 3))
            v = dcov_statistic(x, y)
            assert v >= 0.0
            shifted = dcov_statistic(x + 17.0, y - 3.0)
            assert shifted == pytest.approx(v, abs=1e-12)


class TestPermutationPvalue:
    def test_perfect_dependence_reaches_minimum(self):
        rng = substream(9)
        x = rng.normal(size=(50, 1))
        _, p_value = permutation_pvalue(x, x, 199, seed=3)
        assert p_value == pytest.approx(1 / 200)

    def test_single_permutation_p_in_half_or_one(self):
        rng = substream(10)
        for seed in range(10):
            x = rng.normal(size=(8, 1))
            y = rng.normal(size=(8, 1))
            _, p_value = permutation_pvalue(x, y, 1, seed)
            assert p_value in (0.5, 1.0)

    def test_identity_draws_count_as_ties(self):
        # At m=5 about one draw in 120 is the identity permutation; each
        # reproduces the observed statistic up to summation order and must
        # count as a tie.
        m, b = 5, 999
        for seed in range(20):
            x = substream(500 + seed).normal(size=(m, 2))
            _, p_value = permutation_pvalue(x, x, b, seed)
            perms = np.argsort(substream(seed).random((b, m)), axis=1)
            identity = int(np.all(perms == np.arange(m), axis=1).sum())
            assert p_value >= (1 + identity) / (b + 1)

    def test_one_column_identity_draws_count_as_ties(self):
        # A one-column x is tested under perm o sigma^-1, which is the
        # identity when the drawn perm equals x's sort order sigma.
        m, b = 5, 999
        for seed in range(20):
            x = substream(500 + seed).normal(size=(m, 1))
            _, p_value = permutation_pvalue(x, x, b, seed)
            perms = np.argsort(substream(seed).random((b, m)), axis=1)
            sigma = np.argsort(x[:, 0], kind="stable")
            identity = int(np.all(perms == sigma, axis=1).sum())
            assert p_value >= (1 + identity) / (b + 1)

    def test_level_under_independence(self):
        # 200 replicates of independent Gaussians: rejection rate at 0.1
        # should sit near 0.1.
        rejections = 0
        for rep in range(200):
            rng = substream(1000 + rep)
            x = rng.normal(size=(30, 1))
            y = rng.normal(size=(30, 1))
            _, p_value = permutation_pvalue(x, y, 199, seed=rep)
            rejections += p_value <= 0.1
        assert 0.05 <= rejections / 200 <= 0.15

    def test_deterministic_given_seed(self):
        rng = substream(11)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2))
        assert permutation_pvalue(x, y, 99, seed=42) == permutation_pvalue(x, y, 99, seed=42)

    def test_pvalue_invariant_to_positive_scaling(self):
        rng = substream(12)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=(25, 1))
        _, base = permutation_pvalue(x, y, 199, seed=9)
        for c in (2.0, 8.0, 0.25):
            assert permutation_pvalue(c * x, y, 199, seed=9)[1] == base


class TestPooledPvalue:
    def test_bonferroni_case(self):
        assert pooled_pvalue([0.02, 0.5, 0.3, 0.7, 0.9], u=1) == pytest.approx(0.10)

    def test_default_order_rule(self):
        # floor(T/20) + 1 at T=90 gives 5; pooled = 90 * p_(5) / 5
        rng = substream(14)
        ds = _dataset_with_columns(
            rng.normal(size=(6, 91)), rng.normal(size=(6, 91)), np.ones((6, 90), dtype=int)
        )
        side = draw_permuted_side(ds.states[:, :-1, 1], ds, n_permutations=9, seed=1)
        assert stratified_pooled_test(ds.states[:, :-1, 0], side).pooled_u == 5
        ps = [0.004] * 5 + [0.5] * 85
        assert pooled_pvalue(ps, u=5) == pytest.approx(90 * 0.004 / 5)

    def test_all_ones_capped(self):
        assert pooled_pvalue([1.0, 1.0, 1.0], u=2) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pooled_pvalue([], u=1)
        with pytest.raises(ValueError):
            pooled_pvalue([0.5, 1.2], u=1)
        with pytest.raises(ValueError):
            pooled_pvalue([0.5, 0.5], u=3)

    @settings(max_examples=60, deadline=None)
    @given(
        ps=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_monotone_and_order_invariant(self, ps, data):
        u = data.draw(st.integers(min_value=1, max_value=len(ps)))
        base = pooled_pvalue(ps, u)
        shuffled = list(ps)
        order = data.draw(st.permutations(range(len(ps))))
        assert pooled_pvalue([shuffled[i] for i in order], u) == base
        idx = data.draw(st.integers(min_value=0, max_value=len(ps) - 1))
        bumped = list(ps)
        bumped[idx] = min(1.0, bumped[idx] + data.draw(
            st.floats(min_value=0, max_value=1 - bumped[idx])
        ))
        assert pooled_pvalue(bumped, u) >= base


def _dataset_with_columns(g_col, h_col, actions, utilities=None):
    """Two-column dataset whose screening inputs are the given arrays."""
    n, t_plus_1 = g_col.shape
    states = np.stack([g_col, h_col], axis=2)
    if utilities is None:
        utilities = np.zeros((n, t_plus_1 - 1))
    return TrajectoryDataset(
        states=states, actions=actions, utilities=utilities, n_actions=int(actions.max())
    )


class TestStratifiedPooledTest:
    def test_single_time_single_action_equals_single_p(self):
        rng = substream(20)
        g = rng.normal(size=(30, 2))
        h = rng.normal(size=(30, 2))
        actions = np.ones((30, 1), dtype=int)
        ds = _dataset_with_columns(g, h, actions)
        side = draw_permuted_side(ds.states[:, :-1, 1], ds, n_permutations=99, seed=3)
        report = stratified_pooled_test(ds.states[:, :-1, 0], side)
        assert len(report.strata) == 1
        assert report.p_value == report.strata[0].p_value
        assert report.pooled_u == 1

    def test_report_serializes(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", signal_dim=4), 20, 4, rng=1)
        side = draw_permuted_side(ds.states[:, :-1], ds, n_permutations=19, seed=2)
        report = stratified_pooled_test(ds.utilities, side, tau=0.1)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert set(payload) == {"statistic", "p_value", "strata", "u", "B", "seed", "reject"}
        assert (payload["B"], payload["seed"]) == (19, 2)
        assert payload["reject"] is report.reject
        assert isinstance(report.reject, bool)
        assert len(payload["strata"]) == len(report.strata)

    def test_null_level_with_time_dependence(self):
        # G and H are independent of each other but each is a random walk
        # over time, so per-time p-values are dependent; pooling must stay
        # valid for both u = 1 and the default order.
        horizon = 40
        rejections = {"u=1": 0, "default": 0}
        for rep in range(200):
            rng = substream(3000 + rep)
            g = np.cumsum(rng.normal(size=(20, horizon + 1)), axis=1)
            h = np.cumsum(rng.normal(size=(20, horizon + 1)), axis=1)
            actions = np.ones((20, horizon), dtype=int)
            ds = _dataset_with_columns(g, h, actions)
            side = draw_permuted_side(
                ds.states[:, :-1, 1], ds, n_permutations=39, seed=rep
            )
            report = stratified_pooled_test(ds.states[:, :-1, 0], side)
            # one action level: the strata are the per-time tests
            rejections["u=1"] += pooled_pvalue([s.p_value for s in report.strata], 1) <= 0.1
            rejections["default"] += report.p_value <= 0.1
        assert report.pooled_u == 3
        for count in rejections.values():
            assert count / 200 <= 0.15

    def test_power_against_utility_dependence(self):
        # Utility depends on the first state coordinate by construction.
        rejections = 0
        for rep in range(20):
            ds = sample_trajectories(GenerativeModelSpec("linear", 0), 30, 90, rng=rep)
            side = draw_permuted_side(
                ds.states[:, :-1, 0], ds, n_permutations=999, seed=rep
            )
            report = stratified_pooled_test(ds.utilities, side, tau=0.1)
            rejections += report.p_value <= 0.1
        assert rejections >= 18

    def test_insufficient_strata_raises(self):
        rng = substream(21)
        g = rng.normal(size=(4, 3))
        h = rng.normal(size=(4, 3))
        actions = np.ones((4, 2), dtype=int)
        ds = _dataset_with_columns(g, h, actions)
        with pytest.raises(InsufficientDataError):
            draw_permuted_side(ds.states[:, :-1, 1], ds, min_stratum=5)

    def test_small_strata_excluded_from_bonferroni(self):
        rng = substream(22)
        g = rng.normal(size=(12, 2))
        h = rng.normal(size=(12, 2))
        actions = np.concatenate(
            [np.ones((10, 1), dtype=int), np.full((2, 1), 2, dtype=int)]
        )
        ds = _dataset_with_columns(g, h, actions)
        side = draw_permuted_side(
            ds.states[:, :-1, 1], ds, n_permutations=99, seed=0, min_stratum=5
        )
        report = stratified_pooled_test(ds.states[:, :-1, 0], side)
        assert [s.action for s in report.strata] == [1]


class TestStratifiedArrayContract:
    @staticmethod
    def _two_action_data():
        rng = substream(23)
        n, horizon = 24, 3
        actions = np.tile(np.repeat([1, 2], n // 2)[:, None], (1, horizon))
        ds = _dataset_with_columns(
            rng.normal(size=(n, horizon + 1)), rng.normal(size=(n, horizon + 1)), actions
        )
        g = rng.normal(size=(n, horizon, 2))
        h = ds.states[:, :-1]
        return ds, g, h

    def test_nan_in_untested_action_rows_accepted(self):
        ds, g, h = self._two_action_data()
        g[ds.actions == 2] = np.nan
        side = draw_permuted_side(h, ds, n_permutations=19, actions=[1])
        report = stratified_pooled_test(g, side)
        assert {s.action for s in report.strata} == {1}
        assert np.isfinite(report.p_value)

    def test_nan_in_tested_row_rejected(self):
        ds, g, h = self._two_action_data()
        g[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            stratified_pooled_test(g, draw_permuted_side(h, ds, n_permutations=19))
        with pytest.raises(ValueError, match="non-finite"):
            side = draw_permuted_side(h, ds, n_permutations=19, actions=[ds.actions[0, 1]])
            stratified_pooled_test(g, side)
        with pytest.raises(ValueError, match="non-finite"):
            draw_permuted_side(g, ds, n_permutations=19)

    def test_shape_mismatch_rejected(self):
        ds, g, h = self._two_action_data()
        for bad in (g[:, :-1], g[:-1], g[:, 0, 0], g[..., None]):
            with pytest.raises(ValueError, match="shape"):
                stratified_pooled_test(bad, draw_permuted_side(h, ds, n_permutations=19))
            with pytest.raises(ValueError, match="shape"):
                draw_permuted_side(bad, ds, n_permutations=19)

    def test_untestable_settings_rejected(self):
        # a stratum needs two rows for a distance, and a test one permutation
        ds, _, h = self._two_action_data()
        with pytest.raises(ValueError, match="min_stratum must be >= 2"):
            draw_permuted_side(h, ds, min_stratum=1)
        with pytest.raises(ValueError, match="n_permutations must be >= 1"):
            draw_permuted_side(h, ds, n_permutations=0)

    def _check_each_stratum_equals_single_test(self, width):
        ds, g, h = self._two_action_data()
        g = g[..., :width]
        seed, key = 11, (4, 7)
        side = draw_permuted_side(h, ds, n_permutations=49, seed=seed, key=key)
        report = stratified_pooled_test(g, side)
        assert len(report.strata) == ds.horizon * 2
        for s in report.strata:
            rows = ds.actions[:, s.t - 1] == s.action
            single = _PermutedSample(h[rows, s.t - 1], 49, substream(seed, *key, s.t, s.action))
            assert s.sample_size == rows.sum()
            assert (s.statistic, s.p_value) == single.test(g[rows, s.t - 1])

    def test_each_stratum_equals_single_test_on_its_rows(self):
        self._check_each_stratum_equals_single_test(width=2)

    def test_each_one_column_stratum_equals_single_test_on_its_rows(self):
        self._check_each_stratum_equals_single_test(width=1)


class TestPermutedSample:
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_cut_kernel_equals_direct_permuted_statistic(self, ties):
        rng = substream(24)
        m, b = 13, 200
        x = rng.normal(size=(m, 1))
        if ties:
            x = np.round(x * 2) / 2  # a handful of distinct values
            assert len(np.unique(x)) < m
        y = x * rng.normal(size=(m, 2)) + rng.normal(size=(m, 2))
        sample = _PermutedSample(y, b, substream(25))
        observed, permuted = sample.statistics(x)
        a = np.abs(x - x.T)
        a = a - a.mean(axis=0) - a.mean(axis=1, keepdims=True) + a.mean()
        inverse_sort = np.argsort(np.argsort(x[:, 0], kind="stable"))
        direct = [
            np.mean(a * sample.b[tau][:, tau]) for tau in sample.perms[:, inverse_sort]
        ]
        assert observed == pytest.approx(brute_force_dcov(x, y), abs=1e-12)
        np.testing.assert_allclose(permuted, direct, rtol=0, atol=1e-12)

    def test_side_holds_order_b_m_per_stratum(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", 4), 30, 4, rng=1)
        response = np.concatenate([ds.utilities[:, :, None], ds.states[:, 1:, :2]], axis=2)
        b = 999
        side = draw_permuted_side(response, ds, n_permutations=b, seed=1, key=(1,))
        stratified_pooled_test(ds.states[:, :-1, 3], side)  # builds every cut
        for _, _, rows, sample in side.strata:
            m = int(rows.sum())
            arrays = [v for v in vars(sample).values() if isinstance(v, np.ndarray)]
            assert {"b", "perms", "cut"} <= set(vars(sample))
            assert all(arr.size < b * m * m for arr in arrays)
            assert sum(arr.nbytes for arr in arrays) <= 8 * (2 * b * m + m * m)
