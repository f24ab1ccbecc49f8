import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffmdp import dcov
from suffmdp.core import TrajectoryDataset
from suffmdp.dcov import (
    _TIE_RTOL,
    InsufficientDataError,
    _centered_distances,
    _p_value,
    _PermutedSample,
    _pool,
    draw_permuted_side,
    observe_candidates,
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


def statistics(sample, x):
    """``(observed, permuted)`` statistics of a validated 2-D sample ``x``
    against ``sample``: `observe` and `permuted` on a batch of one."""
    observed, keys = sample.observe(x[None])
    return observed[0], sample.permuted(keys[0])


def single_test(sample, x):
    """``(statistic, p_value)`` of the permutation test of ``x`` against ``sample``."""
    observed, permuted = statistics(sample, x)
    return observed, _p_value(observed, permuted)


def dcov_statistic(x, y):
    """The observed statistic of a permutation test of ``x`` against ``y``."""
    return statistics(_PermutedSample(_sample(y), 1, substream(0)), _sample(x))[0]


def permutation_pvalue(x, y, n_permutations, seed):
    """``(statistic, p_value)`` of the test of ``x`` against ``y`` whose
    permutations come from ``substream(seed)``, as a stratum's do."""
    return single_test(_PermutedSample(_sample(y), n_permutations, substream(seed)),
                       _sample(x))


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
        assert _pool(np.array([0.02, 0.5, 0.3, 0.7, 0.9]), u=1) == pytest.approx(0.10)

    def test_default_order_rule(self):
        # floor(T/20) + 1 at T=90 gives 5; pooled = 90 * p_(5) / 5
        rng = substream(14)
        ds = _dataset_with_columns(
            rng.normal(size=(6, 91)), rng.normal(size=(6, 91)), np.ones((6, 90), dtype=int)
        )
        side = draw_permuted_side(ds.states[:, :-1, 1], ds, n_permutations=9, seed=1)
        assert stratified_pooled_test(ds.states[:, :-1, 0], side).pooled_u == 5
        ps = [0.004] * 5 + [0.5] * 85
        assert _pool(np.array(ps), u=5) == pytest.approx(90 * 0.004 / 5)

    def test_all_ones_capped(self):
        assert _pool(np.array([1.0, 1.0, 1.0]), u=2) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        ps=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_monotone_and_order_invariant(self, ps, data):
        u = data.draw(st.integers(min_value=1, max_value=len(ps)))
        base = _pool(np.array(ps), u)
        shuffled = list(ps)
        order = data.draw(st.permutations(range(len(ps))))
        assert _pool(np.array([shuffled[i] for i in order]), u) == base
        idx = data.draw(st.integers(min_value=0, max_value=len(ps) - 1))
        bumped = list(ps)
        bumped[idx] = min(1.0, bumped[idx] + data.draw(
            st.floats(min_value=0, max_value=1 - bumped[idx])
        ))
        assert _pool(np.array(bumped), u) >= base


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
            rejections["u=1"] += _pool(np.array([s.p_value for s in report.strata]), 1) <= 0.1
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
            report = stratified_pooled_test(ds.utilities, side)
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


    def test_p_value_is_pooled_pvalue_of_its_per_time_p_values(self):
        # the report pools the Bonferroni-combined per-time p-values, here
        # with two action levels and u = 2
        rng = substream(24)
        g, h = rng.normal(size=(24, 23)), rng.normal(size=(24, 23))
        actions = rng.integers(1, 3, size=(24, 22))
        ds = _dataset_with_columns(g, h, actions)
        side = draw_permuted_side(ds.states[:, :-1, 1], ds, n_permutations=19, seed=5,
                                  min_stratum=3)
        report = stratified_pooled_test(ds.states[:, :-1, 0], side)
        by_time = {}
        for s in report.strata:
            by_time.setdefault(s.t, []).append(s.p_value)
        per_time = [min(1.0, len(ps) * min(ps)) for ps in by_time.values()]
        assert len(per_time) == 22 and report.pooled_u == 2
        assert any(len(ps) == 2 for ps in by_time.values())
        pooled = _pool(np.array(per_time), report.pooled_u)
        assert report.p_value == pooled and type(report.p_value) is type(pooled)


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
            assert (s.statistic, s.p_value) == single_test(single, g[rows, s.t - 1])

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
        observed, permuted = statistics(sample, x)
        a = np.abs(x - x.T)
        a = a - a.mean(axis=0) - a.mean(axis=1, keepdims=True) + a.mean()
        inverse_sort = np.argsort(np.argsort(x[:, 0], kind="stable"))
        direct = [
            np.mean(a * sample.b[tau][:, tau]) for tau in sample.perms[:, inverse_sort]
        ]
        assert observed == pytest.approx(brute_force_dcov(x, y), abs=1e-12)
        np.testing.assert_allclose(permuted, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("m", [5, 13, 18])
    def test_cut_equals_fancy_index_formulation_bit_for_bit(self, m, ties):
        # `cut` as first written, gathering each column with a 2-D fancy
        # index; the gathers read the same entries, so the sums are equal
        y = substream(26, m).normal(size=(m, 2))
        if ties:
            y[-2:] = y[:2]  # repeated rows, so repeated distances
        sample = _PermutedSample(y, 150, substream(27, m))
        perms = sample.perms
        want = np.empty((len(perms), m - 1))
        lead = np.zeros(len(perms))
        for k in range(m - 1):
            col = sample.b[perms[:, : k + 1], perms[:, k : k + 1]]
            lead += 2.0 * col.sum(axis=1) - col[:, k]
            want[:, k] = -2.0 * lead
        assert sample.cut.tobytes() == want.tobytes()

    def test_side_holds_order_b_m_per_stratum(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", 4), 30, 4, rng=1)
        response = np.concatenate([ds.utilities[:, :, None], ds.states[:, 1:, :2]], axis=2)
        b = 999
        side = draw_permuted_side(response, ds, n_permutations=b, seed=1, key=(1,))
        stratified_pooled_test(ds.states[:, :-1, 3], side)  # builds every cut
        for *_, sample in side.strata:
            m = sample.b.shape[0]
            arrays = [v for v in vars(sample).values() if isinstance(v, np.ndarray)]
            assert {"b", "perms", "cut"} <= set(vars(sample))
            assert all(arr.size < b * m * m for arr in arrays)
            assert sum(arr.nbytes for arr in arrays) <= 8 * (2 * b * m + m * m)


def reference_centered_distances(x):
    """`_centered_distances` as first written: squares added to zeros, then
    centred with `np.mean`."""
    d = np.zeros((x.shape[0], x.shape[0]))
    for col in x.T:
        diff = col[:, None] - col[None, :]
        diff *= diff
        d += diff
    np.sqrt(d, out=d)
    return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()


def reference_statistics(sample, x):
    """`statistics` as first written: `np.mean` of the
    product, one column's gaps from an argsort, a gather and `np.diff`, and
    several columns' permuted matrices in one 2-D fancy index."""
    a = reference_centered_distances(x)
    m = a.shape[0]
    observed = max(0.0, float(np.mean(a * sample.b)))
    if x.shape[1] == 1:
        gaps = np.diff(x[np.argsort(x[:, 0], kind="stable"), 0])
        return observed, sample.cut @ gaps / (m * m)
    b_perm = sample.b[sample.perms[:, :, None], sample.perms[:, None, :]]
    return observed, np.einsum("ij,bij->b", a, b_perm) / (m * m)


class TestStatisticsEqualReferenceFormulation:
    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_bit_for_bit(self, columns):
        rng = substream(28, columns)
        for m in range(2, 41):
            for case in range(4):
                scale = 10.0 ** rng.uniform(-100, 100)
                x = rng.standard_normal((m, columns)) * scale
                y = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-100, 100)
                if case == 1:
                    x[rng.integers(1, m)] = x[0]  # tied rows
                    y[rng.integers(1, m)] = y[0]
                if case == 2:
                    x[0], x[-1] = 0.0, -0.0  # ties that a sort may reorder
                if case == 3:
                    # a constant column of signed zeros: every gap is a zero
                    # whose sign follows the sort order
                    x = np.where(rng.random((m, columns)) < 0.5, 0.0, -0.0)
                sample = _PermutedSample(y, 40, substream(29, m, case))
                assert sample.b.tobytes() == reference_centered_distances(y).tobytes()
                observed, permuted = statistics(sample, x)
                want_observed, want_permuted = reference_statistics(sample, x)
                assert permuted.shape == (40,)
                assert observed.hex() == want_observed.hex()
                assert permuted.tobytes() == want_permuted.tobytes()
                exceed = np.count_nonzero(
                    want_permuted >= want_observed - _TIE_RTOL * want_observed
                )
                want_p = (1 + int(exceed)) / 41
                assert single_test(sample, x) == (observed, want_p)


def _candidate_columns(rng, m, c, case):
    """An ``(m, c)`` block of one-column candidates for the batch tests."""
    cols = rng.standard_normal((m, c)) * 10.0 ** rng.uniform(-100, 100, size=c)
    if case == "tied rows" and m > 2:
        cols[rng.integers(1, m, size=c), np.arange(c)] = cols[0]
    if case == "signed zeros":
        cols[0], cols[-1] = 0.0, -0.0  # ties that a sort may reorder
        # every third candidate a column of signed zeros only
        cols[:, ::3] = np.where(rng.random(cols[:, ::3].shape) < 0.5, 0.0, -0.0)
    if case == "constant column" and c:
        cols[:, 0] = 1.5
    return cols


class TestObserveBatch:
    """`_PermutedSample.observe` on a batch gives every candidate the bits of
    scoring it alone, however the batch is chunked and laid out."""

    CASES = ["distinct", "tied rows", "signed zeros", "constant column"]

    @staticmethod
    def _alone(sample, x):
        observed, permuted = statistics(sample, x)
        return observed.hex(), permuted.tobytes(), single_test(sample, x)[1]

    @staticmethod
    def _batched(sample, xs):
        observed, keys = sample.observe(xs)
        out = []
        for obs, key in zip(observed, keys):
            permuted = sample.permuted(key)
            out.append((obs.hex(), permuted.tobytes(), _p_value(obs, permuted)))
        return out

    @pytest.mark.parametrize("chunking", ["default", "one per chunk", "uneven"])
    @pytest.mark.parametrize("c", [0, 1, 2, 64])
    def test_each_candidate_equals_scoring_it_alone(self, c, chunking, monkeypatch):
        rng = substream(30, c)
        for m in range(2, 41):
            for case in self.CASES:
                y = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-100, 100)
                sample = _PermutedSample(y, 40, substream(31, m))
                cols = _candidate_columns(rng, m, c, case)
                want = [self._alone(sample, cols[:, [i]]) for i in range(c)]
                if chunking == "one per chunk":
                    monkeypatch.setattr(dcov, "_PERM_CHUNK_FLOATS", 1)
                elif chunking == "uneven":
                    # chunks of 3 candidates: 64 splits as 21 * 3 + 1
                    monkeypatch.setattr(dcov, "_PERM_CHUNK_FLOATS", 3 * m * m)
                # the (c, m) block as a transposed, Fortran-ordered view, as a
                # gather of a stratum's rows gives it, and as a C-ordered copy
                for xs in (cols.T[:, :, None], np.ascontiguousarray(cols.T)[:, :, None]):
                    assert self._batched(sample, xs) == want
                monkeypatch.undo()

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_several_columns_each_equals_scoring_it_alone(self, c, monkeypatch):
        rng = substream(32, c)
        monkeypatch.setattr(dcov, "_PERM_CHUNK_FLOATS", 2 * 13 * 13)
        for m in (2, 7, 13, 20):
            y = rng.standard_normal((m, 1))
            sample = _PermutedSample(y, 40, substream(33, m))
            xs = rng.standard_normal((c, m, 3))
            xs[:, -1] = xs[:, 0]  # tied rows
            want = [self._alone(sample, x) for x in xs]
            assert self._batched(sample, xs) == want
            assert self._batched(sample, np.asfortranarray(xs)) == want


class TestObserveCandidates:
    def test_each_candidate_equals_its_array_test(self):
        rng = substream(34)
        n, horizon = 30, 5
        actions = rng.integers(1, 3, size=(n, horizon))
        ds = _dataset_with_columns(rng.normal(size=(n, horizon + 1)),
                                   rng.normal(size=(n, horizon + 1)), actions)
        g = rng.normal(size=(n, horizon, 6))
        g[:, :, 2] = 0.0  # a constant candidate
        side = draw_permuted_side(ds.states[:, :-1, 1], ds, n_permutations=49, seed=2,
                                  min_stratum=3)
        candidates = observe_candidates(g, side)
        assert [c.index for c in candidates] == list(range(6))
        for i, candidate in enumerate(candidates):
            assert stratified_pooled_test(candidate, side) == stratified_pooled_test(
                g[:, :, i], side)
        (one,) = observe_candidates(g[:, :, 0], side)
        assert stratified_pooled_test(one, side) == stratified_pooled_test(candidates[0], side)
        assert observe_candidates(g[:, :, :0], side) == []

    def test_candidate_of_another_side_rejected(self):
        rng = substream(35)
        ds = _dataset_with_columns(rng.normal(size=(12, 3)), rng.normal(size=(12, 3)),
                                   np.ones((12, 2), dtype=int))
        h = ds.states[:, :-1, 1]
        side = draw_permuted_side(h, ds, n_permutations=9, seed=1)
        other = draw_permuted_side(h, ds, n_permutations=9, seed=1)
        (candidate,) = observe_candidates(ds.states[:, :-1, 0], side)
        with pytest.raises(ValueError, match="another side"):
            stratified_pooled_test(candidate, other)

    def test_invalid_block_rejected_before_any_stratum(self):
        ds, g, h = TestStratifiedArrayContract._two_action_data()
        side = draw_permuted_side(h, ds, n_permutations=19)
        bad = g.copy()
        bad[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="g contains non-finite entries in a tested row"):
            observe_candidates(bad, side)
        with pytest.raises(ValueError, match="shape"):
            observe_candidates(g[:, :-1], side)
