import json

import numpy as np
import pytest

from suffmdp.rng import substream
from suffmdp.simgen import (
    GenerativeModelSpec,
    _utility_mean,
    g_function,
    oracle_feature_map,
    sample_trajectories,
    step_process,
)


class TestSpec:
    def test_dimension_bookkeeping(self):
        # p = 64 + floor(m/3) + 2*ceil(m/3)
        assert GenerativeModelSpec("linear", 50).state_dim == 114
        assert GenerativeModelSpec("linear", 200).state_dim == 264
        assert GenerativeModelSpec("linear", 0).state_dim == 64
        for m in range(0, 40):
            spec = GenerativeModelSpec("linear", m)
            # the floor/ceil split overshoots m by one when m = 1 mod 3
            assert spec.state_dim == 64 + m // 3 + 2 * int(np.ceil(m / 3))
            if m % 3 != 1:
                assert spec.n_dependent + spec.n_white + spec.n_constant == m

    def test_index_blocks_partition_columns(self):
        spec = GenerativeModelSpec("quad", 50)
        all_idx = (
            list(range(spec.signal_dim))
            + list(spec.dependent_indices)
            + list(spec.white_indices)
            + list(spec.constant_indices)
        )
        assert all_idx == list(range(spec.state_dim))

    def test_rejects_unknown_g(self):
        with pytest.raises(ValueError):
            GenerativeModelSpec("cubic", 0)

    def test_json_round_trip(self):
        spec = GenerativeModelSpec("exp", 50, signal_dim=16)
        text = json.dumps({"model": spec.g_kind, "n_noise": spec.n_noise,
                           "signal_dim": spec.signal_dim})
        assert GenerativeModelSpec.from_jsonable(json.loads(text)) == spec
        assert GenerativeModelSpec.from_jsonable({"model": "exp"}) == GenerativeModelSpec("exp")

    @pytest.mark.parametrize(
        "data,message",
        [({"model": "linear", "noise": 9}, "unknown key 'noise'"),
         ({"model": "linear", "seed": 1}, "unknown key 'seed'"),
         ({"model": "linear", "n_noise": 2.7}, "key 'n_noise'"),
         ({"model": "linear", "n_noise": True}, "key 'n_noise'"),
         ({"model": "linear", "signal_dim": "8"}, "key 'signal_dim'"),
         ({"model": 1}, "key 'model'"),
         ({"n_noise": 3}, "'model'"),
         (["linear"], "JSON object")],
        ids=["misspelled-n-noise", "seed", "float-n-noise", "bool-n-noise",
             "string-signal-dim", "number-model", "missing-model", "list"])
    def test_from_jsonable_rejects_bad_keys(self, data, message):
        with pytest.raises(ValueError, match=message):
            GenerativeModelSpec.from_jsonable(data)


class TestGFunction:
    def test_linear_is_identity(self):
        x = np.array([-2.0, 0.0, 5.0])
        assert np.array_equal(g_function("linear")(x), x)

    def test_truncations_never_exceed_three(self):
        x = np.linspace(-4, 4, 101)
        assert g_function("quad")(x).max() == 3.0
        assert g_function("exp")(x).max() == 3.0
        assert np.all(g_function("quad")(x) <= 3.0)
        assert np.all(g_function("exp")(x) <= 3.0)

    def test_quad_below_truncation(self):
        assert g_function("quad")(np.array([1.5]))[0] == pytest.approx(2.25)


class TestSampling:
    def test_shapes_and_action_range(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", 50), 7, 11, rng=1)
        assert ds.states.shape == (7, 12, 114)
        assert ds.actions.shape == (7, 11)
        assert set(np.unique(ds.actions)) <= {1, 2}

    def test_constant_columns_fixed_over_time(self):
        spec = GenerativeModelSpec("quad", 50)
        ds = sample_trajectories(spec, 5, 30, rng=2)
        cols = list(spec.constant_indices)
        first = ds.states[:, :1, cols]
        assert np.array_equal(ds.states[:, :, cols], np.broadcast_to(first, (5, 31, len(cols))))

    def test_white_columns_redrawn(self):
        spec = GenerativeModelSpec("quad", 50)
        ds = sample_trajectories(spec, 5, 10, rng=3)
        cols = list(spec.white_indices)
        diffs = np.diff(ds.states[:, :, cols], axis=1)
        assert np.all(np.abs(diffs).max(axis=(0, 1)) > 0)

    def test_truncated_g_keeps_states_bounded_in_mean(self):
        spec = GenerativeModelSpec("exp", 0)
        ds = sample_trajectories(spec, 20, 50, rng=4)
        u_mean = _utility_mean(g_function(spec.g_kind), ds.states[:, 0], np.zeros(20))
        # means are combinations of g values, |g| <= 3: |mean| <= 9
        assert np.all(np.abs(u_mean) <= 9.0 + 1e-12)

    def test_marginal_moments_at_t1(self):
        # all coordinates start Normal(0, 0.25)
        spec = GenerativeModelSpec("linear", 0)
        ds = sample_trajectories(spec, 100_000, 1, rng=5)
        first = ds.states[:, 0, :]
        assert abs(first.mean()) < 5e-3
        assert np.allclose(first.var(axis=0), 0.25, atol=0.02)

    def test_utility_conditional_noise_variance(self):
        spec = GenerativeModelSpec("linear", 0)
        ds = sample_trajectories(spec, 100_000, 1, rng=6)
        u_mean = _utility_mean(g_function(spec.g_kind), ds.states[:, 0], ds.actions[:, 0] - 1.0)
        resid = ds.utilities[:, 0] - u_mean
        assert resid.var() == pytest.approx(0.01, rel=0.05)

    def test_transition_conditional_moments(self):
        # one coordinate-level check of the block law: given A=0, columns
        # 1,2 follow Normal(g(S_1), 0.01) and columns 3,4 Normal(0, 0.25)
        spec = GenerativeModelSpec("quad", 0)
        rng = substream(8)
        states = np.tile(rng.normal(size=(1, 64)), (200_000, 1))
        nxt, _ = step_process(spec, states, np.zeros(200_000), substream(9))
        g = min(states[0, 0] ** 2, 3.0)
        assert nxt[:, 0].mean() == pytest.approx(g, abs=5e-3)
        assert nxt[:, 0].var() == pytest.approx(0.01, rel=0.05)
        assert nxt[:, 2].mean() == pytest.approx(0.0, abs=5e-3)
        assert nxt[:, 2].var() == pytest.approx(0.25, rel=0.05)

    def test_utility_mean_formula(self):
        s = np.zeros((2, 64))
        s[0, :4] = [1.0, 2.0, 3.0, 4.0]
        s[1, :4] = [1.0, 2.0, 3.0, 4.0]
        u = _utility_mean(g_function("linear"), s, np.array([0.0, 1.0]))
        # A=0: 2(s1+s2) - (s3+s4) = 6 - 7 = -1;  A=1: 2(s3+s4) - (s1+s2) = 14 - 3 = 11
        assert u[0] == pytest.approx(-1.0)
        assert u[1] == pytest.approx(11.0)

    def test_deterministic_given_seed(self):
        spec = GenerativeModelSpec("quad", 10)
        a = sample_trajectories(spec, 4, 6, rng=3)
        b = sample_trajectories(spec, 4, 6, rng=3)
        for field in ("states", "actions", "utilities"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_dependent_block_ignores_signal(self):
        # dependent noise evolves from its own block: replacing the signal
        # block leaves the dependent columns of a step on the same stream
        # unchanged
        spec = GenerativeModelSpec("linear", 12)
        rng = substream(13)
        s1 = rng.normal(size=(5, spec.state_dim))
        s2 = s1.copy()
        s2[:, :64] = rng.normal(size=(5, 64))
        n1, _ = step_process(spec, s1, np.zeros(5), substream(14))
        n2, _ = step_process(spec, s2, np.zeros(5), substream(14))
        dep = list(spec.dependent_indices)
        assert not np.array_equal(n1[:, :64], n2[:, :64])
        assert np.array_equal(n1[:, dep], n2[:, dep])


# The step as first written: each block's (rollouts, n_cols) mean and sd
# arrays built in full, then `mean + sd * noise`; `step_process` and
# `sample_trajectories` must reproduce it bit for bit.
def _reference_block_moments(drivers, a01, n_cols):
    r, n_blocks = drivers.shape
    a = a01[:, None]
    mean = np.empty((r, 4 * n_blocks))
    sd = np.empty((r, 4 * n_blocks))
    low_mean, high_mean = (1.0 - a) * drivers, a * drivers
    low_sd = np.sqrt(0.01 * (1.0 - a) + 0.25 * a)
    high_sd = np.sqrt(0.01 * a + 0.25 * (1.0 - a))
    for offset in (0, 1):
        mean[:, offset::4] = low_mean
        sd[:, offset::4] = np.broadcast_to(low_sd, low_mean.shape)
    for offset in (2, 3):
        mean[:, offset::4] = high_mean
        sd[:, offset::4] = np.broadcast_to(high_sd, high_mean.shape)
    return mean[:, :n_cols], sd[:, :n_cols]


def _reference_step(spec, states, a01, rng):
    g = g_function(spec.g_kind)
    r = states.shape[0]
    nxt = np.empty_like(states)
    mean, sd = _reference_block_moments(g(states[:, : spec.signal_dim // 4]), a01,
                                        spec.signal_dim)
    nxt[:, : spec.signal_dim] = mean + sd * rng.standard_normal((r, spec.signal_dim))
    if spec.n_dependent > 0:
        dep = states[:, list(spec.dependent_indices)]
        mean, sd = _reference_block_moments(
            g(dep[:, : int(np.ceil(spec.n_dependent / 4))]), a01, spec.n_dependent)
        nxt[:, list(spec.dependent_indices)] = mean + sd * rng.standard_normal(
            (r, spec.n_dependent))
    if spec.n_white > 0:
        nxt[:, list(spec.white_indices)] = 0.5 * rng.standard_normal((r, spec.n_white))
    cols = list(spec.constant_indices)
    nxt[:, cols] = states[:, cols]
    return nxt, _utility_mean(g, states, a01) + 0.1 * rng.standard_normal(r)


def _reference_trajectories(spec, n, horizon, seed):
    rng = substream(seed)
    states = np.empty((n, horizon + 1, spec.state_dim))
    actions = np.empty((n, horizon), dtype=np.int64)
    utilities = np.empty((n, horizon))
    states[:, 0] = 0.5 * rng.standard_normal((n, spec.state_dim))
    for t in range(horizon):
        a01 = (rng.random(n) < 0.5).astype(np.float64)
        states[:, t + 1], utilities[:, t] = _reference_step(spec, states[:, t], a01, rng)
        actions[:, t] = a01.astype(np.int64) + 1
    return states, actions, utilities


# dependent, white and constant columns all present, one dependent column;
# a dependent block of five, whose second driver fills one column; the
# default 64 signal columns alone
_BIT_SPECS = [GenerativeModelSpec("quad", 5, signal_dim=8),
              GenerativeModelSpec("exp", 16, signal_dim=8),
              GenerativeModelSpec("linear")]


@pytest.mark.parametrize("spec", _BIT_SPECS, ids=["quad-5", "exp-16", "linear-64"])
class TestStepMatchesMaterialisedMoments:
    def test_step_process_bit_for_bit(self, spec):
        states = 0.8 * substream(21).standard_normal((40, spec.state_dim))
        a01 = (substream(22).random(40) < 0.5).astype(np.float64)
        got = step_process(spec, states, a01, substream(23))
        want = _reference_step(spec, states, a01, substream(23))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_sample_trajectories_bit_for_bit(self, spec):
        ds = sample_trajectories(spec, 9, 7, rng=24)
        want = _reference_trajectories(spec, 9, 7, 24)
        for g, w in zip((ds.states, ds.actions, ds.utilities), want):
            assert g.tobytes() == w.tobytes()


class TestOracleMaps:
    def test_first4_selects_leading_coordinates(self):
        spec = GenerativeModelSpec("linear", 0)
        fm = oracle_feature_map(spec, "first4")
        s = np.arange(64.0)[None, :]
        assert np.array_equal(fm.transform(s)[0], [0.0, 1.0, 2.0, 3.0])

    def test_first16_dim(self):
        spec = GenerativeModelSpec("linear", 50)
        fm = oracle_feature_map(spec, "first16")
        assert fm.dim == 16

    def test_nonlinear3_identity_g(self):
        spec = GenerativeModelSpec("linear", 0)
        fm = oracle_feature_map(spec, "nonlinear3")
        s = np.arange(1.0, 65.0)[None, :]
        assert np.array_equal(fm.transform(s)[0], [1.0, 2.0, 7.0])

    def test_nonlinear3_quad_truncation(self):
        spec = GenerativeModelSpec("quad", 0)
        fm = oracle_feature_map(spec, "nonlinear3")
        s = np.zeros((1, 64))
        s[0, :4] = [1.0, 1.0, 2.0, 2.0]
        # third coordinate: min(4,3) + min(4,3) = 6
        assert np.array_equal(fm.transform(s)[0], [1.0, 1.0, 6.0])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            oracle_feature_map(GenerativeModelSpec("linear", 0), "first8")
