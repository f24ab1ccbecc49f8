import dataclasses
import json
import math
import re

import numpy as np
import pytest

from suffmdp import adnn, dcov
from suffmdp.adnn import (
    AdnnModel,
    Architecture,
    ConvergenceError,
    FitConfig,
    _StepPlan,
    _costs,
    _init_model,
    _layer_views,
    _stack,
    _train_replicas,
    active_inputs,
    construct_sufficient_features,
    cross_validate_adnn,
    default_dims,
    fit_adnn,
    residual_independence_pvalue,
    select_feature_dimension,
    PipelineConfig,
)
from suffmdp.core import TrajectoryDataset, config_from_jsonable, flatten_transitions
from suffmdp.experiment import ExperimentConfig
from suffmdp.features import NetworkFeatureMap, _sigmoid, mlp_forward
from suffmdp.rng import derive_seed, substream
from suffmdp.simgen import (
    GenerativeModelSpec,
    _block_law,
    _utility_mean,
    g_function,
    sample_trajectories,
)


def make_model(input_dim=3, feature_dim=2, hidden=4, depth=2, n_actions=2,
               seed=0, scale=1.0):
    rng = substream(seed)

    def layers(widths):
        return [
            (scale * rng.normal(size=(o, i)), scale * rng.normal(size=o))
            for i, o in zip(widths[:-1], widths[1:])
        ]

    return AdnnModel(
        feature_layers=layers([input_dim] + [hidden] * (depth - 1) + [feature_dim]),
        heads={a: layers([feature_dim] + [hidden] * (depth - 1) + [input_dim + 1])
               for a in range(1, n_actions + 1)},
    )


def linear_response_dataset(n=40, horizon=8, slope=2.0, noise=0.1, seed=0):
    """One state coordinate; utility = slope * s + noise; fresh next states."""
    rng = substream(seed)
    states = rng.normal(size=(n, horizon + 1, 1))
    utilities = slope * states[:, :-1, 0] + noise * rng.normal(size=(n, horizon))
    actions = np.ones((n, horizon), dtype=np.int64)
    return TrajectoryDataset(states, actions, utilities, n_actions=1)


def features_of(s, model):
    return model.features(np.asarray(s)[None, :])[0]


def predict_one(s, action, model):
    return model.predict(np.asarray(s)[None, :], action)[0]


class TestForward:
    def test_zero_parameters_give_half(self):
        m = make_model(scale=0.0)
        out = features_of(np.array([0.3, -1.0, 5.0]), m)
        assert np.allclose(out, 0.5)

    def test_zero_column_makes_output_invariant(self):
        m = make_model(seed=3)
        w0, b0 = m.feature_layers[0]
        w0 = np.array(w0)
        w0[:, 1] = 0.0
        m.feature_layers[0] = (w0, b0)
        s = np.array([0.7, 2.0, -0.4])
        bumped = s + np.array([0.0, 123.0, 0.0])
        assert np.array_equal(features_of(s, m), features_of(bumped, m))

    def test_single_layer_selection_is_activation_of_coordinate(self):
        model = AdnnModel(
            feature_layers=[(np.array([[1.0, 0.0, 0.0]]), np.zeros(1))],
            heads={1: [(np.zeros((4, 1)), np.zeros(4))], 2: [(np.zeros((4, 1)), np.zeros(4))]},
        )
        s = np.array([0.8, -3.0, 9.0])
        expected = 1.0 / (1.0 + np.exp(-0.8))
        assert features_of(s, model)[0] == pytest.approx(expected)

    def test_heads_differ_when_parameters_differ(self):
        m = make_model(seed=4)
        s = np.array([0.1, 0.2, 0.3])
        assert not np.allclose(predict_one(s, 1, m), predict_one(s, 2, m))
        m.heads[2] = [(w.copy(), b.copy()) for w, b in m.heads[1]]
        assert np.allclose(predict_one(s, 1, m), predict_one(s, 2, m))

    def test_affine_head_with_zero_weights_returns_bias(self):
        bias = np.array([1.5, -2.0, 0.25])
        model = AdnnModel(
            feature_layers=[(np.eye(2), np.zeros(2))],
            heads={1: [(np.zeros((3, 2)), bias)]},
        )
        assert np.array_equal(predict_one(np.array([4.0, 5.0]), 1, model), bias)

    def test_output_dimension(self):
        m = make_model(input_dim=5, seed=5)
        out = m.predict(substream(1).normal(size=(7, 5)), 2)
        assert out.shape == (7, 6)

    def test_unknown_action_rejected(self):
        m = make_model()
        with pytest.raises(ValueError):
            predict_one(np.zeros(3), 9, m)


def one_action_cost(ds, model, lam):
    """The fit criterion on a one-action dataset: that action's cost."""
    tr = flatten_transitions(ds)
    rows = np.flatnonzero(tr.actions == 1)
    (costs,) = _costs(tr.states, {1: (rows, tr.responses[rows])}, _stack([model])[0], [lam])
    return costs[1]


class TestCost:
    def test_zero_lambda_is_plain_squared_error(self):
        ds = linear_response_dataset(n=6, horizon=3)
        m = make_model(input_dim=1, n_actions=1, seed=6)
        manual = 0.0
        tr = flatten_transitions(ds)
        for i in range(len(tr)):
            pred = predict_one(tr.states[i], int(tr.actions[i]), m)
            y = np.concatenate([[tr.utilities[i]], tr.next_states[i]])
            manual += float(np.sum((pred - y) ** 2))
        assert one_action_cost(ds, m, 0.0) == pytest.approx(manual / len(tr))

    def test_group_penalty_arithmetic(self):
        # first-layer columns with norms 3 and 4 add 7 * lam to the cost
        ds = linear_response_dataset(n=4, horizon=2, seed=7)
        ds = TrajectoryDataset(
            np.concatenate([ds.states, ds.states], axis=2),
            ds.actions, ds.utilities, n_actions=1,
        )
        model = AdnnModel(
            feature_layers=[(np.array([[3.0, 4.0], [0.0, 0.0]]), np.zeros(2))],
            heads={1: [(np.zeros((3, 2)), np.zeros(3))]},
        )
        lam = 0.37
        assert one_action_cost(ds, model, lam) - one_action_cost(
            ds, model, 0.0) == pytest.approx(7.0 * lam)

    def test_perfect_model_has_zero_cost(self):
        # constant response reproduced exactly by a zero-weight affine head
        states = np.zeros((3, 4, 1))
        utilities = np.full((3, 3), 2.5)
        actions = np.ones((3, 3), dtype=np.int64)
        ds = TrajectoryDataset(states, actions, utilities, n_actions=1)
        model = AdnnModel(
            feature_layers=[(np.zeros((1, 1)), np.zeros(1))],
            heads={1: [(np.zeros((2, 1)), np.array([2.5, 0.0]))]},
        )
        assert one_action_cost(ds, model, 0.0) == 0.0


def action_batch(ds, action, size=None):
    """States and responses ``(U, S')`` of the first steps taking ``action``."""
    tr = flatten_transitions(ds)
    rows = np.flatnonzero(tr.actions == action)[:size]
    return tr.states[rows], tr.responses[rows]


def finite_difference_grads(s, y, model, lam, action, step=1e-5):
    """Central differences of the batch objective through parameter copies."""

    def objective(m):
        pred = m.predict(s, action)
        err = float(np.mean(np.sum((pred - y) ** 2, axis=1)))
        w1 = m.feature_layers[0][0]
        return err + lam * float(np.sqrt(np.square(w1).sum(axis=0)).sum())

    def clone(m):
        return AdnnModel(
            feature_layers=[(w.copy(), b.copy()) for w, b in m.feature_layers],
            heads={a: [(w.copy(), b.copy()) for w, b in ls] for a, ls in m.heads.items()},
        )

    grads_feature = []
    for li, (w, b) in enumerate(model.feature_layers):
        dw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (+1, -1):
                m2 = clone(model)
                m2.feature_layers[li][0][idx] += sign * step
                dw[idx] += sign * objective(m2)
        db = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            for sign in (+1, -1):
                m2 = clone(model)
                m2.feature_layers[li][1][idx] += sign * step
                db[idx] += sign * objective(m2)
        grads_feature.append((dw / (2 * step), db / (2 * step)))
    grads_head = []
    for li, (w, b) in enumerate(model.heads[action]):
        dw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (+1, -1):
                m2 = clone(model)
                m2.heads[action][li][0][idx] += sign * step
                dw[idx] += sign * objective(m2)
        db = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            for sign in (+1, -1):
                m2 = clone(model)
                m2.heads[action][li][1][idx] += sign * step
                db[idx] += sign * objective(m2)
        grads_head.append((dw / (2 * step), db / (2 * step)))
    return grads_feature, grads_head


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-6)


def stacked_gradients(s, y, takes, lams, stacked, action):
    """A stacked model's batch gradients for one action, as the trainer makes
    them, through a step plan: ``(feature_grads, head_grads)`` written into
    fresh arrays."""
    layers = stacked.feature_layers + stacked.heads[action]
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    _StepPlan(layers, grads, takes, lams).gradients(s, y)
    k = len(stacked.feature_layers)
    return grads[:k], grads[k:]


def replica_gradients(s, y, model, lam, action):
    """One replica's batch gradients through a one-replica stacked call."""
    f_g, h_g = stacked_gradients(s[None], y[None], [len(s)], [lam], _stack([model])[0], action)
    return [(dw[0], db[0, 0]) for dw, db in f_g], [(dw[0], db[0, 0]) for dw, db in h_g]


class TestSubgradient:
    def test_matches_finite_differences(self):
        rng = substream(8)
        for case in range(4):
            model = make_model(
                input_dim=int(rng.integers(2, 4)),
                feature_dim=int(rng.integers(1, 3)),
                hidden=int(rng.integers(2, 4)),
                depth=int(rng.integers(1, 3)),
                seed=100 + case,
                scale=0.7,
            )
            ds = _random_dataset(model.first_layer.shape[1], seed=case)
            s, y = action_batch(ds, 1, size=6)
            lam = 0.05
            f_g, h_g = replica_gradients(s, y, model, lam, 1)
            f_fd, h_fd = finite_difference_grads(s, y, model, lam, 1)
            for (dw, db), (dw2, db2) in zip(f_g + h_g, f_fd + h_fd):
                assert relative_error(dw, dw2).max() < 1e-4
                assert relative_error(db, db2).max() < 1e-4

    def test_zero_residual_zero_lambda_gives_zero_gradient(self):
        states = np.zeros((2, 3, 1))
        utilities = np.full((2, 2), 1.0)
        actions = np.ones((2, 2), dtype=np.int64)
        ds = TrajectoryDataset(states, actions, utilities, n_actions=1)
        model = AdnnModel(
            feature_layers=[(np.zeros((1, 1)), np.zeros(1))],
            heads={1: [(np.zeros((2, 1)), np.array([1.0, 0.0]))]},
        )
        f_g, h_g = replica_gradients(*action_batch(ds, 1), model, 0.0, 1)
        for dw, db in f_g + h_g:
            assert np.allclose(dw, 0.0) and np.allclose(db, 0.0)

    def test_only_requested_head_gets_gradients(self):
        # the gradients fill flat buffers laid out like the feature layers and
        # one head, as the trainer's are, and leave every parameter as it was
        stacked, feature_params, head_params = _stack([make_model(seed=9), make_model(seed=10)])
        before = [p.copy() for p in [feature_params, *head_params.values()]]
        ds = _random_dataset(3, seed=5, n_actions=2)
        s, y = action_batch(ds, 1)
        s, y = np.stack([s, s]), np.stack([y, y])
        feature_grad = np.full_like(feature_params, np.nan)
        head_grad = np.full_like(head_params[1], np.nan)
        layers = stacked.feature_layers + stacked.heads[1]
        grads = (_layer_views(feature_grad, [w.shape[1:] for w, _ in stacked.feature_layers])
                 + _layer_views(head_grad, [w.shape[1:] for w, _ in stacked.heads[1]]))
        _StepPlan(layers, grads, [len(s[0])] * 2, [0.1, 0.1]).gradients(s, y)
        assert np.isfinite(feature_grad).all() and np.isfinite(head_grad).all()
        for (dw, db), (w, b) in zip(grads, layers, strict=True):
            assert dw.shape == w.shape and db.shape == b.shape
        after = [feature_params, *head_params.values()]
        assert all(np.array_equal(p, q) for p, q in zip(after, before, strict=True))

    def test_stacked_gradients_equal_each_replicas_own(self):
        # three replicas with different penalties and batch sizes; the shorter
        # batches are padded with junk rows, which must not count
        models = [make_model(seed=20 + r, scale=0.7) for r in range(3)]
        lams, takes = [0.0, 0.05, 0.3], [6, 4, 5]
        ds = _random_dataset(3, seed=21, n=12, n_actions=2)
        s_all, y_all = action_batch(ds, 2)
        rows = substream(22).permutation(len(s_all))[:3 * max(takes)].reshape(3, -1)
        s, y = s_all[rows], y_all[rows]
        for r, take in enumerate(takes):
            s[r, take:], y[r, take:] = 7.0, -3.0
        f_g, h_g = stacked_gradients(s, y, takes, lams, _stack(models)[0], 2)
        for r, (model, lam, take) in enumerate(zip(models, lams, takes)):
            f_ref, h_ref = replica_gradients(s[r, :take], y[r, :take], model, lam, 2)
            for (dw, db), (dw_ref, db_ref) in zip(f_g + h_g, f_ref + h_ref, strict=True):
                assert np.array_equal(dw[r], dw_ref) and np.array_equal(db[r, 0], db_ref)


class TestStepPlan:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("takes", [[5, 5, 5], [5, 2, 4]], ids=["unpadded", "padded"])
    def test_forward_equals_mlp_forward(self, depth, takes):
        # the trainer's pass and the one a fitted model runs give the same
        # bits, on the stack and on each replica's own rows
        models = [make_model(input_dim=3, depth=depth, seed=70 + r, scale=3.0) for r in range(3)]
        stacked = _stack(models)[0]
        layers = stacked.feature_layers + stacked.heads[2]
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
        plan = _StepPlan(layers, grads, takes, [0.1] * 3)
        s = 4.0 * substream(71).normal(size=(3, max(takes), 3))
        with np.errstate(over="ignore"):
            out = plan.forward(s)
        assert np.array_equal(out, mlp_forward(s, layers, affine_last=True))
        for r, (model, take) in enumerate(zip(models, takes)):
            assert np.array_equal(out[r, :take], model.predict(s[r, :take], 2))


def assert_same_model(model, reference):
    for (w, b), (w_ref, b_ref) in zip(model.feature_layers, reference.feature_layers,
                                      strict=True):
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
    assert model.actions == reference.actions
    for a in reference.actions:
        for (w, b), (w_ref, b_ref) in zip(model.heads[a], reference.heads[a], strict=True):
            assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
    assert model.trace == reference.trace


class TestTrainReplicas:
    CFG = FitConfig(alpha0=0.2, batch_fraction=0.3, n_max=25, check_every=10)

    def test_one_fit_repeated_penalty_gives_identical_lone_fits(self):
        ds = _random_dataset(3, seed=30, n=9, n_actions=2)
        arch = Architecture(feature_dim=2, hidden_width=3, depth=2)
        models = _train_replicas(arch, self.CFG, [(ds, 5)], [0.1, 0.1])
        assert len(models) == 2
        assert_same_model(models[1], models[0])
        assert_same_model(models[0], fit_adnn(ds, arch, self.CFG, lam=0.1, seed=5))

    @pytest.mark.parametrize("subset", [None, [1]], ids=["all-actions", "action-1"])
    def test_replicas_in_fit_major_order_equal_lone_fits(self, subset):
        # the second fit has the first's actions and its own states, so the
        # fits take equal batches and no batch is padded (see the next test)
        ds = _random_dataset(2, seed=31, n=8, horizon=5, n_actions=2)
        other = _random_dataset(2, seed=32, n=8, horizon=5, n_actions=2)
        fits = [(ds, 11), (TrajectoryDataset(other.states, ds.actions, other.utilities, 2), 12)]
        lams = [0.0, 0.3]
        arch = Architecture(feature_dim=1, hidden_width=2)
        models = _train_replicas(arch, self.CFG, fits, lams, subset)
        assert len(models) == len(fits) * len(lams)
        for d, (train, seed) in enumerate(fits):
            for l, lam in enumerate(lams):
                lone = fit_adnn(train, arch, self.CFG, lam=lam, seed=seed, actions_subset=subset)
                assert_same_model(models[d * len(lams) + l], lone)

    @pytest.mark.parametrize("block", [1, 7, adnn._BLOCK], ids=["1", "7", "default"])
    def test_fitted_bits_do_not_depend_on_the_block(self, block, monkeypatch):
        # three unequal fits and two penalties, over an n_max that is not a
        # multiple of 7, so the last block is short and batches are padded;
        # depth 3 has a hidden-to-hidden layer
        ds = _random_dataset(2, seed=41, n=16, horizon=5, n_actions=2)
        fits = [(ds.subset_subjects(np.arange(0, 8)), 3), (ds.subset_subjects(np.arange(8, 13)), 4),
                (ds.subset_subjects(np.arange(13, 16)), 5)]
        cfg = dataclasses.replace(self.CFG, n_max=150)
        assert cfg.n_max % 7 and cfg.n_max > adnn._BLOCK
        for depth in (2, 3):
            arch = Architecture(feature_dim=2, hidden_width=2, depth=depth)
            reference = _reference_train(arch, cfg, fits, [0.0, 0.2])
            with monkeypatch.context() as patch:
                patch.setattr(adnn, "_BLOCK", block)
                models = _train_replicas(arch, cfg, fits, [0.0, 0.2])
            for model, ref in zip(models, reference, strict=True):
                assert_same_model(model, ref)

    @pytest.mark.parametrize("floats", [1, 150, 400], ids=["one-step", "2-steps", "6-steps"])
    def test_fitted_bits_do_not_depend_on_the_gather_budget(self, floats, monkeypatch):
        # 150 floats hold 2 of action 1's 66-float steps (2 replicas of 3
        # rows, one padded, of 11 floats) and 400 hold 6, which do not divide
        # a block of 7
        ds = _random_dataset(5, seed=43, n=9, horizon=5, n_actions=2)
        fits = [(ds.subset_subjects(np.arange(0, 5)), 6), (ds.subset_subjects(np.arange(5, 9)), 7)]
        cfg = dataclasses.replace(self.CFG, n_max=40)
        arch = Architecture(feature_dim=2, hidden_width=3, depth=2)
        reference = _reference_train(arch, cfg, fits, [0.1])
        monkeypatch.setattr(adnn, "_BLOCK", 7)
        monkeypatch.setattr(adnn, "_GATHER_FLOATS", floats)
        models = _train_replicas(arch, cfg, fits, [0.1])
        for model, ref in zip(models, reference, strict=True):
            assert_same_model(model, ref)

    def test_gather_budget_caps_paper_scale_steps(self):
        # a 3-fold CV of 2 penalties on 10 coordinates gathers a whole block;
        # a 20-replica CV of 135-row batches on 64 coordinates one step,
        # 2.8 MB, not a block of 180 MB
        assert adnn._gather_steps(6, 4, 10) == adnn._BLOCK
        assert adnn._gather_steps(1, 6, 10) == adnn._BLOCK
        assert adnn._gather_steps(20, 135, 64) == 1

    def test_batches_of_an_epoch_are_disjoint_rows_of_the_action(self, monkeypatch):
        # every state's first coordinate is a distinct positive row id, so a
        # batch's states name its rows; the padding row is zero
        fits = []
        for d, n in enumerate([8, 5]):
            ds = _random_dataset(2, seed=50 + d, n=n, horizon=5, n_actions=2)
            states = ds.states.copy()
            states[..., 0] = 1000 * (d + 1) + 1 + np.arange(n * 6).reshape(n, 6)
            fits.append((TrajectoryDataset(states, ds.actions, ds.utilities, 2), 60 + d))
        seen, gradients = [], _StepPlan.gradients

        def recording(plan, s, y):
            seen.append(s[:, :, 0].copy())
            return gradients(plan, s, y)

        monkeypatch.setattr(adnn._StepPlan, "gradients", recording)
        cfg = dataclasses.replace(self.CFG, n_max=100)
        _train_replicas(Architecture(feature_dim=1, hidden_width=2), cfg, fits, [0.1])
        assert len(seen) == 2 * cfg.n_max
        for i, a in enumerate([1, 2]):
            for d, (ds, _) in enumerate(fits):
                tr = flatten_transitions(ds)
                rows = set(tr.states[tr.actions == a, 0])
                take = int(cfg.batch_fraction * len(rows))
                per_epoch = len(rows) // take
                batches = [batch[d] for batch in seen[i::2]]
                assert all(not batch[take:].any() for batch in batches)
                batches = [set(batch[:take]) for batch in batches]
                assert all(len(batch) == take and batch <= rows for batch in batches)
                for start in range(0, len(batches) - per_epoch + 1, per_epoch):
                    assert len(set().union(*batches[start:start + per_epoch])) == per_epoch * take

    @pytest.mark.xfail(strict=True,
                       reason="a padded batch's gradient can sum its rows in another order "
                              "than the lone fit's unpadded one")
    def test_padded_replica_equals_lone_fit(self):
        # action 2 takes 5 rows in the first fit and 2 in the second
        ds = _random_dataset(2, seed=31, n=13, horizon=5, n_actions=2)
        fits = [(ds.subset_subjects(np.arange(8)), 11), (ds.subset_subjects(np.arange(8, 13)), 12)]
        arch = Architecture(feature_dim=1, hidden_width=2)
        models = _train_replicas(arch, self.CFG, fits, [0.0])
        assert_same_model(models[1], fit_adnn(fits[1][0], arch, self.CFG, seed=12))


# The lock-step trainer's step as first written: per-layer forward and
# backward passes into fresh arrays, the padding masked with np.where and one
# `w -= alpha * dw` per array, with each (fit, action)'s batch taken from its
# epoch permutation one step at a time, with no blocks.  The trainer must
# reproduce it bit for bit.
def _reference_forward(x, layers, affine_last, cache=None):
    for i, (w, b) in enumerate(layers):
        z = x @ w.swapaxes(-1, -2) + b
        out = z if affine_last and i == len(layers) - 1 else _sigmoid(z)
        if cache is not None:
            cache.append((x, z, out))
        x = out
    return x


def _reference_backward(cache, layers, delta):
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        x, z, out = cache[i]
        dz = delta if out is z else delta * (out * (1.0 - out))
        grads[i] = (dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2).reshape(layers[i][1].shape))
        if i:
            delta = dz @ layers[i][0]
    return grads


def _reference_costs(tr, feature_layers, heads, lam):
    feats = _reference_forward(tr.states, feature_layers, False)
    w1 = feature_layers[0][0]
    pen = 0.0 if lam == 0.0 else lam * float(np.sqrt(np.square(w1).sum(axis=0)).sum())
    costs = {}
    for a, head in heads.items():
        idx = tr.actions == a
        pred = _reference_forward(feats[idx], head, True)
        costs[a] = float(np.square(pred - tr.responses[idx]).sum()) / int(idx.sum()) + pen
    return costs


def stack_layers(layer_lists):
    """``R`` networks' ``(W, b)`` layers, one shape, on a leading axis:
    weights ``(R, out, in)`` and biases ``(R, 1, out)``."""
    return [
        (np.stack([w for w, _ in layer]), np.stack([b for _, b in layer])[:, None, :])
        for layer in zip(*layer_lists)
    ]


def _reference_train(arch, cfg, fits, lams, actions_subset=None):
    n_actions, state_dim = fits[0][0].n_actions, fits[0][0].state_dim
    actions = list(range(1, n_actions + 1)) if actions_subset is None else sorted(actions_subset)
    data = [flatten_transitions(train) for train, _ in fits]
    inits = [_init_model(arch, state_dim, actions, substream(seed)) for _, seed in fits]
    replicas = [init for init in inits for _ in lams]
    features = stack_layers([m.feature_layers for m in replicas])
    heads = {a: stack_layers([m.heads[a] for m in replicas]) for a in actions}
    lam = np.asarray(list(lams) * len(fits), dtype=np.float64)[:, None]

    def batch_stream(seed, a, n, take):
        # random reshuffling: one permutation per epoch, cut in order into
        # n // take batches; the last n % take rows of an epoch go unused
        rng = substream(seed, a)
        while True:
            perm = rng.permutation(n)
            for k in range(n // take):
                yield perm[k * take:(k + 1) * take]

    batches = {}
    for a in actions:
        rows = [np.flatnonzero(tr.actions == a) for tr in data]
        sizes = np.array([r.size for r in rows])
        takes = (cfg.batch_fraction * sizes).astype(np.int64)
        take = np.repeat(takes, len(lams))[:, None, None]
        batches[a] = (
            [batch_stream(seed, a, n, t) for (_, seed), n, t in zip(fits, sizes, takes)],
            sizes, takes, np.cumsum(sizes) - sizes, take,
            np.arange(take.max())[:, None] >= take,
            np.concatenate([tr.states[r] for tr, r in zip(data, rows)]
                           + [np.zeros((1, state_dim))]),
            np.concatenate([tr.responses[r] for tr, r in zip(data, rows)]
                           + [np.zeros((1, state_dim + 1))]),
        )

    def replica(r):
        return ([(w[r], b[r, 0]) for w, b in features],
                {a: [(w[r], b[r, 0]) for w, b in heads[a]] for a in actions})

    def record(traces):
        for r, trace in enumerate(traces):
            trace.append(_reference_costs(data[r // len(lams)], *replica(r), lams[r % len(lams)]))

    traces = [[] for _ in replicas]
    record(traces)
    alpha = cfg.alpha0
    for b in range(1, cfg.n_max + 1):
        for a in actions:
            streams, sizes, takes, offsets, take, pad, states, responses = batches[a]
            index = np.full((len(fits), len(lams), takes.max()), sizes.sum())
            for d, stream in enumerate(streams):
                index[d, :, :takes[d]] = offsets[d] + next(stream)
            index = index.reshape(len(replicas), -1)
            layers = features + heads[a]
            cache = []
            out = _reference_forward(states[index], layers, True, cache)
            delta = np.where(pad, 0.0, 2.0 * (out - responses[index]) / take)
            grads = _reference_backward(cache, layers, delta)
            if (lam > 0.0).any():
                w1 = features[0][0]
                norms = np.sqrt(np.square(w1).sum(axis=-2))
                scale = np.divide(lam, norms, out=np.zeros_like(norms), where=norms > 0)
                grads[0] = (grads[0][0] + w1 * scale[:, None, :], grads[0][1])
            for (w, bias), (dw, db) in zip(layers, grads):
                w -= alpha * dw
                bias -= alpha * db
        if b % cfg.check_every == 0 or b == cfg.n_max:
            record(traces)
    return [AdnnModel(*replica(r), trace=t) for r, t in enumerate(traces)]


class TestReferenceStep:
    CFG = FitConfig(alpha0=0.2, batch_fraction=0.3, n_max=30, check_every=10)

    @pytest.fixture(autouse=True)
    def short_blocks(self, monkeypatch):
        # 30 iterations in blocks of 7, so the draws cross block ends
        monkeypatch.setattr(adnn, "_BLOCK", 7)

    @pytest.mark.parametrize("depth,lam,subset", [(1, 0.0, None), (2, 0.1, None), (1, 0.3, [2])],
                             ids=["depth-1-lam-0", "depth-2-lam-0.1", "action-2"])
    def test_lone_fit_equals_reference(self, depth, lam, subset):
        ds = _random_dataset(3, seed=40, n=10, horizon=5, n_actions=2)
        arch = Architecture(feature_dim=2, hidden_width=3, depth=depth)
        (reference,) = _reference_train(arch, self.CFG, [(ds, 7)], [lam], subset)
        assert_same_model(fit_adnn(ds, arch, self.CFG, lam=lam, seed=7,
                                   actions_subset=subset), reference)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("subset", [None, [1]], ids=["all-actions", "action-1"])
    def test_padded_replicas_equal_reference(self, depth, subset):
        # three unequal fits, so the shorter fits' batches are padded
        ds = _random_dataset(2, seed=41, n=16, horizon=5, n_actions=2)
        fits = [(ds.subset_subjects(np.arange(0, 8)), 3), (ds.subset_subjects(np.arange(8, 13)), 4),
                (ds.subset_subjects(np.arange(13, 16)), 5)]
        actions = subset or [1, 2]
        takes = [{int(0.3 * np.sum(train.actions == a)) for train, _ in fits} for a in actions]
        assert all(len(t) > 1 for t in takes)
        lams = [0.0, 0.05, 0.4]
        arch = Architecture(feature_dim=2, hidden_width=2, depth=depth)
        reference = _reference_train(arch, self.CFG, fits, lams, subset)
        models = _train_replicas(arch, self.CFG, fits, lams, subset)
        assert len(models) == len(reference) == 9
        for model, ref in zip(models, reference):
            assert_same_model(model, ref)


def _random_dataset(p, seed=0, n=8, horizon=4, n_actions=1):
    rng = substream(1000 + seed)
    return TrajectoryDataset(
        states=rng.normal(size=(n, horizon + 1, p)),
        actions=rng.integers(1, n_actions + 1, size=(n, horizon)),
        utilities=rng.normal(size=(n, horizon)),
        n_actions=n_actions,
    )


def _parameter_bytes(model) -> list:
    layers = model.feature_layers + [layer for a in model.actions for layer in model.heads[a]]
    return [array.tobytes() for layer in layers for array in layer]


def _count_trainer_calls(monkeypatch) -> list:
    """Wrap the trainer; each call appends (hidden_width, depth, replicas)."""
    calls = []

    def counting(arch, cfg, fits, lams, actions_subset=None):
        calls.append((arch.hidden_width, arch.depth, len(fits) * len(lams)))
        return _train_replicas(arch, cfg, fits, lams, actions_subset)

    monkeypatch.setattr(adnn, "_train_replicas", counting)
    return calls


class TestFit:
    def test_zero_iterations_returns_initialization(self):
        ds = _random_dataset(2, seed=1)
        arch = Architecture(feature_dim=1)
        cfg = FitConfig(n_max=0)
        m1 = fit_adnn(ds, arch, cfg, seed=3)
        m2 = fit_adnn(ds, arch, dataclasses.replace(cfg, n_max=0), seed=3)
        for (w1, b1), (w2, b2) in zip(m1.feature_layers, m2.feature_layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert len(m1.trace) == 1

    def test_single_action_training_reduces_cost(self):
        ds = linear_response_dataset(seed=2)
        arch = Architecture(feature_dim=2, hidden_width=4, depth=1)
        cfg = FitConfig(alpha0=0.1, n_max=400, check_every=10)
        model = fit_adnn(ds, arch, cfg, seed=1)
        assert model.trace[-1][1] < model.trace[0][1]

    def test_learns_linear_slope(self):
        # utility = 2 s + noise; compare against the least-squares slope
        ds = linear_response_dataset(n=60, horizon=10, slope=2.0, seed=3)
        arch = Architecture(feature_dim=2, hidden_width=4, depth=1)
        cfg = FitConfig(alpha0=0.3, n_max=4000, check_every=20)
        model = fit_adnn(ds, arch, cfg, seed=2)
        s = ds.states[:, :-1].reshape(-1, 1)
        u = ds.utilities.reshape(-1)
        design = np.column_stack([np.ones_like(s[:, 0]), s[:, 0]])
        ls_slope = np.linalg.lstsq(design, u, rcond=None)[0][1]
        pred = model.predict(s, 1)[:, 0]
        fit_slope = np.linalg.lstsq(design, pred, rcond=None)[0][1]
        assert abs(ls_slope - 2.0) < 0.1
        assert abs(fit_slope - ls_slope) < 0.2

    def test_deterministic_given_seed(self):
        ds = _random_dataset(2, seed=4, n_actions=2, n=10)
        arch = Architecture(feature_dim=1)
        cfg = FitConfig(alpha0=0.1, n_max=50)
        m1, m2 = fit_adnn(ds, arch, cfg, seed=11), fit_adnn(ds, arch, cfg, seed=11)
        for (w1, _), (w2, _) in zip(m1.feature_layers, m2.feature_layers):
            assert np.array_equal(w1, w2)
        for a in (1, 2):
            for (w1, _), (w2, _) in zip(m1.heads[a], m2.heads[a]):
                assert np.array_equal(w1, w2)

    def test_trace_cadence_only_observes(self):
        # the parameters do not depend on check_every; the trace holds the
        # initialisation, every check_every-th iteration and the last, so
        # min(n_max, (len(trace) - 1) * check_every) counts the iterations run
        ds = _random_dataset(2, seed=4, n_actions=2, n=10)
        arch = Architecture(feature_dim=1)
        params = []
        for every in (1, 7, 100):
            cfg = FitConfig(alpha0=0.1, n_max=250, check_every=every)
            model = fit_adnn(ds, arch, cfg, lam=0.05, seed=11)
            assert len(model.trace) == 1 + math.ceil(cfg.n_max / every)
            assert min(cfg.n_max, (len(model.trace) - 1) * every) == cfg.n_max
            params.append(model.feature_layers + model.heads[1] + model.heads[2])
        for layers in params[1:]:
            for (w, b), (w_ref, b_ref) in zip(layers, params[0], strict=True):
                assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
        untrained = fit_adnn(ds, arch, FitConfig(n_max=0, check_every=7), seed=11)
        assert len(untrained.trace) == 1

    def test_longer_fit_extends_the_trace(self):
        # a fit's draws do not depend on where its blocks end: the first N
        # iterations of a longer fit are those of an N-iteration fit
        ds = _random_dataset(2, seed=4, n_actions=2, n=10)
        arch = Architecture(feature_dim=1)
        cfg = FitConfig(alpha0=0.1, n_max=100, check_every=10)
        assert cfg.n_max % cfg.check_every == 0 and cfg.n_max % adnn._BLOCK
        short = fit_adnn(ds, arch, cfg, lam=0.05, seed=11)
        long = fit_adnn(ds, arch, dataclasses.replace(cfg, n_max=cfg.n_max + 37), lam=0.05, seed=11)
        assert len(long.trace) > len(short.trace)
        assert long.trace[:len(short.trace)] == short.trace

    @pytest.mark.parametrize("n_max", [50, 250])
    def test_divergence_raises(self, n_max):
        # n_max=50 is caught by the check after the last iteration, 250 by the
        # check at iteration 100
        ds = sample_trajectories(GenerativeModelSpec("linear", signal_dim=4), 20, 4, rng=1)
        arch = Architecture(2, 4, 1)
        with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=f"iteration {min(n_max, 100)}: non-finite cost"
        ):
            fit_adnn(ds, arch, FitConfig(alpha0=1e6, n_max=n_max), seed=1)

    def test_depth_one_network_does_not_read_its_width(self):
        # no hidden layer at depth 1, so the width builds nothing
        ds = _random_dataset(2, seed=4, n_actions=2, n=10)
        cfg = FitConfig(alpha0=0.1, n_max=50, check_every=10)
        narrow, wide = (fit_adnn(ds, Architecture(2, width, 1), cfg, lam=0.05, seed=11)
                        for width in (2, 8))
        assert _parameter_bytes(narrow) == _parameter_bytes(wide)
        assert narrow.trace == wide.trace

    def test_actions_subset_trains_one_head(self):
        ds = _random_dataset(2, seed=5, n_actions=2, n=12)
        arch = Architecture(feature_dim=1)
        model = fit_adnn(ds, arch, FitConfig(n_max=20), seed=0, actions_subset=[2])
        assert model.actions == [2]

    def test_batch_fraction_too_small_rejected(self):
        ds = _random_dataset(2, seed=6, n=2, horizon=2)
        arch = Architecture(feature_dim=1)
        with pytest.raises(ValueError, match="batch fraction too small"):
            fit_adnn(ds, arch, FitConfig(batch_fraction=0.05, n_max=5), seed=0)

    def test_missing_action_rejected(self):
        ds = linear_response_dataset(seed=7)  # single action level
        ds2 = TrajectoryDataset(ds.states, ds.actions, ds.utilities, n_actions=2)
        arch = Architecture(feature_dim=1)
        with pytest.raises(ValueError, match="absent"):
            fit_adnn(ds2, arch, FitConfig(n_max=5), seed=0)


class TestCrossValidation:
    def test_single_cell_returned(self):
        ds = _random_dataset(2, seed=10, n=8)
        cv = cross_validate_adnn(ds, feature_dim=1, grid=[(2, 1, 0.01)],
                                 folds=2, cfg=FitConfig(n_max=20), seed=0)
        assert cv.best == (2, 1, 0.01)

    def test_duplicate_cells_tie_break_deterministic(self):
        # untrained fits with identical shapes score identically regardless
        # of lam (validation is unpenalized), so the tie goes to larger lam
        ds = _random_dataset(2, seed=11, n=8)
        grid = [(2, 1, 0.01), (2, 1, 0.5), (2, 1, 0.01)]
        cv = cross_validate_adnn(ds, feature_dim=1, grid=grid,
                                 folds=2, cfg=FitConfig(n_max=0), seed=0)
        scores = [s for _, s in cv.scores]
        assert scores[0] == scores[1] == scores[2]
        assert cv.best == (2, 1, 0.5)

    def test_scores_do_not_depend_on_grid_order(self):
        # depth 2, where the two widths are two networks
        ds = _random_dataset(2, seed=18, n=8)
        grid = [(2, 2, 0.01), (2, 2, 0.5), (3, 2, 0.01), (3, 2, 0.5)]
        cfg = FitConfig(n_max=30, check_every=10)
        forward = cross_validate_adnn(ds, feature_dim=1, grid=grid,
                                      folds=2, cfg=cfg, seed=4)
        backward = cross_validate_adnn(ds, feature_dim=1, grid=grid[::-1],
                                       folds=2, cfg=cfg, seed=4)
        assert dict(forward.scores) == dict(backward.scores)
        assert forward.best == backward.best

    def test_huge_penalty_scores_worse(self):
        ds = linear_response_dataset(n=30, horizon=8, seed=12)
        cfg = FitConfig(alpha0=0.2, n_max=400, check_every=10)
        cv = cross_validate_adnn(
            ds, feature_dim=2, grid=[(4, 1, 0.001), (4, 1, 1e6)], folds=3, cfg=cfg, seed=3
        )
        scores = dict(cv.scores)
        assert scores[(4, 1, 0.001)] < scores[(4, 1, 1e6)]
        assert cv.best == (4, 1, 0.001)

    @pytest.mark.parametrize("subset", [None, [2]], ids=["all-actions", "action-2"])
    def test_stacked_equals_per_cell_reference(self, subset):
        # 2 shapes x 2 penalties plus a duplicate cell over 3 unequal folds:
        # every cell scores exactly what lone fit_adnn fits of its folds score,
        # seeded by the network's width, which is 4 for every depth-1 cell
        ds = _random_dataset(2, seed=19, n=11, horizon=6, n_actions=2)
        grid = [(2, 1, 0.01), (3, 2, 0.2), (2, 1, 0.2), (3, 2, 0.01), (2, 1, 0.01)]
        cfg, seed = FitConfig(alpha0=0.2, batch_fraction=0.3, n_max=40, check_every=15), 6
        cv = cross_validate_adnn(ds, feature_dim=2, grid=grid, folds=3, cfg=cfg, seed=seed,
                                 actions_subset=subset)

        perm = substream(seed, 0xF01D).permutation(ds.n_subjects)
        folds = [(np.setdiff1d(perm, m), m) for m in np.array_split(perm, 3)]
        actions = subset or [1, 2]
        takes = {
            a: {int(0.3 * np.sum(ds.subset_subjects(train).actions == a)) for train, _ in folds}
            for a in actions
        }
        assert all(len(t) > 1 for t in takes.values())  # batches are padded
        reference = []
        for width, depth, lam in grid:
            arch = Architecture(2, width, depth)
            errors = []
            for fi, (train, valid) in enumerate(folds):
                network_width = width if depth > 1 else 4
                model = fit_adnn(ds.subset_subjects(train), arch, cfg, lam=lam,
                                 seed=derive_seed(seed, network_width, depth, fi),
                                 actions_subset=subset)
                held_out = ds.subset_subjects(valid)
                tr = flatten_transitions(held_out)
                squared = sum(
                    float(np.square(model.predict(tr.states[tr.actions == a], a)
                                    - tr.responses[tr.actions == a]).sum())
                    for a in actions
                )
                errors.append(squared / held_out.n_subjects)
            reference.append(((width, depth, lam), float(np.mean(errors))))
        assert cv.scores == reference
        assert cv.scores[0][1] == cv.scores[4][1]

    def test_depth_one_cells_of_any_width_train_one_network(self, monkeypatch):
        # a depth-1 cell builds and seeds the width-4 network; depth-2 cells
        # each keep their own
        calls = _count_trainer_calls(monkeypatch)
        ds = _random_dataset(2, seed=22, n=9, n_actions=2)
        cfg, lam = FitConfig(alpha0=0.2, batch_fraction=0.3, n_max=30, check_every=10), 0.05

        def cv(grid):
            return cross_validate_adnn(ds, 1, grid, folds=3, cfg=cfg, seed=5)

        grid = [(2, 1, lam), (8, 1, lam), (4, 1, lam), (2, 2, lam), (8, 2, lam)]
        scores = dict(cv(grid).scores)
        assert sorted(call[:2] for call in calls) == [(2, 2), (4, 1), (8, 2)]
        depth_one = cv([(4, 1, lam)]).scores[0][1]
        for width in (2, 4, 8):
            assert scores[(width, 1, lam)].hex() == depth_one.hex()
        for width in (2, 8):
            assert scores[(width, 2, lam)].hex() == cv([(width, 2, lam)]).scores[0][1].hex()
        assert scores[(2, 2, lam)] != scores[(8, 2, lam)]
        # the tie among widths goes to the smallest
        assert cv([(8, 1, lam), (4, 1, lam), (2, 1, lam)]).best == (2, 1, lam)

    def test_default_grid_trains_four_networks(self, monkeypatch):
        # one for depth 1 and one per depth-2 width: 16 cells x 5 folds
        calls = _count_trainer_calls(monkeypatch)
        ds = _random_dataset(2, seed=23, n=10, horizon=6, n_actions=2)
        cross_validate_adnn(ds, 1, PipelineConfig().grid, folds=5, cfg=FitConfig(n_max=1))
        assert (len(calls), sum(replicas for _, _, replicas in calls)) == (4, 80)

    def test_negative_penalty_rejected(self):
        ds = _random_dataset(2, seed=20, n=8)
        with pytest.raises(ValueError, match="lam must be >= 0"):
            cross_validate_adnn(ds, 1, [(2, 1, 0.1), (2, 1, -0.5)], folds=2,
                                cfg=FitConfig(n_max=1), seed=0)

    def test_divergence_raises(self):
        # the experiment harness retries at half step size on this error; a
        # diverged replica must not turn into an averaged NaN score
        ds = sample_trajectories(GenerativeModelSpec("linear", signal_dim=4), 20, 4, rng=1)
        with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match="iteration 50: non-finite cost"
        ):
            cross_validate_adnn(ds, 2, [(4, 1, 0.01), (4, 1, 0.1)], folds=2,
                                cfg=FitConfig(alpha0=1e6, n_max=50), seed=1)

    def test_trace_values_are_python_floats(self):
        ds = _random_dataset(2, seed=21, n=10, n_actions=2)
        arch = Architecture(feature_dim=1)
        cfg = FitConfig(batch_fraction=0.3, n_max=30, check_every=10)
        halves = ds.subset_subjects(np.arange(5)), ds.subset_subjects(np.arange(5, 10))
        fits = [(halves[0], 3), (halves[1], 4)]
        models = ([fit_adnn(ds, arch, cfg, lam=0.05, seed=2)]
                  + _train_replicas(arch, cfg, fits, [0.05, 0.5]))
        assert len(models) == 5
        for model in models:
            assert len(model.trace) == 4
            assert all(type(c) is float for entry in model.trace for c in entry.values())

    def test_too_many_folds_rejected(self):
        ds = _random_dataset(2, seed=13, n=4)
        with pytest.raises(ValueError, match="folds"):
            cross_validate_adnn(ds, 1, [(2, 1, 0.0)], folds=9,
                                cfg=FitConfig(n_max=1), seed=0)


class TestActiveInputs:
    def test_all_zero_columns_give_empty_set(self):
        m = make_model(scale=0.0)
        assert active_inputs(m) == []

    def test_zero_tolerance_keeps_generic_columns(self):
        m = make_model(seed=14)
        assert active_inputs(m, col_tol=0.0) == [0, 1, 2]

    @pytest.mark.parametrize("col_tol", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, col_tol):
        # it once passed, and no input was then active
        with pytest.raises(ValueError, match="col_tol must be >= 0 and finite"):
            active_inputs(make_model(seed=14), col_tol)
        with pytest.raises(ValueError, match="col_tol must be >= 0 and finite"):
            PipelineConfig(col_tol=col_tol)

    def test_relative_threshold(self):
        m = make_model(seed=15)
        w0, b0 = m.feature_layers[0]
        w0 = np.array(w0)
        w0[:, 0] *= 1e-4 / np.linalg.norm(w0[:, 0])
        m.feature_layers[0] = (w0, b0)
        assert 0 not in active_inputs(m, col_tol=0.05)


class TestResidualTest:
    def test_level_under_pure_noise_residuals(self):
        # predictor == 0 and response == noise: residuals independent of state
        rejections = 0
        for rep in range(20):
            ds = _random_dataset(2, seed=100 + rep, n=20, horizon=10, n_actions=2)

            class ZeroPredictor:
                def predict(self, states, action):
                    return np.zeros((states.shape[0], 3))

            report = residual_independence_pvalue(
                ds, ZeroPredictor(), n_permutations=199, seed=rep
            )
            rejections += report.p_value <= 0.1
        assert rejections <= 6


class SimgenTruth:
    """The closed-form ``E[(U, S') | S, A]`` of simgen data restricted to the
    four utility drivers, coordinates 0-3: they are the first signal block,
    whose next state is driven by coordinate 0."""

    def __init__(self, g_kind):
        self.g = g_function(g_kind)

    def predict(self, states, action):
        a01 = np.full(len(states), action - 1.0)
        next_mean = [mean for mean, _ in _block_law(self.g(states[:, :1]), a01)]
        return np.column_stack([_utility_mean(self.g, states, a01), *next_mean])


def drivers_at_paper_scale(g_kind, seed):
    """n=30 subjects of T=90 steps, restricted to coordinates 0-3."""
    ds = sample_trajectories(GenerativeModelSpec(g_kind), 30, 90, rng=seed)
    return ds.restrict_columns([0, 1, 2, 3])


def mean_squared_error(ds, model):
    """Squared prediction error of the response, per transition."""
    tr = flatten_transitions(ds)
    total = sum(float(np.square(model.predict(tr.states[tr.actions == a], a)
                                - tr.responses[tr.actions == a]).sum())
                for a in range(1, ds.n_actions + 1))
    return total / len(tr)


class TestSimgenTruth:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("g_kind", ["linear", "quad", "exp"])
    def test_truth_passes_the_residual_test(self, g_kind, seed):
        ds = drivers_at_paper_scale(g_kind, seed)
        report = residual_independence_pvalue(ds, SimgenTruth(g_kind), n_permutations=999,
                                              seed=seed)
        assert report.p_value > 0.05

    def test_default_schedule_fit_nears_the_truth(self):
        # (S1, S1 + S2, S3 + S4) carries the linear model's mean, so three
        # features suffice; the fit's excess over the truth's error (0.527,
        # the noise variance) was 0.025
        ds = drivers_at_paper_scale("linear", 1)
        model = fit_adnn(ds, Architecture(3, 2, 1), FitConfig(), lam=0.01, seed=1)
        excess = mean_squared_error(ds, model) - mean_squared_error(ds, SimgenTruth("linear"))
        assert excess < 0.05


class TestDimensionSelection:
    def test_single_dim_equal_to_state_dim(self):
        ds = linear_response_dataset(n=25, horizon=12, seed=16)
        cfg = PipelineConfig(
            dims=(1,), tau_dim=0.05, grid=((4, 1, 0.001),),
            fit=FitConfig(alpha0=0.3, n_max=3000, check_every=25),
            folds=2, n_permutations=999,
        )
        sel = select_feature_dimension(ds, cfg, seed=7)
        assert sel.feature_dim == 1
        assert not sel.none_sufficient
        assert len(sel.reports) == 1

    def test_p_value_equal_to_tau_dim_rejects_the_dimension(self, monkeypatch):
        # select_feature_dimension states the rule p > tau_dim; the residual
        # test only returns p
        tau_dim = 0.05
        p_values = iter([tau_dim, float(np.nextafter(tau_dim, 1.0))])

        def at_the_boundary(ds, model, **kwargs):
            return dcov.TestReport(statistic=[], p_value=next(p_values), strata=[],
                                   pooled_u=1, n_permutations=kwargs["n_permutations"])

        monkeypatch.setattr(adnn, "residual_independence_pvalue", at_the_boundary)
        cfg = PipelineConfig(dims=(1, 2), tau_dim=tau_dim, grid=((2, 1, 0.01),), folds=2,
                             fit=FitConfig(n_max=1))
        sel = select_feature_dimension(_random_dataset(3, seed=25), cfg, seed=1)
        assert [(r, report.p_value) for r, _, _, report in sel.reports] == [
            (1, tau_dim), (2, float(np.nextafter(tau_dim, 1.0)))]
        assert sel.feature_dim == 2
        assert not sel.none_sufficient

    def test_dims_must_be_ascending(self):
        # checked when the config is made, so both pipelines fail alike;
        # True is an Integral, and once failed only after screening
        for dims in ((2, 1), (0, 1), (), (1.5,), (True,)):
            with pytest.raises(ValueError, match="dims must be nonempty ascending positive"):
                PipelineConfig(dims=dims)

    def test_default_dims_ladder(self):
        assert default_dims(4) == [1, 2, 3, 4]
        assert default_dims(10) == [1, 2, 3, 4, 6, 8, 10]
        assert default_dims(1) == [1]


def single_driver_dataset(n=30, horizon=60, seed=0):
    """Utility tracks state coordinate 0; coordinates 1, 2 are white noise."""
    rng = substream(2000 + seed)
    states = np.empty((n, horizon + 1, 3))
    states[:, 0] = rng.normal(size=(n, 3))
    actions = rng.integers(1, 3, size=(n, horizon))
    utilities = np.empty((n, horizon))
    for t in range(horizon):
        a01 = actions[:, t] - 1.0
        drift = (1 - a01) * states[:, t, 0] - a01 * states[:, t, 0]
        states[:, t + 1, 0] = 0.8 * states[:, t, 0] + 0.3 * rng.normal(size=n)
        states[:, t + 1, 1:] = rng.normal(size=(n, 2))
        utilities[:, t] = 2.0 * drift + 0.1 * rng.normal(size=n)
    return TrajectoryDataset(states, actions, utilities, n_actions=2)


class TestPipeline:
    def test_single_driver_recovered(self):
        ds = single_driver_dataset()
        cfg = PipelineConfig(
            tau=0.1, tau_dim=0.05,
            grid=((4, 1, 0.003),),
            folds=2,
            fit=FitConfig(alpha0=0.2, n_max=4000,
                          batch_fraction=0.1, check_every=25),
            cv_fit=FitConfig(alpha0=0.2, n_max=1000,
                             batch_fraction=0.1, check_every=25),
            n_permutations=999,
            seed=5,
        )
        result = construct_sufficient_features(ds, cfg)
        assert result.variables == [0]
        assert result.feature_map is not None
        assert result.feature_map.input_indices == [0]

    def test_pure_noise_returns_empty(self):
        rng = substream(3000)
        ds = TrajectoryDataset(
            states=rng.normal(size=(25, 41, 3)),
            actions=rng.integers(1, 3, size=(25, 40)),
            utilities=rng.normal(size=(25, 40)),
            n_actions=2,
        )
        result = construct_sufficient_features(
            ds, PipelineConfig(seed=2, n_permutations=199)
        )
        assert result.variables == []
        assert result.feature_map is None
        assert "utility-independent-of-state" in result.flags

    def test_iteration_limit_keeps_fitted_variables(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", signal_dim=16), 30, 4, rng=1)
        cfg = PipelineConfig(
            n_permutations=199, grid=((4, 1, 0.1),), folds=2,
            cv_fit=FitConfig(n_max=20), fit=FitConfig(n_max=50), dims=(1,),
            col_tol=0.6, screen_n_max=2, seed=1, max_iterations=1,
        )
        result = construct_sufficient_features(ds, cfg)
        assert "iteration-limit-reached" in result.flags
        last = result.iterations[-1]
        assert set(last.active) < set(last.variables)  # the set shrank
        assert result.variables == last.variables
        assert result.feature_map.input_indices == result.variables
        feats = result.feature_map.transform(ds.states[:, 0])
        assert feats.shape == (ds.n_subjects, result.feature_dim)

    def test_none_sufficient_flagged_once(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", signal_dim=16), 30, 4, rng=2)
        cfg = PipelineConfig(
            n_permutations=199, grid=((4, 1, 0.1),), folds=2,
            cv_fit=FitConfig(n_max=20), fit=FitConfig(n_max=50), dims=(1,),
            col_tol=0.6, screen_n_max=2, seed=1, max_iterations=3,
        )
        result = construct_sufficient_features(ds, cfg)
        assert len(result.iterations) == 3
        assert all(it.none_sufficient for it in result.iterations)
        assert result.flags == ("none-sufficient", "iteration-limit-reached")

    def test_pipeline_config_json_round_trip(self):
        # the default grid is a tuple of cells, so it round-trips like a set one
        for cfg in (PipelineConfig(tau=0.2, tau_dim=0.07, dims=(1, 2), grid=((4, 1, 0.01),),
                                   cv_fit=FitConfig(n_max=10), seed=3),
                    PipelineConfig()):
            again = config_from_jsonable(
                PipelineConfig, json.loads(json.dumps(dataclasses.asdict(cfg)))
            )
            assert again == cfg

    def test_config_loader_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="'folds_' for PipelineConfig"):
            config_from_jsonable(PipelineConfig, {"folds_": 3})
        with pytest.raises(ValueError, match="'nmax' for FitConfig"):
            config_from_jsonable(PipelineConfig, {"fit": {"nmax": 3}})

    def test_config_loader_rejects_non_object_nested_config(self):
        for bad in (None, 5, [1]):
            with pytest.raises(ValueError, match="'fit' of PipelineConfig"):
                config_from_jsonable(PipelineConfig, {"fit": bad})
        assert config_from_jsonable(PipelineConfig, {"cv_fit": None}).cv_fit is None
        with pytest.raises(ValueError, match="'cv_fit' of PipelineConfig"):
            config_from_jsonable(PipelineConfig, {"cv_fit": 5})

    def test_config_loader_rejects_wrong_json_kinds(self):
        for key, bad in (("folds", "2"), ("folds", 2.0), ("folds", True), ("folds", None),
                         ("tau", "0.1"), ("dims", 2), ("screen_n_max", "3")):
            with pytest.raises(ValueError, match=f"'{key}' of PipelineConfig"):
                config_from_jsonable(PipelineConfig, {key: bad})
        # PipelineConfig has no string field left; a number for one elsewhere
        with pytest.raises(ValueError, match="'oracle_variant' of ExperimentConfig"):
            config_from_jsonable(ExperimentConfig, {"oracle_variant": 1})
        with pytest.raises(ValueError, match="PipelineConfig must be a JSON object"):
            config_from_jsonable(PipelineConfig, [])
        cfg = config_from_jsonable(PipelineConfig, {"col_tol": 1, "dims": [1, 2],
                                                    "screen_n_max": None})
        assert (cfg.col_tol, cfg.dims, cfg.screen_n_max) == (1, (1, 2), None)


class TestConfigChecks:
    # at the time of writing, alpha0 -0.1 trained uphill to the end
    @pytest.mark.parametrize("key,value", [
        ("alpha0", 0.0), ("alpha0", -0.1), ("alpha0", math.inf), ("alpha0", math.nan)])
    def test_fit_config_rejects_untrainable_schedule(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be"):
            FitConfig(**{key: value})

    def test_fit_config_has_no_step_size_decay(self):
        # every step has the size alpha0, so the decay's beta is an unknown key
        with pytest.raises(ValueError, match="unknown key 'beta' for FitConfig"):
            config_from_jsonable(PipelineConfig, {"fit": {"beta": 0.0}})

    # these once failed only inside screening or the residual test, after an
    # experiment had sampled its data and run its other methods
    @pytest.mark.parametrize("key,value,message", [
        ("tau", 0.0, "tau must be in (0, 1)"), ("tau", 1.0, "tau must be in (0, 1)"),
        ("n_permutations", 0, "n_permutations must be >= 1"),
        ("min_stratum", 1, "min_stratum must be >= 2"),
        ("screen_n_max", 0, "screen_n_max must be >= 1 or None")])
    def test_pipeline_config_rejects_bad_test_settings(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PipelineConfig(**{key: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_jsonable(ExperimentConfig, {"pipeline": {key: value}})

    @pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_penalty_rejected(self, lam):
        # it once passed, and every fit then diverged
        with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
            PipelineConfig(grid=((2, 1, lam),))
        with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
            fit_adnn(_random_dataset(2, seed=24), Architecture(1), FitConfig(n_max=1), lam=lam)

    def test_default_grid_has_one_cell_per_network(self):
        def network(cell):
            width, depth, lam = cell
            model = _init_model(Architecture(1, width, depth), 3, [1], substream(0))
            return tuple(w.shape for w, _ in model.feature_layers + model.heads[1]), lam

        grid = PipelineConfig().grid
        assert len(grid) == 16
        assert len({network(cell) for cell in grid}) == 16

    def test_pipeline_config_accepts_edge_values(self):
        cfg = PipelineConfig(tau=0.999, n_permutations=1, min_stratum=2, screen_n_max=1)
        assert PipelineConfig(screen_n_max=None).screen_n_max is None
        assert (cfg.n_permutations, cfg.min_stratum, cfg.screen_n_max) == (1, 2, 1)
