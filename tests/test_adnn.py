import dataclasses
import json
import math

import numpy as np
import pytest

from suffmdp.adnn import (
    AdnnModel,
    Architecture,
    ConvergenceError,
    FitConfig,
    _batch_constants,
    _batch_gradients,
    _costs_by_action,
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
from suffmdp.features import NetworkFeatureMap
from suffmdp.rng import derive_seed, substream
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def make_model(input_dim=3, feature_dim=2, hidden=4, depth=2, n_actions=2,
               seed=0, scale=1.0):
    arch = Architecture(feature_dim=feature_dim, hidden_width=hidden, depth=depth)
    rng = substream(seed)

    def layers(widths):
        return [
            (scale * rng.normal(size=(o, i)), scale * rng.normal(size=o))
            for i, o in zip(widths[:-1], widths[1:])
        ]

    return AdnnModel(
        architecture=arch,
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
        arch = Architecture(feature_dim=1, depth=1)
        model = AdnnModel(
            architecture=arch,
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
        arch = Architecture(feature_dim=2, depth=1)
        bias = np.array([1.5, -2.0, 0.25])
        model = AdnnModel(
            architecture=arch,
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
    (cost,) = _costs_by_action(tr, tr.responses, ds.n_subjects, model, lam, [1]).values()
    return cost


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
        assert one_action_cost(ds, m, 0.0) == pytest.approx(manual / ds.n_subjects)

    def test_group_penalty_arithmetic(self):
        # first-layer columns with norms 3 and 4 add 7 * lam to the cost
        ds = linear_response_dataset(n=4, horizon=2, seed=7)
        ds = TrajectoryDataset(
            np.concatenate([ds.states, ds.states], axis=2),
            ds.actions, ds.utilities, n_actions=1,
        )
        arch = Architecture(feature_dim=2, depth=1)
        model = AdnnModel(
            architecture=arch,
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
        arch = Architecture(feature_dim=1, depth=1)
        model = AdnnModel(
            architecture=arch,
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
            architecture=m.architecture,
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


def replica_gradients(s, y, model, lam, action):
    """One replica's batch gradients through a one-replica stacked call."""
    f_g, h_g = _batch_gradients(s[None], y[None], _batch_constants([len(s)], [lam]),
                                _stack([model]), action)
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
        arch = Architecture(feature_dim=1, depth=1)
        model = AdnnModel(
            architecture=arch,
            feature_layers=[(np.zeros((1, 1)), np.zeros(1))],
            heads={1: [(np.zeros((2, 1)), np.array([1.0, 0.0]))]},
        )
        f_g, h_g = replica_gradients(*action_batch(ds, 1), model, 0.0, 1)
        for dw, db in f_g + h_g:
            assert np.allclose(dw, 0.0) and np.allclose(db, 0.0)

    def test_only_requested_head_gets_gradients(self):
        stacked = _stack([make_model(seed=9), make_model(seed=10)])
        ds = _random_dataset(3, seed=5, n_actions=2)
        s, y = action_batch(ds, 1)
        s, y = np.stack([s, s]), np.stack([y, y])
        constants = _batch_constants([len(s[0])] * 2, [0.1, 0.1])
        f_g, h_g = _batch_gradients(s, y, constants, stacked, 1)
        assert len(h_g) == len(stacked.heads[1])
        for (dw, db), (w, b) in zip(f_g + h_g, stacked.feature_layers + stacked.heads[1]):
            assert dw.shape == w.shape and db.shape == b.shape
        with pytest.raises(KeyError):
            _batch_gradients(s, y, constants, stacked, 3)  # no such head

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
        f_g, h_g = _batch_gradients(s, y, _batch_constants(takes, lams), _stack(models), 2)
        for r, (model, lam, take) in enumerate(zip(models, lams, takes)):
            f_ref, h_ref = replica_gradients(s[r, :take], y[r, :take], model, lam, 2)
            for (dw, db), (dw_ref, db_ref) in zip(f_g + h_g, f_ref + h_ref, strict=True):
                assert np.array_equal(dw[r], dw_ref) and np.array_equal(db[r, 0], db_ref)


def _random_dataset(p, seed=0, n=8, horizon=4, n_actions=1):
    rng = substream(1000 + seed)
    return TrajectoryDataset(
        states=rng.normal(size=(n, horizon + 1, p)),
        actions=rng.integers(1, n_actions + 1, size=(n, horizon)),
        utilities=rng.normal(size=(n, horizon)),
        n_actions=n_actions,
    )


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
        cfg = FitConfig(alpha0=0.3, beta=800.0, n_max=4000, check_every=20)
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
        ds = _random_dataset(2, seed=18, n=8)
        grid = [(2, 1, 0.01), (2, 1, 0.5), (3, 1, 0.01), (3, 1, 0.5)]
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
        # every cell scores exactly what lone fit_adnn fits of its folds score
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
                model = fit_adnn(ds.subset_subjects(train), arch, cfg, lam=lam,
                                 seed=derive_seed(seed, width, depth, fi), actions_subset=subset)
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
        replicas = [(halves[0], 0.05, 3), (halves[0], 0.5, 3), (halves[1], 0.05, 4)]
        models = [fit_adnn(ds, arch, cfg, lam=0.05, seed=2)] + _train_replicas(arch, cfg, replicas)
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
                ds, ZeroPredictor(), n_permutations=199, seed=rep, tau=0.1
            )
            rejections += report.p_value <= 0.1
        assert rejections <= 6


class TestDimensionSelection:
    def test_single_dim_equal_to_state_dim(self):
        ds = linear_response_dataset(n=25, horizon=12, seed=16)
        cfg = PipelineConfig(
            dims=(1,), tau_dim=0.05, grid=((4, 1, 0.001),),
            fit=FitConfig(alpha0=0.3, beta=800.0, n_max=3000, check_every=25),
            folds=2, n_permutations=999,
        )
        sel = select_feature_dimension(ds, cfg, seed=7)
        assert sel.feature_dim == 1
        assert not sel.none_sufficient
        assert len(sel.reports) == 1

    def test_dims_must_be_ascending(self):
        # checked when the config is made, so both pipelines fail alike
        for dims in ((2, 1), (0, 1), (), (1.5,)):
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
            fit=FitConfig(alpha0=0.2, beta=800.0, n_max=4000,
                          batch_fraction=0.1, check_every=25),
            cv_fit=FitConfig(alpha0=0.2, beta=400.0, n_max=1000,
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
        cfg = PipelineConfig(
            tau=0.2, tau_dim=0.07, dims=(1, 2), grid=((4, 1, 0.01),),
            cv_fit=FitConfig(n_max=10), seed=3,
        )
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
        cfg = config_from_jsonable(PipelineConfig, {"tau": 1, "dims": [1, 2],
                                                    "screen_n_max": None})
        assert (cfg.tau, cfg.dims, cfg.screen_n_max) == (1, (1, 2), None)
