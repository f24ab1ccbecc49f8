import dataclasses
import json

import numpy as np
import pytest

from suffmdp.core import TrajectoryDataset, flatten_transitions
from suffmdp.features import IdentityFeatureMap
from suffmdp.qlearn import (
    LinearQ,
    NeuralQ,
    evaluate_policy,
    fit_q_linear,
    fit_q_nn,
    greedy_actions,
    q_approximator_from_jsonable,
)
from suffmdp.rng import substream
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def test_greedy_ties_go_to_smallest_action():
    # value of action a is w0 + w1 * feature
    q = LinearQ({1: np.array([0.0, 1.0]), 2: np.array([1.0, 0.0]),
                 3: np.array([1.0, 0.0])}, gamma=0.9)
    feats = np.array([[0.5], [1.0], [2.0]])
    # 0.5: actions 2 and 3 tie at 1 above 0.5; 1.0: all three tie; 2.0: action 1 wins
    assert greedy_actions(q, feats).tolist() == [2, 1, 1]


@pytest.mark.parametrize("kind", ["linear", "nn"])
def test_q_approximator_json_round_trip(kind):
    ds = sample_trajectories(GenerativeModelSpec("linear", 0), 10, 4, rng=1)
    tr = flatten_transitions(ds)
    fmap = IdentityFeatureMap(ds.state_dim)
    fit = fit_q_linear if kind == "linear" else fit_q_nn
    q = fit(tr, fmap, epochs=1, seed=2, n_actions=ds.n_actions)
    again = q_approximator_from_jsonable(json.loads(json.dumps(q.to_jsonable())))
    assert type(again) is type(q)
    assert again.gamma == q.gamma
    assert again.actions == q.actions
    feats = substream(3).normal(size=(7, ds.state_dim))
    assert np.array_equal(again.action_values(feats), q.action_values(feats))


def test_unknown_q_kind_rejected():
    with pytest.raises(ValueError, match="unknown Q approximator kind"):
        q_approximator_from_jsonable({"kind": "tabular"})


@pytest.mark.parametrize("definition", ["per_step_mean", "discounted_sum"])
def test_evaluate_policy_deterministic_given_seed(definition):
    spec = GenerativeModelSpec("linear", 0)
    q = NeuralQ(
        {a: [(substream(a).normal(size=(3, spec.state_dim)), np.zeros(3)),
             (substream(10 + a).normal(size=3), 0.0)] for a in (1, 2)},
        gamma=0.9,
    )
    fmap = IdentityFeatureMap(spec.state_dim)

    def value(seed):
        return evaluate_policy(spec, fmap, q, n_rollouts=20, horizon=6, seed=seed,
                               definition=definition)

    first = value(4)
    assert dataclasses.asdict(value(4)) == dataclasses.asdict(first)
    assert first.definition == definition
    assert value(5).mean_outcome != first.mean_outcome


def test_fit_q_linear_moves_toward_fixed_point():
    # one state, one action, utility u every step: Q = u / (1 - gamma)
    u, gamma = 1.0, 0.9
    ds = TrajectoryDataset(states=np.zeros((10, 6, 1)), actions=np.ones((10, 5), dtype=int),
                           utilities=np.full((10, 5), u), n_actions=1)
    tr = flatten_transitions(ds)
    target = u / (1 - gamma)
    errors = []
    for epochs in (1, 5, 20, 60):
        q = fit_q_linear(tr, IdentityFeatureMap(1), gamma=gamma, epochs=epochs, seed=0)
        value = float(q.action_values(np.zeros((1, 1)))[0, 0])
        assert 0.0 < value < target
        errors.append(target - value)
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.05 * target
