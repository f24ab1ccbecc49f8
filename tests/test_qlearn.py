import dataclasses
import json

import numpy as np
import pytest

from suffmdp.adnn import ConvergenceError
from suffmdp.baselines import pca_feature_map
from suffmdp.core import TrajectoryDataset, Transitions, flatten_transitions
from suffmdp.features import CoordinateFeatureMap, FeatureMap, _sigmoid
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


def all_columns(p):
    """The map of every raw coordinate, as the harness's ``raw`` method builds it."""
    return CoordinateFeatureMap(p, range(p))


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
    fmap = all_columns(ds.state_dim)
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


@pytest.mark.parametrize(
    "data,message",
    [({"kind": "linear", "gamma": 0.9}, "linear Q approximator JSON has no key 'weights'"),
     ({"kind": "neural", "gamma": 0.9}, "neural Q approximator JSON has no key 'nets'"),
     ({"kind": "neural", "nets": {}}, "neural Q approximator JSON has no key 'gamma'"),
     ({"kind": "neural", "gamma": 0.9, "nets": {"1": [{"bias": [0.0]}]}},
      "neural Q approximator JSON has no key 'weights'")],
    ids=["linear-weights", "neural-nets", "neural-gamma", "layer-weights"])
def test_missing_q_key_named(data, message):
    with pytest.raises(ValueError, match=message):
        q_approximator_from_jsonable(data)


@pytest.mark.parametrize(
    "data,message",
    [([{"kind": "linear"}], "Q approximator must be a JSON object, got"),
     ({"kind": "linear", "gamma": 0.9, "weights": [[0.0]]},
      "key 'weights' of linear Q approximator must be of type dict"),
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": 0.5}},
      "key '1' of linear Q approximator weights must be of type tuple"),
     ({"kind": "neural", "gamma": "0.9", "nets": {}},
      "key 'gamma' of neural Q approximator must be of type float"),
     ({"kind": "neural", "gamma": 0.9, "nets": {"1": [[0.0]]}},
      "network layer must be a JSON object"),
     ({"kind": "linear", "gamma": 0.9, "weights": {}, "nets": {}},
      "unknown key 'nets' for linear Q approximator"),
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": [0.0, 1.0], "2": [{}, 1.0]}},
      "linear Q weights must hold numbers only"),
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": [0.5, None]}},
      "linear Q weights must hold numbers only"),
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": ["0.5", 1.0]}},
      "linear Q weights must hold numbers only"),
     # numpy would read the true as 1.0
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": [0.5, True]}},
      "linear Q weights must hold numbers only"),
     ({"kind": "neural", "gamma": 0.9,
       "nets": {"1": [{"weights": [[0.5, True]], "bias": [0.0]}]}},
      "network layer weights must hold numbers only"),
     # json.load reads the tokens NaN and Infinity
     ({"kind": "linear", "gamma": 0.9, "weights": {"1": [0.5, float("nan")]}},
      "linear Q weights must be finite"),
     ({"kind": "neural", "gamma": 0.9,
       "nets": {"1": [{"weights": [[0.5]], "bias": [float("inf")]}]}},
      "network layer bias must be finite")],
    ids=["list", "linear-weights", "action-weights", "gamma", "layer", "unknown-key",
         "weights-object", "weights-null", "weights-string", "weights-bool",
         "layer-weights-bool", "weights-nan", "layer-bias-infinity"])
def test_wrong_json_kind_rejected(data, message):
    with pytest.raises(ValueError, match=message):
        q_approximator_from_jsonable(data)


@pytest.mark.parametrize("kind,params", [("linear", {"weights": {}}), ("neural", {"nets": {}})])
@pytest.mark.parametrize("gamma", [float("nan"), 1.0, 0.0])
def test_gamma_outside_unit_interval_rejected(kind, params, gamma):
    # json.load reads the token NaN; a NaN discount gave a NaN discounted value
    with pytest.raises(ValueError, match=rf"{kind} Q approximator gamma must be in \(0, 1\)"):
        q_approximator_from_jsonable({"kind": kind, "gamma": gamma, **params})


def test_q_kind_is_not_a_constructor_argument():
    # a kind given at construction could write a file the reader rejects
    weights = {1: np.array([0.0, 1.0])}
    with pytest.raises(TypeError):
        LinearQ(weights, 0.9, "neural")
    assert LinearQ(weights, 0.9).to_jsonable()["kind"] == "linear"
    assert NeuralQ({}, 0.9).to_jsonable()["kind"] == "neural"


@pytest.mark.parametrize("definition", ["per_step_mean", "discounted_sum"])
def test_evaluate_policy_deterministic_given_seed(definition):
    spec = GenerativeModelSpec("linear", 0)
    q = NeuralQ(
        {a: [(substream(a).normal(size=(3, spec.state_dim)), np.zeros(3)),
             (substream(10 + a).normal(size=3), 0.0)] for a in (1, 2)},
        gamma=0.9,
    )
    fmap = all_columns(spec.state_dim)

    def value(seed):
        return evaluate_policy(spec, fmap, q, n_rollouts=20, horizon=6, seed=seed,
                               definition=definition)

    first = value(4)
    assert dataclasses.asdict(value(4)) == dataclasses.asdict(first)
    assert first.definition == definition
    assert value(5).mean_outcome != first.mean_outcome


@pytest.mark.parametrize("levels", [(1, 2, 3), (0, 1), (2,)], ids=["1-3", "0-1", "2-only"])
def test_evaluate_policy_rejects_other_action_levels(levels):
    # the generative model steps with actions 1 and 2 only; action 3 read as
    # A = 2 gave a NaN value, and action 0 as A = -1
    spec = GenerativeModelSpec("linear", 0)
    q = LinearQ({a: np.zeros(1 + spec.state_dim) for a in levels}, gamma=0.9)
    with pytest.raises(ValueError, match=r"not the generative model's \[1, 2\]"):
        evaluate_policy(spec, all_columns(spec.state_dim), q, n_rollouts=2, horizon=2)


def test_fit_q_linear_moves_toward_fixed_point():
    # one state, one action, utility u every step: Q = u / (1 - gamma)
    u, gamma = 1.0, 0.9
    ds = TrajectoryDataset(states=np.zeros((10, 6, 1)), actions=np.ones((10, 5), dtype=int),
                           utilities=np.full((10, 5), u), n_actions=1)
    tr = flatten_transitions(ds)
    target = u / (1 - gamma)
    errors = []
    for epochs in (1, 5, 20, 60):
        q = fit_q_linear(tr, all_columns(1), gamma=gamma, epochs=epochs, seed=0,
                         n_actions=1)
        value = float(q.action_values(np.zeros((1, 1)))[0, 0])
        assert 0.0 < value < target
        errors.append(target - value)
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.05 * target


def test_fit_q_nn_moves_toward_fixed_point():
    u, gamma = 1.0, 0.9
    ds = TrajectoryDataset(states=np.zeros((10, 6, 1)), actions=np.ones((10, 5), dtype=int),
                           utilities=np.full((10, 5), u), n_actions=1)
    tr = flatten_transitions(ds)
    target = u / (1 - gamma)
    errors = []
    for epochs in (1, 5, 20, 60):
        q = fit_q_nn(tr, all_columns(1), gamma=gamma, epochs=epochs, seed=0,
                     n_actions=1)
        errors.append(abs(target - float(q.action_values(np.zeros((1, 1)))[0, 0])))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.05 * target


def test_fit_q_nn_prefers_the_rewarded_action():
    rng = substream(5)
    actions = rng.integers(1, 3, size=(20, 5))
    ds = TrajectoryDataset(states=rng.standard_normal((20, 6, 2)), actions=actions,
                           utilities=(actions == 2).astype(float), n_actions=2)
    q = fit_q_nn(flatten_transitions(ds), all_columns(2), gamma=0.5, epochs=5, seed=1,
                 n_actions=2)
    assert isinstance(q, NeuralQ) and q.actions == [1, 2]
    assert (greedy_actions(q, rng.standard_normal((50, 2))) == 2).all()


@pytest.mark.parametrize("fit", [fit_q_linear, fit_q_nn], ids=["linear", "nn"])
def test_diverged_fit_raises(fit):
    # at this step size the parameters overflow to infinity and then NaN; a
    # greedy policy over NaN values always picks action 1, so a returned
    # fit would score as a finite policy value
    ds = sample_trajectories(GenerativeModelSpec("linear", 0), 20, 11, rng=1)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        fit(flatten_transitions(ds), all_columns(ds.state_dim), epochs=1, alpha0=1e4,
            seed=2, n_actions=ds.n_actions)


@pytest.mark.parametrize("fit", [fit_q_linear, fit_q_nn], ids=["linear", "nn"])
@pytest.mark.parametrize("epochs", [0, -1])
def test_epochs_below_one_rejected(fit, epochs):
    # no pass returned all-zero linear weights or the networks' initial draw
    tr = _transitions([1, 2, 1])
    with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
        fit(tr, all_columns(2), epochs=epochs, n_actions=2)


def _transitions(actions):
    rng = substream(8)
    n = len(actions)
    return Transitions(states=rng.standard_normal((n, 2)), actions=np.asarray(actions),
                       utilities=rng.standard_normal(n), next_states=rng.standard_normal((n, 2)))


@pytest.mark.parametrize("fit", [fit_q_linear, fit_q_nn], ids=["linear", "nn"])
@pytest.mark.parametrize("actions,n_actions", [([1, 0, 2], 2), ([1, 2, 2], 1)],
                         ids=["action-zero", "above-n-actions"])
def test_actions_outside_range_rejected(fit, actions, n_actions):
    with pytest.raises(ValueError, match="actions must lie in 1.."):
        fit(_transitions(actions), all_columns(2), epochs=1, n_actions=n_actions)


# Per-update loops of the fits as first written, one dict entry per action and
# the generic numpy calls; the fits must reproduce them bit for bit.
def _reference_linear(feats, feats_next, actions, utilities, n_act, epochs, seed,
                      gamma=0.9, alpha0=0.05, beta=10000.0):
    x = np.column_stack([np.ones(len(feats)), feats])
    x_next = np.column_stack([np.ones(len(feats)), feats_next])
    weights = {a: np.zeros(x.shape[1]) for a in range(1, n_act + 1)}
    acts = sorted(weights)
    rng = substream(seed)
    k = 0
    for _ in range(epochs):
        for i in rng.permutation(len(x)):
            a = int(actions[i])
            best_next = max(weights[b] @ x_next[i] for b in acts)
            delta = utilities[i] + gamma * best_next - weights[a] @ x[i]
            weights[a] = weights[a] + alpha0 / (1.0 + k / beta) * delta * x[i]
            k += 1
    return weights


def _reference_forward(x, net):
    # the package's sigmoid: this checks the update loop, not the activation
    (w1, b1), (w2, b2) = net
    hidden = _sigmoid(x @ np.swapaxes(w1, -1, -2) + b1)
    return hidden @ w2 + b2, hidden


def _reference_nn(feats, feats_next, actions, utilities, n_act, epochs, seed,
                  gamma=0.9, hidden_width=10, alpha0=0.01, beta=10000.0):
    f_dim = feats.shape[1]
    rng = substream(seed)
    nets = {}
    for a in range(1, n_act + 1):
        lim1 = np.sqrt(6.0 / (f_dim + hidden_width))
        w1 = rng.uniform(-lim1, lim1, size=(hidden_width, f_dim))
        lim2 = np.sqrt(6.0 / (hidden_width + 1))
        w2 = rng.uniform(-lim2, lim2, size=hidden_width)
        nets[a] = [(w1, np.zeros(hidden_width)), (w2, 0.0)]
    acts = sorted(nets)
    k = 0
    for _ in range(epochs):
        for i in rng.permutation(len(feats)):
            a = int(actions[i])
            best_next = max(_reference_forward(feats_next[i], nets[b])[0] for b in acts)
            v, hidden = _reference_forward(feats[i], nets[a])
            delta = utilities[i] + gamma * best_next - v
            alpha = alpha0 / (1.0 + k / beta)
            (w1, b1), (w2, b2) = nets[a]
            dz = w2 * hidden * (1.0 - hidden)
            nets[a] = [
                (w1 + alpha * delta * np.outer(dz, feats[i]), b1 + alpha * delta * dz),
                (w2 + alpha * delta * hidden, b2 + alpha * delta),
            ]
            k += 1
    return nets


def _bit_identity_case(fmap_kind, n_actions, absent):
    if fmap_kind == "identity-64":
        # the harness's width, 64 state coordinates, and 300 transitions:
        # BLAS ddot takes other code paths on longer rows
        ds = sample_trajectories(GenerativeModelSpec("linear", 0), 30, 11, rng=11)
    else:
        ds = sample_trajectories(GenerativeModelSpec("linear", 3, signal_dim=8), 8, 5, rng=11)
    # recode the two sampled levels so that level `absent` never occurs
    levels = [a for a in range(1, n_actions + 1) if a != absent][:2]
    actions = np.where(ds.actions == 1, levels[0], levels[-1])
    ds = TrajectoryDataset(ds.states, actions, ds.utilities, n_actions=n_actions)
    fmap = {
        "identity": lambda: all_columns(ds.state_dim),
        "identity-64": lambda: all_columns(ds.state_dim),
        "coordinate": lambda: CoordinateFeatureMap(ds.state_dim, [0, 2, 5]),
        "pca": lambda: pca_feature_map(ds),
    }[fmap_kind]()
    return flatten_transitions(ds), fmap


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("n_actions,absent", [(2, None), (2, 2), (3, 2)],
                         ids=["2-actions", "2-actions-2-absent", "3-actions-2-absent"])
@pytest.mark.parametrize("fmap_kind", ["identity", "coordinate", "pca", "identity-64"])
@pytest.mark.parametrize("kind", ["linear", "nn"])
def test_fits_match_reference_loops_bit_for_bit(kind, fmap_kind, n_actions, absent, epochs):
    tr, fmap = _bit_identity_case(fmap_kind, n_actions, absent)
    args = (fmap.transform(tr.states), fmap.transform(tr.next_states), tr.actions,
            tr.utilities, n_actions, epochs, 4)
    if kind == "linear":
        q = fit_q_linear(tr, fmap, epochs=epochs, seed=4, n_actions=n_actions)
        got, want = q.weights, _reference_linear(*args)
    else:
        q = fit_q_nn(tr, fmap, epochs=epochs, seed=4, n_actions=n_actions)
        got, want = q.nets, _reference_nn(*args)
    assert list(got) == list(range(1, n_actions + 1)) == list(want)
    assert _param_bytes(got) == _param_bytes(want)


class StatesAsGiven(FeatureMap):
    """The states themselves: what a fit over every column is checked against."""

    def __init__(self, p):
        self.p = p

    @property
    def dim(self):
        return self.p

    def transform(self, states):
        return np.asarray(states, dtype=np.float64)


@pytest.mark.parametrize("kind", ["linear", "nn"])
def test_coordinate_map_over_every_column_fits_as_identity(kind):
    # the fits' last bits depend on the feature array's layout, so a
    # coordinate map must hand them the layout of the states themselves
    ds = sample_trajectories(GenerativeModelSpec("linear", 0), 30, 11, rng=11)
    tr, p = flatten_transitions(ds), ds.state_dim
    fit = fit_q_linear if kind == "linear" else fit_q_nn
    got, want = (fit(tr, fmap, epochs=2, seed=4, n_actions=ds.n_actions)
                 for fmap in (all_columns(p), StatesAsGiven(p)))
    attr = "weights" if kind == "linear" else "nets"
    assert _param_bytes(getattr(got, attr)) == _param_bytes(getattr(want, attr))


def _param_bytes(params):
    """Per action, the bytes of a weight vector or of each network parameter."""
    def flat(p):
        return [p] if isinstance(p, np.ndarray) else [x for layer in p for x in layer]

    return {a: [np.asarray(x).tobytes() for x in flat(p)] for a, p in params.items()}
