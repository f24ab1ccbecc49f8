"""Q-learning over a feature map, and Monte Carlo policy evaluation.

Both approximators learn ``Q(s, a)`` as a function of ``phi(s)`` by
stochastic semi-gradient updates over shuffled passes through the batch of
transitions (the array view of ``core.flatten_transitions``):

    theta <- theta + alpha * (u + gamma * max_b F(s', b) - F(s, a)) * dF/dtheta

with the bootstrap target held fixed within a step.  The linear form is
``F(s, a) = theta_a . (1, phi(s))``; the neural form gives each action a
single-hidden-layer network.  Greedy policies break ties toward the
smallest action index.  A fit whose parameters end non-finite raises
`ConvergenceError` (a greedy policy over NaN values would always pick the
first action); the experiment harness retries it at half the step size.

Policy quality is measured by simulating fresh trajectories from a
generative model and averaging utilities: either the per-step mean over
all steps and rollouts ("per_step_mean", the default) or the mean
discounted sum per rollout ("discounted_sum").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .adnn import ConvergenceError
from .core import Transitions, check_json_object
from .features import (FeatureMap, float_array_from_jsonable, init_layers,
                       layers_from_jsonable, layers_to_jsonable, mlp_forward, stack_layers)
from .rng import substream
from .simgen import ACTIONS, GenerativeModelSpec, step_process

__all__ = [
    "LINEAR_ALPHA0",
    "NN_ALPHA0",
    "LinearQ",
    "NeuralQ",
    "QApproximator",
    "PolicyValue",
    "fit_q_linear",
    "fit_q_nn",
    "greedy_actions",
    "evaluate_policy",
]

# Starting step sizes of the linear and neural fits.
LINEAR_ALPHA0 = 0.05
NN_ALPHA0 = 0.01
# Step-size decay: update k steps ``alpha0 / (1 + k / _BETA)``.
_BETA = 10000.0
# Sigmoid hidden units in each action's network of the neural fit.
_HIDDEN_WIDTH = 10


@dataclass
class LinearQ:
    """Per-action linear value functions over (1, features)."""

    weights: dict  # action -> (1 + feature_dim,) coefficient vector
    gamma: float
    kind: ClassVar[str] = "linear"

    @property
    def actions(self) -> list:
        return sorted(self.weights)

    def action_values(self, feats: np.ndarray) -> np.ndarray:
        x = np.column_stack([np.ones(feats.shape[0]), feats])
        return np.column_stack([x @ self.weights[a] for a in self.actions])

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "weights": {str(a): w.tolist() for a, w in self.weights.items()},
        }


@dataclass
class NeuralQ:
    """Per-action single-hidden-layer value networks (sigmoid hidden units)."""

    nets: dict  # action -> [(W1, b1), (w2, b2)]
    gamma: float
    kind: ClassVar[str] = "neural"

    @property
    def actions(self) -> list:
        return sorted(self.nets)

    def action_values(self, feats: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [mlp_forward(feats, self.nets[a], affine_last=True) for a in self.actions]
        )

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "nets": {str(a): layers_to_jsonable(ls) for a, ls in self.nets.items()},
        }


QApproximator = Union[LinearQ, NeuralQ]


# Each kind's key, beside ``kind`` and ``gamma``, for the JSON object that
# maps each action to its parameters.
_Q_PARAMS = {"linear": "weights", "neural": "nets"}


def q_approximator_from_jsonable(data) -> QApproximator:
    """Q approximator from its ``to_jsonable`` form.

    ValueError for data that is not a JSON object, an unknown ``kind``, an
    unknown or missing key, a value of the wrong JSON kind (per-action
    parameters and network layers too), weights that are not all finite
    numbers, and a ``gamma`` outside (0, 1).
    """
    if not isinstance(data, dict):
        raise ValueError(f"a Q approximator must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind not in list(_Q_PARAMS):  # a list, so that an unhashable kind is unknown too
        raise ValueError(f"unknown Q approximator kind {kind!r}")
    key = _Q_PARAMS[kind]
    check_json_object(f"{kind} Q approximator", data, {"kind": str, "gamma": float, key: dict})
    try:
        gamma = data["gamma"]
        if not 0 < gamma < 1:  # NaN too
            raise ValueError(f"{kind} Q approximator gamma must be in (0, 1), got {gamma}")
        params = data[key]
        check_json_object(f"{kind} Q approximator {key}", params, dict.fromkeys(params, tuple))
        if kind == "linear":
            return LinearQ({int(a): float_array_from_jsonable("linear Q weights", w)
                            for a, w in params.items()}, gamma)
        return NeuralQ({int(a): layers_from_jsonable(ls) for a, ls in params.items()}, gamma)
    except KeyError as exc:
        raise ValueError(f"{kind} Q approximator JSON has no key {exc}") from None


def greedy_actions(q: QApproximator, feats: np.ndarray) -> np.ndarray:
    """Greedy action per feature row; ties go to the smallest action index."""
    values = q.action_values(np.atleast_2d(feats))
    idx = np.argmax(values, axis=1)  # first maximum = smallest action
    actions = np.asarray(q.actions)
    return actions[idx]


def _prepare(transitions: Transitions, feature_map: FeatureMap, n_actions: int):
    if not len(transitions):
        raise ValueError("transitions must be nonempty")
    if feature_map.dim == 0:
        raise ValueError("feature map has empty output; nothing to regress on")
    low, high = int(transitions.actions.min()), int(transitions.actions.max())
    if low < 1 or high > n_actions:
        raise ValueError(f"actions must lie in 1..{n_actions}, got values from {low} to {high}")
    feats = feature_map.transform(transitions.states)
    feats_next = feature_map.transform(transitions.next_states)
    return feats, feats_next, transitions.actions, transitions.utilities


def _check_epochs(epochs: int) -> None:
    # no pass leaves the initial parameters, which are not a fit
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")


def _check_finite(kind: str, *params) -> None:
    if not all(np.isfinite(p).all() for p in params):
        raise ConvergenceError(f"{kind} Q fit diverged: non-finite parameters")


def fit_q_linear(
    transitions: Transitions,
    feature_map: FeatureMap,
    gamma: float = 0.9,
    epochs: int = 20,
    alpha0: float = LINEAR_ALPHA0,
    seed: int = 0,
    *,
    n_actions: int,
) -> LinearQ:
    """Linear semi-gradient Q-learning from batch transitions.

    Runs ``epochs`` shuffled passes, at least one; the step size for the
    k-th update is ``alpha0 / (1 + k / 10000)``.  Weights start at zero.
    Actions must lie in ``1..n_actions``; each level gets a weight vector.
    Non-finite final weights raise `ConvergenceError`.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    _check_epochs(epochs)
    feats, feats_next, actions, utilities = _prepare(transitions, feature_map, n_actions)
    # The loop is bound by interpreter and NumPy call overhead, not by
    # arithmetic, so each update makes one row product and reads it as a
    # Python list: (2, 1, 1, d) next-state and state rows against the (k, d,
    # 1) weights give every action's value at both, next states first.
    # Each entry is a 1 x d by d x 1 product, which numpy hands to the same
    # BLAS ddot as a 1-D `w @ x` (a stacked gemv `W @ x` rounds differently),
    # so the fit matches one dot product per action bit for bit
    # (tests/test_qlearn.py holds the reference loop).  ddot rounds a
    # strided row differently from a contiguous one, so the rows keep the
    # layout of the features: `np.column_stack` and `np.stack` follow it.
    ones = np.ones(len(feats))
    inputs = np.stack([np.column_stack([ones, feats_next]), np.column_stack([ones, feats])],
                      axis=1)[:, :, None, None, :]
    x = inputs[:, 1, 0, 0]  # the rows (1, phi(s))
    w = np.zeros((n_actions, x.shape[1], 1))  # action a at index a - 1
    views = list(w[:, :, 0])  # updates write through them
    acts, utils = actions.tolist(), utilities.tolist()
    rng = substream(seed)
    k = 0
    for _ in range(epochs):
        for i in rng.permutation(len(x)).tolist():
            a = acts[i] - 1
            values = (inputs[i] @ w).ravel().tolist()
            delta = utils[i] + gamma * max(values[:n_actions]) - values[n_actions + a]
            views[a] += alpha0 / (1.0 + k / _BETA) * delta * x[i]
            k += 1
    _check_finite("linear", w)
    return LinearQ(weights={a + 1: w[a, :, 0] for a in range(n_actions)}, gamma=gamma)


def fit_q_nn(
    transitions: Transitions,
    feature_map: FeatureMap,
    gamma: float = 0.9,
    epochs: int = 20,
    alpha0: float = NN_ALPHA0,
    seed: int = 0,
    *,
    n_actions: int,
) -> NeuralQ:
    """Neural semi-gradient Q-learning from batch transitions.

    One network per action: sigmoid hidden layer of 10 units, linear
    output.  Runs ``epochs`` shuffled passes, at least one, with the step
    schedule of `fit_q_linear`.  The bootstrap target is held fixed within
    each update.  Actions must lie in ``1..n_actions``; each level gets a
    network.  Non-finite final parameters raise `ConvergenceError`.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    _check_epochs(epochs)
    feats, feats_next, actions, utilities = _prepare(transitions, feature_map, n_actions)
    rng = substream(seed)
    # Every action's network (Glorot-uniform, drawn in action order) stacked
    # on a leading axis, action a at index a - 1, so that one forward pass
    # per update runs the next state and the state through all of them:
    # (2, 1, 1, f) inputs against (k, h, f) and (k, 1, h) weights.  Each
    # product is still one row, so it rounds like the lone network's (see
    # fit_q_linear).  The pass is `mlp_forward`'s, inlined, with
    # `features._sigmoid`'s formula and error state: the same operations in
    # the same order, without the per-call overhead.  The reference loop in
    # tests/test_qlearn.py calls `_sigmoid` itself, so the two cannot drift.
    (w1, b1), (w2, b2) = stack_layers(
        [init_layers([feats.shape[1], _HIDDEN_WIDTH, 1], rng) for _ in range(n_actions)]
    )
    w1t, w2t = w1.swapaxes(-1, -2), w2.swapaxes(-1, -2)
    # per action, views of its slices; updates write through them, so the
    # transposed views above stay current
    views = [(w1[a], b1[a, 0], w2[a, 0], b2[a, 0, 0, ...]) for a in range(n_actions)]
    inputs = np.stack([feats_next, feats], axis=1)[:, :, None, None, :]
    acts, utils = actions.tolist(), utilities.tolist()

    k = 0
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            for i in rng.permutation(len(feats)).tolist():
                a = acts[i] - 1
                hidden = 1.0 / (1.0 + np.exp(-(inputs[i] @ w1t + b1)))
                values = (hidden @ w2t + b2).ravel().tolist()
                best_next = max(values[:n_actions])
                step = alpha0 / (1.0 + k / _BETA) * (utils[i] + gamma * best_next
                                                    - values[n_actions + a])
                hidden = hidden[1, a, 0]
                w1a, b1a, w2a, b2a = views[a]
                dz = w2a * hidden * (1.0 - hidden)
                w1a += step * (dz[:, None] * feats[i])
                b1a += step * dz
                w2a += step * hidden
                b2a += step
                k += 1
    _check_finite("neural", w1, b1, w2, b2)
    return NeuralQ(
        nets={a + 1: [(w1[a], b1[a, 0]), (w2[a, 0], b2[a, 0, 0])] for a in range(n_actions)},
        gamma=gamma,
    )


@dataclass(frozen=True)
class PolicyValue:
    """Monte Carlo estimate of a policy's outcome in a generative model."""

    mean_outcome: float
    std_error: float
    n_rollouts: int
    horizon: int
    definition: str  # "per_step_mean" or "discounted_sum"
    seed: int


def evaluate_policy(
    spec: GenerativeModelSpec,
    feature_map: FeatureMap,
    q: QApproximator,
    n_rollouts: int = 300,
    horizon: int = 90,
    seed: int = 0,
    definition: str = "per_step_mean",
) -> PolicyValue:
    """Simulate fresh trajectories under the greedy policy and average utility.

    ``per_step_mean`` averages utilities over every step of every rollout;
    ``discounted_sum`` averages the per-rollout discounted cumulative
    utility at the approximator's discount.  The standard error is across
    rollouts.  Deterministic given the seed.  ValueError when ``q``'s action
    levels are not the generative model's (`simgen.ACTIONS`).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (no steps to average), got {horizon}")
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be >= 1, got {n_rollouts}")
    if definition not in ("per_step_mean", "discounted_sum"):
        raise ValueError(f"unknown definition {definition!r}")
    if q.actions != list(ACTIONS):
        raise ValueError(f"the Q approximator's actions {q.actions} are not the "
                         f"generative model's {list(ACTIONS)}")
    rng = substream(seed)
    states = 0.5 * rng.standard_normal((n_rollouts, spec.state_dim))
    utilities = np.empty((n_rollouts, horizon))
    for t in range(horizon):
        feats = feature_map.transform(states)
        chosen = greedy_actions(q, feats)
        states, utilities[:, t] = step_process(
            spec, states, chosen.astype(np.float64) - 1.0, rng
        )
    if definition == "per_step_mean":
        per_rollout = utilities.mean(axis=1)
    else:
        discounts = q.gamma ** np.arange(horizon)
        per_rollout = utilities @ discounts
    mean = float(per_rollout.mean())
    se = float(per_rollout.std(ddof=1) / np.sqrt(n_rollouts)) if n_rollouts > 1 else 0.0
    return PolicyValue(
        mean_outcome=mean,
        std_error=se,
        n_rollouts=n_rollouts,
        horizon=horizon,
        definition=definition,
        seed=seed,
    )
