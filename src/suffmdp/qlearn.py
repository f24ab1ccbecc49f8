"""Q-learning over a feature map, and Monte Carlo policy evaluation.

Both approximators learn ``Q(s, a)`` as a function of ``phi(s)`` by
stochastic semi-gradient updates over shuffled passes through the batch of
transitions (the array view of ``core.flatten_transitions``):

    theta <- theta + alpha * (u + gamma * max_b F(s', b) - F(s, a)) * dF/dtheta

with the bootstrap target held fixed within a step.  The linear form is
``F(s, a) = theta_a . (1, phi(s))``; the neural form gives each action a
single-hidden-layer network.  Greedy policies break ties toward the
smallest action index.

Policy quality is measured by simulating fresh trajectories from a
generative model and averaging utilities: either the per-step mean over
all steps and rollouts ("per_step_mean", the default) or the mean
discounted sum per rollout ("discounted_sum").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Transitions
from .features import FeatureMap, layers_from_jsonable, layers_to_jsonable, mlp_forward
from .rng import substream
from .simgen import GenerativeModelSpec, step_process

__all__ = [
    "LinearQ",
    "NeuralQ",
    "QApproximator",
    "PolicyValue",
    "fit_q_linear",
    "fit_q_nn",
    "greedy_actions",
    "evaluate_policy",
]


@dataclass
class LinearQ:
    """Per-action linear value functions over (1, features)."""

    weights: dict  # action -> (1 + feature_dim,) coefficient vector
    gamma: float
    kind: str = "linear"

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
    kind: str = "neural"

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


def q_approximator_from_jsonable(data: dict) -> QApproximator:
    """Q approximator from its ``to_jsonable`` form; ValueError names a
    missing key or an unknown ``kind``."""
    kind = data.get("kind")
    try:
        if kind == "linear":
            return LinearQ({int(a): np.asarray(w) for a, w in data["weights"].items()},
                           data["gamma"])
        if kind == "neural":
            return NeuralQ({int(a): layers_from_jsonable(ls) for a, ls in data["nets"].items()},
                           data["gamma"])
    except KeyError as exc:
        raise ValueError(f"{kind} Q approximator JSON has no key {exc}") from None
    raise ValueError(f"unknown Q approximator kind {kind!r}")


def greedy_actions(q: QApproximator, feats: np.ndarray) -> np.ndarray:
    """Greedy action per feature row; ties go to the smallest action index."""
    values = q.action_values(np.atleast_2d(feats))
    idx = np.argmax(values, axis=1)  # first maximum = smallest action
    actions = np.asarray(q.actions)
    return actions[idx]


def _prepare(transitions: Transitions, feature_map: FeatureMap, n_actions: Optional[int]):
    if not len(transitions):
        raise ValueError("transitions must be nonempty")
    if feature_map.dim == 0:
        raise ValueError("feature map has empty output; nothing to regress on")
    low, high = int(transitions.actions.min()), int(transitions.actions.max())
    k = n_actions if n_actions is not None else high
    if low < 1 or high > k:
        raise ValueError(f"actions must lie in 1..{k}, got values from {low} to {high}")
    feats = feature_map.transform(transitions.states)
    feats_next = feature_map.transform(transitions.next_states)
    return feats, feats_next, transitions.actions, transitions.utilities, k


def fit_q_linear(
    transitions: Transitions,
    feature_map: FeatureMap,
    gamma: float = 0.9,
    epochs: int = 20,
    alpha0: float = 0.05,
    beta: float = 10000.0,
    seed: int = 0,
    n_actions: Optional[int] = None,
) -> LinearQ:
    """Linear semi-gradient Q-learning from batch transitions.

    Runs ``epochs`` shuffled passes; the step size for the k-th update is
    ``alpha0 / (1 + k / beta)``.  Weights start at zero.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    feats, feats_next, actions, utilities, n_act = _prepare(
        transitions, feature_map, n_actions
    )
    x = np.column_stack([np.ones(len(feats)), feats])
    x_next = np.column_stack([np.ones(len(feats)), feats_next])
    # The loop is bound by interpreter and NumPy call overhead, not by
    # arithmetic, so per-row values come from Python lists.  It keeps one
    # `@` per action rather than one stacked `W @ xn`, because a gemv rounds
    # differently from per-row dot products and the fits must stay bit for
    # bit; and `@` rather than `ndarray.dot`, which releases the GIL around
    # each small BLAS call so that the experiment's worker threads convoy.
    ws = [np.zeros(x.shape[1]) for _ in range(n_act)]  # action a at index a - 1
    acts, utils = actions.tolist(), utilities.tolist()
    rng = substream(seed)
    k = 0
    for _ in range(epochs):
        for i in rng.permutation(len(x)).tolist():
            a = acts[i] - 1
            xi, xn = x[i], x_next[i]
            best_next = max([w @ xn for w in ws])
            delta = utils[i] + gamma * best_next - ws[a] @ xi
            ws[a] = ws[a] + alpha0 / (1.0 + k / beta) * delta * xi
            k += 1
    return LinearQ(weights={a + 1: w for a, w in enumerate(ws)}, gamma=gamma)


def fit_q_nn(
    transitions: Transitions,
    feature_map: FeatureMap,
    gamma: float = 0.9,
    hidden_width: int = 10,
    epochs: int = 20,
    alpha0: float = 0.01,
    beta: float = 10000.0,
    seed: int = 0,
    n_actions: Optional[int] = None,
) -> NeuralQ:
    """Neural semi-gradient Q-learning from batch transitions.

    One network per action: sigmoid hidden layer of ``hidden_width`` units,
    linear output.  The bootstrap target is held fixed within each update.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if hidden_width < 1:
        raise ValueError(f"hidden_width must be >= 1, got {hidden_width}")
    feats, feats_next, actions, utilities, n_act = _prepare(
        transitions, feature_map, n_actions
    )
    f_dim = feats.shape[1]
    rng = substream(seed)
    w1s, w2s = [], []
    for _ in range(n_act):
        lim1 = np.sqrt(6.0 / (f_dim + hidden_width))
        w1s.append(rng.uniform(-lim1, lim1, size=(hidden_width, f_dim)))
        lim2 = np.sqrt(6.0 / (hidden_width + 1))
        w2s.append(rng.uniform(-lim2, lim2, size=hidden_width))
    # Every action's network on a leading axis, action a at index a - 1, so
    # that one rank-generic forward pass per update runs the next state and
    # the state through all of them: (2, 1, 1, f) inputs against (k, f, h)
    # weights.  Each product is still one row, so it rounds like the lone
    # network's on the BLAS this was checked with (tests/test_qlearn.py holds
    # the reference loop).
    stacked = [
        (np.stack(w1s), np.zeros((n_act, 1, hidden_width))),
        (np.stack(w2s)[:, None, :], np.zeros((n_act, 1, 1))),
    ]
    (w1, b1), (w2, b2) = stacked
    # per action, views of its slices; updates write through them
    views = [(w1[a], b1[a, 0], w2[a, 0], b2[a, 0, 0, ...]) for a in range(n_act)]
    inputs = np.stack([feats_next, feats], axis=1)[:, :, None, None, :]
    # Lists and `@` for the reasons given in fit_q_linear.
    acts, utils = actions.tolist(), utilities.tolist()

    k = 0
    for _ in range(epochs):
        for i in rng.permutation(len(feats)).tolist():
            a = acts[i] - 1
            cache = []
            out = mlp_forward(inputs[i], stacked, affine_last=True, cache=cache)
            # a Python max over floats, in action order, as for one network per call
            best_next = max(out[0, :, 0, 0].tolist())
            hidden = cache[0][2][1, a, 0]
            step = alpha0 / (1.0 + k / beta) * (utils[i] + gamma * best_next - out[1, a, 0, 0])
            w1a, b1a, w2a, b2a = views[a]
            dz = w2a * hidden * (1.0 - hidden)
            w1a += step * (dz[:, None] * feats[i])
            b1a += step * dz
            w2a += step * hidden
            b2a += step
            k += 1
    return NeuralQ(
        nets={a + 1: [(w1[a], b1[a, 0]), (w2[a, 0], b2[a, 0, 0])] for a in range(n_act)},
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
    rollouts.  Deterministic given the seed.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (no steps to average), got {horizon}")
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be >= 1, got {n_rollouts}")
    if definition not in ("per_step_mean", "discounted_sum"):
        raise ValueError(f"unknown definition {definition!r}")
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
