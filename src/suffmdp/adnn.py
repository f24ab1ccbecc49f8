"""Alternating network feature learner.

A shared feature network maps the state into a low-dimensional bounded
feature vector; one regression head per action predicts the response
``Y^{t+1} = (U^t, S^{t+1})`` from the features.  Training alternates over
actions: each outer iteration takes, for every action in turn, one
subgradient descent step on (shared network, that action's head) using a
minibatch of that action's transitions, leaving the other heads untouched.
Fitting works on the row-stacked steps of ``core.flatten_transitions``.  A
training step runs the shared network and a head forward and backward as
one network through a step plan, `_StepPlan`, whose buffers are made once
per fit; a fitted model runs forward through ``features.mlp_forward``.  The
two passes share the sigmoid, `features.sigmoid_in_place`, and give the
same bits.

There is one training loop.  It takes fits ``(training data, seed)`` of one
architecture and a list of penalties, and trains every (fit, penalty)
replica in lock step, their parameters stacked on a leading replica axis.
Each fit draws its initialisation and minibatch rows once, for all the
penalties, so every replica takes the steps a lone fit with its data,
penalty and seed would take.  `fit_adnn` is the call with one fit and one
penalty; cross-validation makes one call per network it builds, with the
training folds as fits.

Minibatches are drawn by random reshuffling.  Each (fit, action) has its
own stream, ``substream(seed, action)``, apart from the initialisation's
``substream(seed)``; each epoch is one permutation of the action's ``n_a``
rows, cut in order into ``n_a // take`` batches of ``take`` rows, and the
last ``n_a mod take`` rows of an epoch go unused.  A fit's batches, and so
a lone fit's bits, depend only on its data, penalty, seed and schedule:
not on the other fits or penalties of the call, nor on how many steps'
rows the trainer writes at once.

The arrays are small (a few rows per batch), so a step costs numpy calls
rather than arithmetic, and the step is written to make few of them: it
allocates nothing, and it gathers its batch from the block index of drawn
rows with one take of states and one of responses.  The replicas' feature
layers lie in one flat ``(replicas, parameters)`` buffer and each action's
head in another; the layer arrays are views of them.  A step writes its
gradients into a buffer of the same layout, scales it with one in-place
``grad *= alpha`` and updates each group with one ``params -= grad``.
These are the floating-point operations of one ``w -= alpha * dw`` per
array, so the fitted parameters do not depend on the layout.

Each action ``a`` has one objective, the per-transition mean squared error
over its transitions plus the full penalty,

    L_a(theta) = mean over a's transitions of ||prediction(S, a) - Y||^2
                 + lam * sum_j ||column j of W1||_2,

where ``W1`` is the first feature-layer weight matrix; the column-norm
penalty is a group lasso over input variables, so a column driven to zero
removes that raw coordinate from the feature map entirely.  ``lam`` is on
this per-transition scale.  Each step descends ``L_a`` on a minibatch of
a's transitions with the constant step size ``alpha0``; the cost trace
records ``L_a`` on all of them.  A constant step settles in a neighbourhood
of a minimum whose size scales with the step and the minibatch noise
(Bottou, Curtis & Nocedal 2018, section 4), which is all the residual test
asks of the fitted mean.

On top of the fit sit: subject-level cross-validation of
(width, depth, penalty), residual-based dimension selection (smallest
feature dimension whose residuals pass an independence test against the
state), and the outer pipeline that alternates screening, fitting, and
restriction to the active variables until nothing shrinks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import TrajectoryDataset, Transitions, flatten_transitions
from .dcov import TestReport, draw_permuted_side, stratified_pooled_test
from .features import NetworkFeatureMap, init_layers, mlp_forward, sigmoid_in_place
from .rng import derive_seed, substream
from .screening import ScreenResult, screen

__all__ = [
    "ConvergenceError",
    "Architecture",
    "FitConfig",
    "AdnnModel",
    "fit_adnn",
    "CrossValidationResult",
    "cross_validate_adnn",
    "residual_independence_pvalue",
    "DimensionSelection",
    "select_feature_dimension",
    "active_inputs",
    "default_dims",
    "PipelineConfig",
    "PipelineResult",
    "construct_sufficient_features",
]


class ConvergenceError(RuntimeError):
    """Raised when training produces non-finite parameters or costs."""


@dataclass(frozen=True)
class Architecture:
    """Network shape chosen by the caller; the data set the rest.

    The feature network has ``depth`` affine+sigmoid layers taking a state
    of ``p`` coordinates through ``depth - 1`` hidden layers of
    ``hidden_width`` units to ``feature_dim``.  Each head mirrors that:
    ``depth`` layers from ``feature_dim`` to the ``p + 1`` response
    coordinates ``(U, S')``, with the final head layer affine (the response
    is not range-bounded, so no sigmoid is applied to it).  ``p`` is the
    state dimension of the training data.  A depth-1 network has no hidden
    layer and does not read ``hidden_width``: every width builds the same
    network, and a fit under one seed gives the same bits.
    """

    feature_dim: int
    hidden_width: int = 4
    depth: int = 1

    def __post_init__(self):
        for name in ("feature_dim", "hidden_width", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _check_lam(lam) -> None:
    # a NaN or infinite penalty makes every cost non-finite
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")


def _check_col_tol(col_tol) -> None:
    # a NaN tolerance, or one of 1 or more, marks no input active
    if not 0 <= col_tol < 1:
        raise ValueError(f"col_tol must be >= 0 and finite and < 1, got {col_tol}")


@dataclass(frozen=True)
class FitConfig:
    """Training schedule.

    Each outer iteration takes ``floor(batch_fraction * n_a)`` of every
    action's ``n_a`` transitions, the next batch of that action's epoch
    permutation (see the module docstring; the ``n_a mod take`` rows left
    over by an epoch go unused), and every step has the size ``alpha0``,
    finite and positive; training runs exactly ``n_max`` iterations.  Each
    step descends its action's objective (see the module docstring), the
    one the trace records.  ``check_every`` is the cadence of the full-data cost
    trace and of the divergence check; it does not change the fitted
    parameters.  The penalty and the seed are arguments of `fit_adnn` and
    `cross_validate_adnn`.
    """

    batch_fraction: float = 0.1
    alpha0: float = 0.05
    n_max: int = 5000
    check_every: int = 100

    def __post_init__(self):
        if not 0 < self.batch_fraction < 1:
            raise ValueError(f"batch_fraction must be in (0, 1), got {self.batch_fraction}")
        # a step must be finite and downhill
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")


@dataclass
class AdnnModel:
    """Fitted feature network plus per-action regression heads.

    ``trace`` records, every ``check_every`` outer iterations and after the
    last (index 0 is the initialization), each action's objective on all
    its transitions: the per-transition mean squared error plus the whole
    penalty, the objective that action's steps descend.  Fitted models are
    treated as immutable; nothing in the package mutates one after
    `fit_adnn` returns.
    """

    feature_layers: list
    heads: dict
    trace: list = field(default_factory=list)

    @property
    def actions(self) -> list:
        return sorted(self.heads)

    @property
    def first_layer(self) -> np.ndarray:
        return self.feature_layers[0][0]

    def feature_map(self, input_indices: Optional[Sequence[int]] = None,
                    input_dim: Optional[int] = None) -> NetworkFeatureMap:
        return NetworkFeatureMap(
            layers=[(w.copy(), b.copy()) for w, b in self.feature_layers],
            input_indices=input_indices,
            input_dim=input_dim,
        )

    def features(self, states: np.ndarray) -> np.ndarray:
        return mlp_forward(np.asarray(states, dtype=np.float64), self.feature_layers)

    def predict(self, states: np.ndarray, action: int) -> np.ndarray:
        """Predicted response ``(U, next-state)`` rows under one action."""
        return self._head_forward(self.features(states), action)

    def _head_forward(self, feats: np.ndarray, action: int) -> np.ndarray:
        if action not in self.heads:
            raise ValueError(f"unknown action {action}; model has {self.actions}")
        return mlp_forward(feats, self.heads[action], affine_last=True)


# ---------------------------------------------------------------------------
# Cost, gradients, training
# ---------------------------------------------------------------------------


def _init_model(arch: Architecture, state_dim: int, actions: Sequence[int],
                rng: np.random.Generator) -> AdnnModel:
    hidden = [arch.hidden_width] * (arch.depth - 1)
    feature_layers = init_layers([state_dim] + hidden + [arch.feature_dim], rng)
    heads = {a: init_layers([arch.feature_dim] + hidden + [state_dim + 1], rng)
             for a in sorted(actions)}
    return AdnnModel(feature_layers=feature_layers, heads=heads)


def _squared_errors(tr: Transitions, y: np.ndarray, model: AdnnModel, actions) -> dict:
    """Per-action summed squared error of the predicted responses ``y``."""
    feats = model.features(tr.states)
    errors = {}
    for a in actions:
        idx = tr.actions == a
        pred = model._head_forward(feats[idx], a)
        errors[a] = float(np.square(pred - y[idx]).sum())
    return errors


def _costs(states, by_action, model: AdnnModel, lams) -> list:
    """Each replica's per-action objective on one fit's data: that action's
    per-transition mean squared error plus the replica's penalty.

    ``model`` is a stacked network (see `_stack`) with one replica per
    penalty in ``lams``, all of them on the fit's ``states``; ``by_action``
    maps each action to its rows of the data and their responses.  One
    forward pass runs every replica, and each replica's costs have the bits
    of a pass of its network alone.
    """
    norms = np.sqrt(np.square(model.first_layer).sum(axis=-2)).sum(axis=-1).tolist()
    feats = model.features(states)
    costs = [{} for _ in lams]
    for a, (rows, y) in by_action.items():
        pred = model._head_forward(feats.take(rows, axis=-2), a)
        errors = np.add.reduce(np.square(pred - y).reshape(len(lams), -1), axis=-1).tolist()
        for cost, lam, err, norm in zip(costs, lams, errors, norms):
            cost[a] = err / rows.size + lam * norm
    return costs


class _StepPlan:
    """One action's minibatch step in the lock-step trainer, with every array
    the step writes made once.

    ``layers`` is a stacked network (see `_stack`), every array with a
    leading replica axis ``R``: the feature layers and then one action's
    head, run as one network whose last layer is affine.  ``grads`` holds a
    ``(dW, db)`` pair shaped like each layer's parameters; the trainer's are
    views of flat buffers laid out like the parameters' (see
    `_layer_views`).  Replica ``r`` owns the first ``takes[r]`` rows of the
    ``(R, max(takes), .)`` batches and has the penalty ``lams[r]``.

    The plan holds the weights' transposed views for the forward pass; per
    layer, ``(R, max(takes), width)`` buffers for its output, the error
    back-propagated to it (with its transposed view) and its sigmoid's
    derivative; the row counts, padding mask and penalties; and the
    penalty's workspaces.  The weights are views of the caller's arrays, so
    the plan follows the parameters as they are updated in place.  Every
    operation of a step writes into these buffers and gives the bits it would
    give in a fresh array.  A row count or penalty that every replica shares
    is kept as one float, which divides as the array of it would, for a
    cheaper call.
    """

    def __init__(self, layers, grads, takes, lams):
        n_replicas, rows = len(takes), max(takes)
        weights = [w for w, _ in layers]
        self.forward_layers = [(w.swapaxes(-1, -2), b) for w, b in layers]
        self.outs = [np.empty((n_replicas, rows, w.shape[-2])) for w in weights]
        # the last layer is affine: its error is made over its output
        errors = [np.empty_like(out) for out in self.outs[:-1]] + self.outs[-1:]
        # per layer, from the last: its error and the error's transpose; its
        # input (None for the batch); its gradients; the output of its
        # sigmoid and a buffer for the sigmoid's derivative (None for the
        # affine layer); and the weight and buffer that carry the error back
        # (None for the first layer)
        self.backward = []
        for i in range(len(layers) - 1, -1, -1):
            sigmoid, first = i < len(layers) - 1, i == 0
            self.backward.append((
                errors[i], errors[i].swapaxes(-1, -2),
                None if first else self.outs[i - 1],
                *grads[i],
                self.outs[i] if sigmoid else None,
                np.empty_like(errors[i]) if sigmoid else None,
                None if first else weights[i],
                None if first else errors[i - 1],
            ))
        self.take = _shared(takes)
        pad = np.arange(rows)[:, None] >= np.asarray(takes)[:, None, None]
        self.pad = pad if pad.any() else None
        self.lam = _shared(lams)
        self.w1, self.dw1 = weights[0], grads[0][0]
        self.squares, self.product = np.empty(self.w1.shape), np.empty(self.w1.shape)
        self.norms = np.empty((n_replicas, 1, self.w1.shape[-1]))
        self.nonzero = np.empty(self.norms.shape, dtype=bool)
        self.scale = np.empty(self.norms.shape)

    def forward(self, s) -> np.ndarray:
        """The network's output on the ``(R, max(takes), p)`` batch ``s``,
        written into the plan's last output buffer; the sigmoids are
        `features.sigmoid_in_place`.  The caller silences their exp's
        overflow."""
        x, last = s, self.outs[-1]
        for (w_t, b), out in zip(self.forward_layers, self.outs):
            np.matmul(x, w_t, out=out)
            out += b
            if out is not last:
                sigmoid_in_place(out)
            x = out
        return x

    def gradients(self, s, y) -> None:
        """Gradients of each replica's batch objective, written into the
        plan's ``grads``: the mean over its batch rows of the squared error,
        plus its penalty's subgradient (see the module docstring).

        ``s`` and ``y`` are ``(R, max(takes), .)`` batches in which replica
        ``r`` owns its first ``takes[r]`` rows; the rest are padding, get a
        zero loss gradient and do not count in the mean.  The group-lasso
        subgradient on the first feature layer is ``lam[r] * column /
        ||column||`` for nonzero columns and zero otherwise.  The caller
        silences the overflow of the sigmoids' exp.
        """
        delta = self.forward(s)
        delta -= y
        # two operations, as 2 * error / take rounds: one division by take / 2
        # differs once 2 * error overflows
        delta *= 2.0
        delta /= self.take
        if self.pad is not None:
            np.copyto(delta, 0.0, where=self.pad)
        for delta, delta_t, x, dw, db, out, slope, w, back in self.backward:
            if slope is not None:
                # the sigmoid's derivative, out * (1 - out)
                np.subtract(1.0, out, out=slope)
                slope *= out
                delta *= slope
            np.matmul(delta_t, s if x is None else x, out=dw)
            np.add.reduce(delta, axis=-2, keepdims=True, out=db)
            if w is not None:
                np.matmul(delta, w, out=back)

        np.square(self.w1, out=self.squares)
        np.add.reduce(self.squares, axis=-2, keepdims=True, out=self.norms)
        np.sqrt(self.norms, out=self.norms)
        np.greater(self.norms, 0.0, out=self.nonzero)
        self.scale.fill(0.0)
        np.divide(self.lam, self.norms, out=self.scale, where=self.nonzero)
        np.multiply(self.w1, self.scale, out=self.product)
        self.dw1 += self.product


def _shared(values):
    """``values``, one per replica, as one float when they are all equal,
    else as an ``(R, 1, 1)`` array."""
    if len(set(values)) == 1:
        return float(values[0])
    return np.asarray(values, dtype=np.float64)[:, None, None]


def _layer_views(buffer, shapes) -> list:
    """``(W, b)`` views of an ``(R, P)`` buffer whose rows hold layers with
    ``(out, in)`` weight shapes ``shapes`` end to end, each weight and then
    its bias: weights ``(R, out, in)`` and biases ``(R, 1, out)``, so that
    the biases broadcast over the rows of ``(R, rows, in)`` inputs in
    `features.mlp_forward`."""
    views, start = [], 0
    for out, inp in shapes:
        w = buffer[:, start:start + out * inp].reshape(-1, out, inp)
        start += out * inp
        views.append((w, buffer[:, start:start + out].reshape(-1, 1, out)))
        start += out
    return views


def _stack(models: Sequence[AdnnModel]) -> tuple:
    """``models`` on a leading replica axis, in flat buffers.

    Returns ``(stacked model, feature buffer, head buffers)``.  The feature
    layers of replica ``r`` lie end to end in row ``r`` of one new ``(R,
    P_feat)`` buffer, and each action's head in row ``r`` of that action's
    ``(R, P_head)`` buffer, in the dict ``head buffers``; the stacked model's
    arrays are views of them (see `_layer_views`).  A step then updates a
    group of layers with one operation on its buffer.
    """
    def flat(layer_lists):
        buffer = np.array([np.concatenate([a.ravel() for layer in layers for a in layer])
                           for layers in layer_lists])
        return buffer, _layer_views(buffer, [w.shape for w, _ in layer_lists[0]])

    feature_buffer, feature_layers = flat([m.feature_layers for m in models])
    head_buffers, heads = {}, {}
    for a in models[0].heads:
        head_buffers[a], heads[a] = flat([m.heads[a] for m in models])
    return AdnnModel(feature_layers=feature_layers, heads=heads), feature_buffer, head_buffers


def _replica(stacked: AdnnModel, r: int) -> AdnnModel:
    """Replica ``r`` of a stacked model, as views of its arrays."""
    def pick(layers):
        return [(w[r], b[r, 0]) for w, b in layers]

    return AdnnModel(
        feature_layers=pick(stacked.feature_layers),
        heads={a: pick(ls) for a, ls in stacked.heads.items()},
    )


# Iterations whose minibatch rows a trainer writes at once into its block
# index, from which each step gathers its batch: the only row cadence.  The
# rows drawn do not depend on it; it bounds the memory of the index.
_BLOCK = 64


class _Reshuffle:
    """One (fit, action)'s minibatch rows, by random reshuffling.

    Every epoch is one ``rng.permutation(n)`` of the action's ``n`` rows, cut
    in order into ``n // take`` batches of ``take`` rows; the last ``n mod
    take`` rows of the epoch go unused.  `fill` writes the next ``steps``
    batches, shifted by ``offset``, into the first ``steps`` entries of
    ``out``, a ``(block, replicas, take)`` view broadcast over the fit's
    replicas, and keeps the rest of the epoch for the next call.  The rows
    batch ``i`` holds depend only on ``rng``, ``n``, ``take`` and ``i``.
    """

    def __init__(self, rng, n, take, offset, out):
        self.rng, self.n, self.take, self.offset, self.out = rng, n, take, offset, out
        self.used = n // take * take
        self.rows = np.empty(0, dtype=np.int64)

    def fill(self, steps: int) -> None:
        need = steps * self.take
        parts, have = [self.rows], self.rows.size
        while have < need:
            parts.append(self.rng.permutation(self.n)[:self.used] + self.offset)
            have += self.used
        rows = np.concatenate(parts)
        self.out[:steps] = rows[:need].reshape(steps, 1, self.take)
        self.rows = rows[need:]


def _train_replicas(arch, cfg, fits, lams, actions_subset=None) -> list:
    """Train every fit ``(train dataset, seed)`` under every penalty in
    ``lams``, in lock step.

    Replica ``d * len(lams) + l`` is fit ``d`` under ``lams[l]``.  The fits'
    data share one state dimension, which sets the input and response
    widths.  Every replica follows the training of a lone ``fit_adnn(data,
    arch, cfg, lam=lam, seed=seed)`` call.  A fit draws its initialisation
    from ``substream(seed)`` and each action's minibatch rows from
    ``substream(seed, action)`` (actions are at least 1, so these keys are
    never the initialisation's), once for all its penalties: one
    permutation of the action's ``n_a`` rows per epoch, cut in order into
    ``n_a // take`` batches, the last ``n_a mod take`` rows unused (see
    `_Reshuffle`).  Every `_BLOCK` iterations each (fit, action) writes the
    next block's batches into one ``(block, R, max take)`` index per action.
    The draws depend only on the fit's data, seed and schedule, not on the
    block, the other fits or ``actions_subset``.  Each step gathers its
    batch from the action's pools of states and responses, where each fit's
    rows appear once and a zero row pads the shorter batches, into ``(R, max
    take, .)`` buffers made once.  Each action's step runs through its
    `_StepPlan`, made once per call, and descends on all replicas at once.
    A replica whose batches are padded can end a few ulps from the lone fit,
    because the padded gradient may sum its rows in another order.  Returns
    one model per replica, in order, each with its own cost trace; a
    non-finite cost in any replica raises `ConvergenceError`.  Each record
    of the traces runs one forward pass per fit over all its replicas
    (`_costs`), on each action's rows and responses, found once per call.

    The parameters live in the flat buffers of `_stack`: one for the feature
    layers and one per action's head.  A step writes its gradients into one
    buffer laid out as the feature layers and then a head (every head has
    one shape), scales it in place with ``grad *= alpha``, and subtracts
    its two parts from the feature buffer and the action's head buffer.
    These are the operations of a per-array ``w -= alpha * dw``, so the
    result is the same bit for bit.  One error state silences the sigmoids'
    overflow for the whole loop.
    """
    n_actions, state_dim = fits[0][0].n_actions, fits[0][0].state_dim
    actions = list(range(1, n_actions + 1)) if actions_subset is None else sorted(actions_subset)
    for lam in lams:
        _check_lam(lam)
    n_lams = len(lams)
    n_replicas = len(fits) * n_lams
    inits = [_init_model(arch, state_dim, actions, substream(seed)) for _, seed in fits]
    model, feature_params, head_params = _stack([init for init in inits for _ in lams])

    # per fit: its states, each action's rows and responses, and its
    # replicas as a stacked model of views, which follow the updates
    by_fit = []
    for d, (train, _) in enumerate(fits):
        tr = flatten_transitions(train)
        y, by_action = tr.responses, {}
        for a in actions:
            rows = np.flatnonzero(tr.actions == a)
            if rows.size == 0:
                raise ValueError(f"action {a} is absent from the data")
            if int(cfg.batch_fraction * rows.size) == 0:
                raise ValueError(
                    f"batch fraction too small: floor({cfg.batch_fraction} * {rows.size}) = 0 "
                    f"for action {a}"
                )
            by_action[a] = (rows, y[rows])
        fit = slice(d * n_lams, (d + 1) * n_lams)
        by_fit.append((
            tr.states,
            by_action,
            AdnnModel(feature_layers=[(w[fit], b[fit]) for w, b in model.feature_layers],
                      heads={a: [(w[fit], b[fit]) for w, b in layers]
                             for a, layers in model.heads.items()}),
        ))

    # one gradient buffer: the feature layers' part, then a part that every
    # head shares (the heads have one shape)
    n_feature = feature_params.shape[1]
    grad = np.empty((n_replicas, n_feature + head_params[actions[0]].shape[1]))
    feature_grad, head_grad = grad[:, :n_feature], grad[:, n_feature:]
    grads = (_layer_views(feature_grad, [w.shape[1:] for w, _ in model.feature_layers])
             + _layer_views(head_grad, [w.shape[1:] for w, _ in model.heads[actions[0]]]))

    # per action: every fit's rows end to end, then a zero row that pads the
    # shorter batches; block[j, d * n_lams + l] is replica d * n_lams + l's
    # batch at the j-th step of a block.  A fit's draws are written through
    # a view of its replicas' first `take` columns.  A step gathers its
    # batch with one take of states and one of responses.
    draws, steps = [], []
    for a in actions:
        sizes = np.array([by_action[a][0].size for _, by_action, _ in by_fit])
        takes = (cfg.batch_fraction * sizes).astype(np.int64)
        offsets = np.cumsum(sizes) - sizes
        block = np.full((_BLOCK, len(fits), n_lams, takes.max()), sizes.sum())
        draws += [_Reshuffle(substream(seed, a), n, take, offset, block[:, d, :, :take])
                  for d, ((_, seed), n, take, offset)
                  in enumerate(zip(fits, sizes.tolist(), takes.tolist(), offsets.tolist()))]
        steps.append((
            _StepPlan(model.feature_layers + model.heads[a], grads,
                      np.repeat(takes, n_lams).tolist(), list(lams) * len(fits)),
            block.reshape(_BLOCK, n_replicas, -1),
            np.concatenate([states[by_action[a][0]] for states, by_action, _ in by_fit]
                           + [np.zeros((1, state_dim))]),
            np.concatenate([by_action[a][1] for _, by_action, _ in by_fit]
                           + [np.zeros((1, state_dim + 1))]),
            np.empty((n_replicas, takes.max(), state_dim)),
            np.empty((n_replicas, takes.max(), state_dim + 1)),
            head_params[a],
        ))

    traces = [[] for _ in range(n_replicas)]

    def record_costs():
        for d, (states, by_action, replicas) in enumerate(by_fit):
            costs = _costs(states, by_action, replicas, lams)
            for trace, cost in zip(traces[d * n_lams:(d + 1) * n_lams], costs):
                trace.append(cost)

    record_costs()
    alpha = cfg.alpha0
    with np.errstate(over="ignore"):
        for b in range(1, cfg.n_max + 1):
            j = (b - 1) % _BLOCK
            if j == 0:
                for draw in draws:
                    draw.fill(min(_BLOCK, cfg.n_max - b + 1))
            for plan, block, states, responses, s, y, head in steps:
                states.take(block[j], axis=0, out=s, mode="clip")
                responses.take(block[j], axis=0, out=y, mode="clip")
                plan.gradients(s, y)
                grad *= alpha
                feature_params -= feature_grad
                head -= head_grad
            if b % cfg.check_every != 0 and b != cfg.n_max:
                continue
            record_costs()
            if not all(np.isfinite(c) for trace in traces for c in trace[-1].values()):
                raise ConvergenceError(
                    f"training diverged at iteration {b}: non-finite cost"
                )

    return [dataclasses.replace(_replica(model, r), trace=t) for r, t in enumerate(traces)]


def fit_adnn(
    ds: TrajectoryDataset,
    arch: Architecture,
    cfg: FitConfig,
    lam: float = 0.0,
    seed: int = 0,
    actions_subset: Optional[Sequence[int]] = None,
) -> AdnnModel:
    """Alternating minibatch subgradient training.

    The network takes ``ds``'s states to ``arch.feature_dim`` features, and
    each head predicts the response ``(U, S')``.  ``lam`` is the group-lasso
    penalty, finite and at least 0, on the per-transition scale of the module
    docstring's objective; ``seed`` keys the initialisation and the minibatch
    draws.  Per outer iteration, each trained action takes the next
    ``take = floor(batch_fraction * n_a)`` of its transitions from its own
    stream, ``substream(seed, action)``: one permutation per epoch, cut in
    order into ``n_a // take`` batches, with the last ``n_a mod take`` rows
    of each epoch unused.  It takes one step of size ``alpha0`` down its
    objective on (shared layers, its head).  Training runs exactly ``n_max``
    iterations.  Each action's objective on all its transitions is traced
    at initialisation, every ``check_every`` iterations and after the last;
    a non-finite one after an iteration raises `ConvergenceError`.  The
    fitted bits depend only on (data, penalty, seed, schedule), whatever
    ``check_every`` is, and the first ``N`` iterations of a longer fit are
    those of an ``N``-iteration fit.

    This is the one-fit, one-penalty call of the lock-step trainer that
    `cross_validate_adnn` runs on all its folds and penalties of one shape;
    a replica trained there takes the steps this function takes for its
    data, penalty and seed.

    ``actions_subset`` trains heads for a subset of action levels only
    (used by the per-action baseline); transitions with other actions are
    ignored.
    """
    return _train_replicas(arch, cfg, [(ds, seed)], [lam], actions_subset)[0]


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def default_grid(
    hidden_widths: Sequence[int], depths: Sequence[int], lams: Sequence[float]
) -> list:
    """The product grid of cells ``(hidden_width, depth, lam)``, in the
    deterministic order of `itertools.product` (width slowest, lam fastest).
    It is not the default grid, which is `PipelineConfig.grid`, and not
    exported; ``bench/workloads.py`` is its one caller.
    """
    return list(itertools.product(hidden_widths, depths, lams))


@dataclass(frozen=True)
class CrossValidationResult:
    best: tuple  # (hidden_width, depth, lam)
    scores: list  # [(cell, mean held-out error)]


def cross_validate_adnn(
    ds: TrajectoryDataset,
    feature_dim: int,
    grid: Sequence[tuple],
    folds: int = 5,
    cfg: FitConfig = FitConfig(),
    seed: int = 0,
    actions_subset: Optional[Sequence[int]] = None,
) -> CrossValidationResult:
    """Pick (width, depth, penalty) by subject-level cross-validation.

    Every fit trains with the schedule ``cfg``, and ``seed`` keys the fold
    split and every fit's seed.  Whole trajectories stay in one fold.  The
    validation score is the unpenalized squared prediction error per
    held-out subject, averaged over folds; ties break toward smaller depth,
    then smaller width, then larger penalty.

    Cells are grouped by the network they build.  A depth-1 network has no
    hidden layer (see `Architecture`), so every depth-1 cell builds the
    network of the default width, ``Architecture.hidden_width``, and trains
    and scores as that width's cell; a deeper cell builds its own (width,
    depth).  Fit seeds are keyed by the network's ``(width, depth, fold)``,
    so cells that differ only in ``lam`` share their initialisation and
    minibatch streams; duplicate cells, and depth-1 cells that differ only
    in width, score identically; and scores do not depend on grid order.
    Among tied depth-1 cells the tie-break reports the smallest width,
    whose refit builds the same network.

    Each network is one call of the trainer behind `fit_adnn`: its fits
    are the training folds, each seeded ``derive_seed(seed, width, depth,
    fold)`` with the network's width, and its penalties are its cells'
    distinct ``lam`` values.  Every (fold, penalty) replica trains in lock
    step and takes the steps of ``fit_adnn(train fold,
    Architecture(feature_dim, width, depth), cfg, lam=lam,
    seed=derive_seed(seed, width, depth, fold))``, up to the rounding of
    padded batches; a fold draws its initialisation and, per action, one
    permutation per epoch of minibatch rows (the ``n_a mod take`` rows an
    epoch leaves over go unused) once, for all its penalties.  So a fold's
    bits depend only on (data, penalty, seed, schedule), up to that
    rounding.  A penalty that is negative or not finite raises ValueError,
    and a non-finite cost in any replica raises `ConvergenceError`.
    """
    cells = list(grid)
    if not cells:
        raise ValueError("grid must be nonempty")
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > ds.n_subjects:
        raise ValueError(f"folds {folds} > n_subjects {ds.n_subjects}")
    perm = substream(seed, 0xF01D).permutation(ds.n_subjects)
    fold_members = np.array_split(perm, folds)
    fold_sets = [
        (np.setdiff1d(perm, members), members) for members in fold_members
    ]

    # one trainer call per network over its folds and distinct penalties;
    # seeds are keyed by the network's (width, depth, fold), not lam.  A
    # depth-1 network has no hidden layer: every width is the default's
    networks = [(width if depth > 1 else Architecture.hidden_width, depth)
                for width, depth, _ in cells]
    shapes = {}
    for network, (_, _, lam) in zip(networks, cells):
        lams = shapes.setdefault(network, [])
        if lam not in lams:
            lams.append(lam)
    folds_data = []
    for train_idx, valid_idx in fold_sets:
        valid = ds.subset_subjects(valid_idx)
        folds_data.append((ds.subset_subjects(train_idx), flatten_transitions(valid),
                           valid.n_subjects))
    cell_scores = {}
    for (width, depth), lams in shapes.items():
        arch = Architecture(feature_dim, width, depth)
        fits = [(train, derive_seed(seed, width, depth, fi))
                for fi, (train, _, _) in enumerate(folds_data)]
        models = _train_replicas(arch, cfg, fits, lams, actions_subset)
        for k, lam in enumerate(lams):
            fold_errors = []
            for fi, (_, tr, n_valid) in enumerate(folds_data):
                model = models[fi * len(lams) + k]
                errors = _squared_errors(tr, tr.responses, model, model.actions)
                fold_errors.append(sum(errors.values()) / n_valid)
            cell_scores[(width, depth, lam)] = float(np.mean(fold_errors))
    scores = [((width, depth, lam), cell_scores[network + (lam,)])
              for network, (width, depth, lam) in zip(networks, cells)]

    best = min(scores, key=lambda item: (item[1], item[0][1], item[0][0], -item[0][2]))
    return CrossValidationResult(best=best[0], scores=scores)


# ---------------------------------------------------------------------------
# Dimension selection and the full pipeline
# ---------------------------------------------------------------------------


def residual_independence_pvalue(
    ds: TrajectoryDataset,
    model,
    n_permutations: int = 999,
    seed: int = 0,
    min_stratum: int = 5,
    actions_subset: Optional[Sequence[int]] = None,
) -> TestReport:
    """Test prediction residuals for independence of the current state.

    ``model`` is anything with ``predict(states, action) -> (m, p+1)``.
    Residuals ``Y^{t+1} - prediction`` are tested against ``S^t`` within
    action levels and pooled over time.  The report carries the pooled
    p-value, which the caller compares with its own level; a p-value above
    it supports the model's features as capturing all state information
    relevant to the response.
    """
    actions = sorted(range(1, ds.n_actions + 1) if actions_subset is None else actions_subset)
    tr = flatten_transitions(ds)
    y = tr.responses
    resid = np.full(y.shape, np.nan)
    for a in actions:
        idx = tr.actions == a
        resid[idx] = y[idx] - model.predict(tr.states[idx], a)
    side = draw_permuted_side(
        ds.states[:, :-1], ds, n_permutations=n_permutations, seed=seed,
        min_stratum=min_stratum, actions=actions,
    )
    # rows of untested actions stay NaN; the test never reads them
    return stratified_pooled_test(resid.reshape(ds.actions.shape + (-1,)), side)


@dataclass(frozen=True)
class DimensionSelection:
    feature_dim: int
    model: AdnnModel
    reports: list  # [(dim, best cell, cv score, TestReport)]
    none_sufficient: bool


def select_feature_dimension(
    ds: TrajectoryDataset,
    config: PipelineConfig,
    seed: int = 0,
    actions_subset: Optional[Sequence[int]] = None,
) -> DimensionSelection:
    """Smallest feature dimension whose residuals pass the independence test.

    Candidate dimensions ``config.dims`` (default: `default_dims` up to the
    state dimension) are tried in ascending order.  Each is tuned by
    cross-validation over ``config.grid`` with ``min(config.folds,
    ds.n_subjects)`` folds and ``config.cv_fit`` (default: ``config.fit``),
    refit on the full data with ``config.fit`` and the winning cell, and
    accepted when the pooled residual p-value exceeds
    ``config.tau_dim``.  If none passes, the largest dimension is returned
    with ``none_sufficient`` set.  ``seed`` keys every CV, fit and test
    stream; ``actions_subset`` restricts fits and tests to those actions.
    """
    dims = config.dims if config.dims is not None else default_dims(ds.state_dim)
    folds = min(config.folds, ds.n_subjects)
    tau = config.tau_dim
    reports = []
    model = None
    for r in dims:
        cv = cross_validate_adnn(
            ds,
            feature_dim=r,
            grid=config.grid,
            folds=folds,
            cfg=config.cv_fit or config.fit,
            seed=derive_seed(seed, r, 0),
            actions_subset=actions_subset,
        )
        width, depth, lam = cv.best
        model = fit_adnn(
            ds,
            Architecture(r, width, depth),
            config.fit,
            lam=lam,
            seed=derive_seed(seed, r, 1),
            actions_subset=actions_subset,
        )
        report = residual_independence_pvalue(
            ds,
            model,
            n_permutations=config.n_permutations,
            seed=derive_seed(seed, r, 2),
            min_stratum=config.min_stratum,
            actions_subset=actions_subset,
        )
        best_score = dict(cv.scores)[cv.best]
        reports.append((r, cv.best, best_score, report))
        if report.p_value > tau:
            return DimensionSelection(
                feature_dim=r, model=model, reports=reports, none_sufficient=False,
            )
    return DimensionSelection(
        feature_dim=dims[-1], model=model, reports=reports, none_sufficient=True,
    )


def active_inputs(model: AdnnModel, col_tol: float = 0.05) -> list:
    """Raw inputs the feature map actually uses (0-based indices).

    A column of the first feature-layer weight matrix marks its input
    active when its norm exceeds ``col_tol`` times the largest column norm.
    Plain subgradient descent never produces exact zeros: suppressed
    columns keep wandering at the scale of (step size x penalty), around
    one to ten percent of a live column's norm, hence the relative
    tolerance, in [0, 1): at 1 or more no column would be active.
    """
    _check_col_tol(col_tol)
    norms = np.sqrt(np.square(model.first_layer).sum(axis=0))
    threshold = col_tol * norms.max() if norms.size else 0.0
    return [int(j) for j in np.flatnonzero(norms > threshold)]


def default_dims(max_dim: int) -> list:
    """Ascending candidate feature dimensions up to ``max_dim``."""
    ladder = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256]
    dims = [d for d in ladder if d <= max_dim]
    if not dims or dims[-1] != max_dim:
        dims.append(max_dim)
    return dims


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for the full feature-construction pipeline.

    ``tau`` is the screening level and ``tau_dim`` the level at which the
    residual test must fail to reject for a dimension to be accepted, both
    in (0, 1).  ``folds`` must be at least 2, ``col_tol`` in [0, 1),
    ``n_permutations`` at least 1, ``min_stratum`` at least 2, and
    ``screen_n_max`` at least 1 or None (no cap).
    ``dims``, when given, must be nonempty ascending positive integers.
    ``grid`` must be nonempty, and each cell a ``(width, depth, lam)`` of two
    positive integers and a finite penalty ``>= 0``.  The default grid holds
    16 cells, one per network of the product of widths 2, 4 and 8, depths 1
    and 2 and lam 0.001, 0.01, 0.1 and 1.0.  A depth-1 network does not
    read its width (see `cross_validate_adnn`), so depth 1 is listed once
    per penalty, at the default width 4.  Each network won, or scored
    within 10% of the winner, in at least one of 213 CV tables of that
    24-cell product: 120 on simgen ``linear``, ``quad`` and ``exp`` (n=30,
    T=90, coordinates 0-3, dimensions 1-4, seeds 1-10) and 93 on the paths
    that use this default at the default `ExperimentConfig`
    (`construct_sufficient_features` on its screened coordinates and
    `baselines.fit_tnn` on all 64, replicates 0-2 of each model, master
    seed 0).  The depth-1 lam 1.0 network qualified only on ``fit_tnn``
    tables, at 1.04x the winner, and (4, 2, 1.0) and (8, 2, 1.0) only in
    one of them (``quad``, replicate 1, action 2, dimension 1, whose winner
    beats the constant fit by about 10%), at 1.0976x and 1.0979x; there
    they fit the constant, as (2, 2, 0.1) and (2, 2, 1.0) do.  The 10% margin is about
    three fold standard errors of a winner's score.  The tables are in
    CHANGES.md.

    ``fit`` is the training schedule of the refit at each dimension and
    ``cv_fit`` that of the CV fits; the grid cells set their penalties and
    ``seed`` keys every stream.  The networks are sigmoid.
    """

    tau: float = 0.1
    tau_dim: float = 0.05
    dims: Optional[tuple] = None  # default: ladder up to the variable count
    grid: tuple = (
        (4, 1, 0.001), (4, 1, 0.01), (4, 1, 0.1), (4, 1, 1.0),
        (2, 2, 0.001), (2, 2, 0.01), (2, 2, 0.1), (2, 2, 1.0),
        (4, 2, 0.001), (4, 2, 0.01), (4, 2, 0.1), (4, 2, 1.0),
        (8, 2, 0.001), (8, 2, 0.01), (8, 2, 0.1), (8, 2, 1.0),
    )
    folds: int = 5
    fit: FitConfig = FitConfig()
    cv_fit: Optional[FitConfig] = None  # lighter budget for CV fits
    n_permutations: int = 999
    min_stratum: int = 5
    col_tol: float = 0.05
    seed: int = 0
    max_iterations: int = 10
    screen_n_max: Optional[int] = None

    def __post_init__(self):
        # the screening and test settings are checked here too, so that a run
        # fails before it samples data or runs any method
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not 0 < self.tau_dim < 1:
            raise ValueError(f"tau_dim must be in (0, 1), got {self.tau_dim}")
        if self.n_permutations < 1:
            raise ValueError(f"n_permutations must be >= 1, got {self.n_permutations}")
        if self.min_stratum < 2:
            raise ValueError(f"min_stratum must be >= 2, got {self.min_stratum}")
        if self.screen_n_max is not None and self.screen_n_max < 1:
            raise ValueError(f"screen_n_max must be >= 1 or None, got {self.screen_n_max}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        _check_col_tol(self.col_tol)
        if self.dims is not None:
            dims = list(self.dims)
            if (not dims
                    or any(isinstance(r, bool) or not isinstance(r, numbers.Integral) or r < 1
                           for r in dims)
                    or sorted(dims) != dims):
                raise ValueError(f"dims must be nonempty ascending positive integers, got {dims}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for cell in self.grid:
            _check_grid_cell(cell)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


def _check_grid_cell(cell) -> None:
    if not isinstance(cell, Sequence) or isinstance(cell, str) or len(cell) != 3:
        raise ValueError(f"grid cell must be (width, depth, lam), got {cell!r}")
    width, depth, lam = cell
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1
           for v in (width, depth)):
        raise ValueError(f"grid cell width and depth must be positive integers, got {cell!r}")
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real):
        raise ValueError(f"grid cell lam must be a real number, got {cell!r}")
    _check_lam(lam)


@dataclass(frozen=True)
class PipelineIteration:
    variables: list
    feature_dim: int
    active: list
    none_sufficient: bool


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of the screening + fitting + restriction pipeline.

    ``variables`` are the surviving raw coordinates (0-based);
    ``feature_map`` accepts full state vectors and selects those columns
    itself.  ``feature_map`` is None when screening selects nothing.
    """

    feature_map: Optional[NetworkFeatureMap]
    variables: list
    feature_dim: int
    screen_result: ScreenResult
    iterations: list
    flags: tuple = ()

    def to_jsonable(self) -> dict:
        return {
            "variables": self.variables,
            "feature_dim": self.feature_dim,
            "flags": list(self.flags),
            "screen": self.screen_result.to_jsonable(),
            "iterations": [dataclasses.asdict(it) for it in self.iterations],
            "feature_map": None
            if self.feature_map is None
            else self.feature_map.to_jsonable(),
        }


def construct_sufficient_features(
    ds: TrajectoryDataset, config: PipelineConfig = PipelineConfig()
) -> PipelineResult:
    """Full pipeline: screen, fit at the selected dimension, restrict, repeat.

    Screening restricts the state to coordinates tied to the utility
    process.  Each iteration then selects the feature dimension on the
    restricted data and keeps only the active inputs of the fitted map;
    iteration stops when the variable set stops shrinking (further passes
    would see identical inputs).  The returned feature map composes the
    final network with the raw-variable selection.  When ``max_iterations``
    passes end with a shrunk set, the result keeps the variables the final
    network was fitted on, flags ``iteration-limit-reached``, and the shrunk
    set stays in ``iterations[-1].active``.
    """
    scr = screen(
        ds,
        tau=config.tau,
        n_max=config.screen_n_max,
        n_permutations=config.n_permutations,
        seed=derive_seed(config.seed, 0),
        min_stratum=config.min_stratum,
    )
    if not scr.selected:
        return PipelineResult(
            feature_map=None,
            variables=[],
            feature_dim=0,
            screen_result=scr,
            iterations=[],
            flags=("utility-independent-of-state",),
        )

    variables = list(scr.selected)
    iterations: list[PipelineIteration] = []
    flags: tuple = ()
    selection = None
    for it in range(1, config.max_iterations + 1):
        sub = ds.restrict_columns(variables)
        selection = select_feature_dimension(sub, config, seed=derive_seed(config.seed, it))
        active = active_inputs(selection.model, config.col_tol)
        active_abs = [variables[j] for j in active]
        iterations.append(
            PipelineIteration(
                variables=list(variables),
                feature_dim=selection.feature_dim,
                active=active_abs,
                none_sufficient=selection.none_sufficient,
            )
        )
        if selection.none_sufficient and "none-sufficient" not in flags:
            flags += ("none-sufficient",)
        if not active_abs:
            flags += ("all-inputs-shrunk",)
            break
        if set(active_abs) == set(variables):
            break
        if it == config.max_iterations:
            flags += ("iteration-limit-reached",)
            break
        variables = active_abs

    fmap = selection.model.feature_map(
        input_indices=variables, input_dim=ds.state_dim
    )
    return PipelineResult(
        feature_map=fmap,
        variables=variables,
        feature_dim=selection.feature_dim,
        screen_result=scr,
        iterations=iterations,
        flags=flags,
    )
