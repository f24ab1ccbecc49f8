"""Alternating network feature learner.

A shared feature network maps the state into a low-dimensional bounded
feature vector; one regression head per action predicts the response
``Y^{t+1} = (U^t, S^{t+1})`` from the features.  Training alternates over
actions: each outer iteration takes, for every action in turn, one
subgradient descent step on (shared network, that action's head) using a
minibatch of that action's transitions, leaving the other heads untouched.
Fitting works on the row-stacked steps of ``core.flatten_transitions``, and
the shared network and a head run forward and backward as one network
through ``features.mlp_forward`` and ``features.mlp_backward``.

There is one training loop.  It takes fits ``(training data, seed)`` of one
architecture and a list of penalties, and trains every (fit, penalty)
replica in lock step, their parameters stacked on a leading replica axis.
Each fit draws its initialisation and minibatch rows once, for all the
penalties, so every replica takes the steps a lone fit with its data,
penalty and seed would take.  `fit_adnn` is the call with one fit and one
penalty; cross-validation makes one call per (width, depth), with the
training folds as fits.

The arrays are small (a few rows per batch), so a step costs numpy calls
rather than arithmetic, and the step is written to make few of them.  The
replicas' feature layers lie in one flat ``(replicas, parameters)``
buffer and each action's head in another; the layer arrays are views of
them.  A step writes its gradients into a buffer of the same layout,
scales it with one in-place ``grad *= alpha`` and updates each group with
one ``params -= grad``.  These are the floating-point operations of one
``w -= alpha * dw`` per array, so the fitted parameters do not depend on
the layout.

Each action's step descends, on its minibatch of that action's transitions,
the per-transition batch mean of the squared error plus the full penalty,

    L_a(theta) = mean over the batch of ||prediction(S, a) - Y||^2
                 + lam * sum_j ||column j of W1||_2,

where ``W1`` is the first feature-layer weight matrix; the column-norm
penalty is a group lasso over input variables, so a column driven to zero
removes that raw coordinate from the feature map entirely.  The fit
criterion that the cost trace records is penalized least squares summed
per subject instead,

    C(theta) = (1/n) sum_i sum_t ||prediction(S_i^t, A_i^t) - Y_i^{t+1}||^2
               + lam * sum_j ||column j of W1||_2,

traced per action as that action's share of the sum plus the whole
penalty.  An action taken at ``n_a`` of the ``n T`` transitions adds
``n_a / n`` times its per-transition mean squared error to C, about
``T / K`` times with ``K`` equally taken actions, but only the mean itself
to its steps' objective.  Relative to C the steps therefore weigh the
penalty about ``T / K`` times as heavily: 45 times at ``T = 90`` with two
actions.

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
from .features import NetworkFeatureMap, _mlp_forward, init_layers, mlp_backward, mlp_forward
from .rng import derive_seed, substream
from .screening import ScreenResult, screen

__all__ = [
    "ConvergenceError",
    "Architecture",
    "FitConfig",
    "AdnnModel",
    "fit_adnn",
    "default_grid",
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
    state dimension of the training data.
    """

    feature_dim: int
    hidden_width: int = 4
    depth: int = 1

    def __post_init__(self):
        for name in ("feature_dim", "hidden_width", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _check_lam(lam) -> None:
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")


@dataclass(frozen=True)
class FitConfig:
    """Training schedule.

    Each outer iteration draws a ``batch_fraction`` of every action's
    transitions.  The step size decays as ``alpha0 / (1 + b / beta)`` over
    outer iterations ``b``, with ``alpha0`` finite and positive and ``beta``
    positive; training runs exactly ``n_max`` of them.  Each step descends
    the batch mean of the squared error plus the full penalty, not the
    per-subject cost that the trace records (see the module docstring).
    ``check_every`` is the cadence of the full-data cost trace and of the
    divergence check; it does not change the fitted parameters.  The penalty
    and the seed are arguments of `fit_adnn` and `cross_validate_adnn`.
    """

    batch_fraction: float = 0.1
    alpha0: float = 0.05
    beta: float = 200.0
    n_max: int = 5000
    check_every: int = 100

    def __post_init__(self):
        if not 0 < self.batch_fraction < 1:
            raise ValueError(f"batch_fraction must be in (0, 1), got {self.batch_fraction}")
        # a step must be finite and downhill, and its decay must not divide by zero
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")

    def step_size(self, b: int) -> float:
        return self.alpha0 / (1.0 + b / self.beta)


@dataclass
class AdnnModel:
    """Fitted feature network plus per-action regression heads.

    ``trace`` records the per-action full-data cost every ``check_every``
    outer iterations and after the last (index 0 is the initialization):
    per action, its squared errors summed and divided by the subject
    count, plus the whole penalty.  That is the action's share of the
    module docstring's C, not the batch-mean objective the steps descend.
    Fitted models are treated as immutable; nothing in the package mutates
    one after `fit_adnn` returns.
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


def _penalty(model: AdnnModel, lam: float) -> float:
    return lam * float(np.sqrt(np.square(model.first_layer).sum(axis=0)).sum())


def _squared_errors(tr: Transitions, y: np.ndarray, model: AdnnModel, actions) -> dict:
    """Per-action summed squared error of the predicted responses ``y``."""
    feats = model.features(tr.states)
    errors = {}
    for a in actions:
        idx = tr.actions == a
        pred = model._head_forward(feats[idx], a)
        errors[a] = float(np.square(pred - y[idx]).sum())
    return errors


def _costs_by_action(tr, y, n_subjects, model, lam, actions):
    """Per-action cost: that action's squared-error share plus the penalty."""
    pen = _penalty(model, lam)
    errors = _squared_errors(tr, y, model, actions)
    return {a: err / n_subjects + pen for a, err in errors.items()}


def _batch_constants(takes, lams) -> tuple:
    """``(take, pad, lam)`` for `_batch_gradients` on replicas that own the
    first ``takes[r]`` rows of ``(R, max(takes), .)`` batches, with penalties
    ``lams``: the ``(R, 1, 1)`` row counts, the ``(R, max(takes), 1)`` mask
    of padding rows, or ``None`` when no replica is padded, and the ``(R, 1,
    1)`` penalties.  They are the same at every step, so a trainer makes
    them once.
    """
    take = np.asarray(takes, dtype=np.float64)[:, None, None]
    pad = np.arange(take.max())[:, None] >= take
    return (take, pad if pad.any() else None,
            np.asarray(lams, dtype=np.float64)[:, None, None])


def _batch_gradients(s, y, constants, layers, grads) -> None:
    """Gradients of each replica's batch objective, written into ``grads``:
    the mean over its batch rows of the squared error, plus its penalty's
    subgradient.  The mean is per transition, where the traced cost divides
    by the subject count (see the module docstring).

    ``layers`` is a stacked network (see `_stack`), every array with a
    leading replica axis ``R``: the feature layers and then one action's
    head, run as one network whose last layer is affine.  ``grads`` holds a
    ``(dW, db)`` pair shaped like each layer's parameters; the trainer's are
    views of flat buffers laid out like the parameters' (see
    `_layer_views`), and `features.mlp_backward` writes them in place.
    ``s`` and ``y`` are ``(R, rows, .)`` batches in which replica ``r`` owns
    its first ``take[r]`` rows; the rest are padding, get a zero loss
    gradient and do not count in the mean.  ``constants`` holds the row
    counts, padding mask and penalties (see `_batch_constants`).  The
    group-lasso subgradient on the first feature layer is ``lam[r] * column
    / ||column||`` for nonzero columns and zero otherwise.  The caller
    silences the overflow of the sigmoids' exp.
    """
    take, pad, lam = constants
    cache = []
    # the affine output is fresh, so the loss gradient is made in its place
    delta = _mlp_forward(s, layers, affine_last=True, cache=cache)
    delta -= y
    delta *= 2.0
    delta /= take
    if pad is not None:
        np.copyto(delta, 0.0, where=pad)
    mlp_backward(cache, layers, delta, grads)

    w1, dw1 = layers[0][0], grads[0][0]
    norms = np.sqrt(np.add.reduce(np.square(w1), axis=-2, keepdims=True))
    scale = np.divide(lam, norms, out=np.zeros(norms.shape), where=norms > 0)
    dw1 += w1 * scale


def _layer_views(buffer, shapes) -> list:
    """``(W, b)`` views of an ``(R, P)`` buffer whose rows hold layers with
    ``(out, in)`` weight shapes ``shapes`` end to end, each weight and then
    its bias: weights ``(R, out, in)`` and biases ``(R, 1, out)``, the shapes
    of `features.stack_layers`."""
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


def _train_replicas(arch, cfg, fits, lams, actions_subset=None) -> list:
    """Train every fit ``(train dataset, seed)`` under every penalty in
    ``lams``, in lock step.

    Replica ``d * len(lams) + l`` is fit ``d`` under ``lams[l]``.  The fits'
    data share one state dimension, which sets the input and response
    widths.  Every replica follows the training of a lone ``fit_adnn(data,
    arch, cfg, lam=lam, seed=seed)`` call.  A fit draws its initialisation
    and then, per iteration and action, its minibatch rows from
    ``substream(seed)``, once for all its penalties.  Each step gathers
    every replica's batch from the action's pool, where each fit's rows
    appear once, into one ``(R, max take, .)`` array padded with a zero row,
    and descends on all replicas at once.  A replica whose batches are
    padded can end a few ulps from the lone fit, because the padded gradient
    may sum its rows in another order.  Returns one model per replica, in
    order, each with its own cost trace; a non-finite cost in any replica
    raises `ConvergenceError`.

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
    data, action_rows = [], []
    for train, _ in fits:
        tr = flatten_transitions(train)
        data.append((tr, tr.responses, train.n_subjects))
        rows_by_action = {}
        for a in actions:
            rows = np.flatnonzero(tr.actions == a)
            if rows.size == 0:
                raise ValueError(f"action {a} is absent from the data")
            if int(cfg.batch_fraction * rows.size) == 0:
                raise ValueError(
                    f"batch fraction too small: floor({cfg.batch_fraction} * {rows.size}) = 0 "
                    f"for action {a}"
                )
            rows_by_action[a] = rows
        action_rows.append(rows_by_action)

    rngs = [substream(seed) for _, seed in fits]
    inits = [_init_model(arch, state_dim, actions, rng) for rng in rngs]
    model, feature_params, head_params = _stack([init for init in inits for _ in lams])
    n_replicas = len(fits) * n_lams
    # one gradient buffer: the feature layers' part, then a part that every
    # head shares (the heads have one shape)
    n_feature = feature_params.shape[1]
    grad = np.empty((n_replicas, n_feature + head_params[actions[0]].shape[1]))
    feature_grad, head_grad = grad[:, :n_feature], grad[:, n_feature:]
    grads = (_layer_views(feature_grad, [w.shape[1:] for w, _ in model.feature_layers])
             + _layer_views(head_grad, [w.shape[1:] for w, _ in model.heads[actions[0]]]))

    # per action: every fit's rows end to end, then a zero row that pads the
    # shorter batches; batches[d, l] is replica d * n_lams + l's batch, and
    # rows the same index array with one row per replica.  A fit's draw is
    # written through a view of its batches' first `take` columns.
    steps = []
    for a in actions:
        sizes = np.array([rows[a].size for rows in action_rows])
        takes = (cfg.batch_fraction * sizes).astype(np.int64)
        offsets = np.cumsum(sizes) - sizes
        states = [tr.states[rows[a]] for (tr, _, _), rows in zip(data, action_rows)]
        responses = [y[rows[a]] for (_, y, _), rows in zip(data, action_rows)]
        batches = np.full((len(fits), n_lams, takes.max()), sizes.sum())
        steps.append((
            [(rng, n, take, offset, batch[:, :take]) for rng, batch, n, take, offset
             in zip(rngs, batches, sizes.tolist(), takes.tolist(), offsets.tolist())],
            batches.reshape(n_replicas, -1),
            np.concatenate(states + [np.zeros((1, state_dim))]),
            np.concatenate(responses + [np.zeros((1, state_dim + 1))]),
            _batch_constants(np.repeat(takes, n_lams), list(lams) * len(fits)),
            model.feature_layers + model.heads[a],
            head_params[a],
        ))

    traces = [[] for _ in range(n_replicas)]

    def record_costs():
        for r, trace in enumerate(traces):
            tr, y, n = data[r // n_lams]
            trace.append(_costs_by_action(tr, y, n, _replica(model, r), lams[r % n_lams],
                                          actions))

    record_costs()
    with np.errstate(over="ignore"):
        for b in range(1, cfg.n_max + 1):
            alpha = cfg.step_size(b)
            for draws, rows, states, responses, constants, layers, head in steps:
                for rng, n, take, offset, batch in draws:
                    drawn = rng.choice(n, size=take, replace=False)
                    drawn += offset
                    np.copyto(batch, drawn)
                _batch_gradients(states.take(rows, axis=0), responses.take(rows, axis=0),
                                 constants, layers, grads)
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
    penalty, at least 0; ``seed`` keys the initialisation and the minibatch
    draws.  Per outer iteration, each trained action draws
    ``floor(batch_fraction * n_a)`` of its transitions without replacement
    and descends on (shared layers, its head).  Training runs exactly
    ``n_max`` iterations.  The full-data cost is traced at initialisation,
    every ``check_every`` iterations and after the last; a non-finite cost
    after an iteration raises `ConvergenceError`.  Identical inputs, penalty
    and seed reproduce the fitted parameters bit for bit, whatever
    ``check_every`` is.

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
    hidden_widths: Sequence[int] = (2, 4, 8),
    depths: Sequence[int] = (1, 2),
    lams: Sequence[float] = (0.001, 0.01, 0.1, 1.0),
) -> list:
    """Grid cells ``(hidden_width, depth, lam)`` in deterministic order."""
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
    then smaller width, then larger penalty.  Fit seeds are keyed by
    ``(width, depth, fold)``, so cells that differ only in ``lam`` share
    their initialisation and minibatch streams, duplicate cells score
    identically, and scores do not depend on grid order.

    Each (width, depth) is one call of the trainer behind `fit_adnn`: its
    fits are the training folds, each seeded ``derive_seed(seed, width,
    depth, fold)``, and its penalties are the shape's distinct ``lam``
    values.  Every (fold, penalty) replica trains in lock step and takes the
    steps of ``fit_adnn(train fold, Architecture(feature_dim, width,
    depth), cfg, lam=lam, seed=derive_seed(seed, width, depth, fold))``,
    up to the rounding of padded batches; a fold draws its initialisation
    and each step's minibatch rows once, for all its penalties.  A duplicate
    cell trains once.  A penalty below zero raises ValueError, and a
    non-finite cost in any replica raises `ConvergenceError`.
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

    # one trainer call per (width, depth) over its folds and distinct
    # penalties; seeds are keyed by (width, depth, fold), not lam
    shapes = {}
    for width, depth, lam in cells:
        lams = shapes.setdefault((width, depth), [])
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
    scores = [((width, depth, lam), cell_scores[(width, depth, lam)])
              for width, depth, lam in cells]

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
    tau: float = 0.05,
    min_stratum: int = 5,
    actions_subset: Optional[Sequence[int]] = None,
) -> TestReport:
    """Test prediction residuals for independence of the current state.

    ``model`` is anything with ``predict(states, action) -> (m, p+1)``.
    Residuals ``Y^{t+1} - prediction`` are tested against ``S^t`` within
    action levels and pooled over time; failing to reject supports the
    model's features as capturing all state information relevant to the
    response.
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
    return stratified_pooled_test(resid.reshape(ds.actions.shape + (-1,)), side, tau=tau)


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
    cross-validation over ``config.grid`` (default: `default_grid`) with
    ``min(config.folds, ds.n_subjects)`` folds and ``config.cv_fit`` (default:
    ``config.fit``), refit on the full data with ``config.fit`` and the
    winning penalty, and accepted when the pooled residual p-value exceeds
    ``config.tau_dim``.  If none passes, the largest dimension is returned
    with ``none_sufficient`` set.  ``seed`` keys every CV, fit and test
    stream; ``actions_subset`` restricts fits and tests to those actions.
    """
    dims = config.dims if config.dims is not None else default_dims(ds.state_dim)
    cells = config.grid if config.grid is not None else default_grid()
    folds = min(config.folds, ds.n_subjects)
    tau = config.tau_dim
    reports = []
    model = None
    for r in dims:
        cv = cross_validate_adnn(
            ds,
            feature_dim=r,
            grid=cells,
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
            tau=tau,
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
    tolerance.
    """
    if col_tol < 0:
        raise ValueError(f"col_tol must be >= 0, got {col_tol}")
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
    in (0, 1).  ``folds`` must be at least 2, ``col_tol`` at least 0,
    ``n_permutations`` at least 1, ``min_stratum`` at least 2, and
    ``screen_n_max`` at least 1 or None (no cap).
    ``dims``, when given, must be nonempty ascending positive integers, and
    each ``grid`` cell a ``(width, depth, lam)`` of two positive integers and
    a penalty ``>= 0``.  ``fit`` is the training schedule of the refit at
    each dimension and ``cv_fit`` that of the CV fits; the grid cells set
    their penalties and ``seed`` keys every stream.  The networks are
    sigmoid.
    """

    tau: float = 0.1
    tau_dim: float = 0.05
    dims: Optional[tuple] = None  # default: ladder up to the variable count
    grid: Optional[tuple] = None  # default: default_grid()
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
        if self.col_tol < 0:
            raise ValueError(f"col_tol must be >= 0, got {self.col_tol}")
        if self.dims is not None:
            dims = list(self.dims)
            if (not dims or any(not isinstance(r, numbers.Integral) or r < 1 for r in dims)
                    or sorted(dims) != dims):
                raise ValueError(f"dims must be nonempty ascending positive integers, got {dims}")
        if self.grid is not None:
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
