"""Synthetic decision-process generators used by the experiment harness,
and the oracle feature maps known to be sufficient for them.

The generative family has a 64-dimensional signal block, two action levels,
and an index nonlinearity ``g`` (identity, ``min(u^2, 3)``, or
``min(exp(u), 3)``; the truncation keeps coordinates on a common scale over
time).  Writing ``A`` for the action coded 0/1 and blocks ``i = 1..16``:

    S^1            ~ Normal(0, 0.25 I)
    S^{t+1}_{4i-3}, S^{t+1}_{4i-2} ~ Normal((1-A) g(S_i^t), 0.01(1-A) + 0.25 A)
    S^{t+1}_{4i-1}, S^{t+1}_{4i}   ~ Normal(A g(S_i^t),     0.01 A + 0.25(1-A))
    U^t ~ Normal((1-A)[2{g(S_1)+g(S_2)} - {g(S_3)+g(S_4)}]
                 + A[2{g(S_3)+g(S_4)} - {g(S_1)+g(S_2)}], 0.01)

so the first 16 coordinates drive the next state and the first 4 drive the
utility.  Optional noise coordinates come in three flavors, roughly a third
each of the requested count ``m``: "dependent" coordinates that evolve by
the same block law among themselves but never touch the utility
(``floor(m/3)`` of them), white noise redrawn ``Normal(0, 0.25)`` every
step, and per-subject constants drawn once at t=1 (``ceil(m/3)`` each).
The split gives ``m`` columns in all unless ``m = 1 (mod 3)``, when it
gives ``m + 1``.

Actions are stored as 1/2; the formulas above use the 0/1 coding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TrajectoryDataset, check_json_object
from .features import CoordinateFeatureMap, FeatureMap
from .rng import substream

__all__ = [
    "ACTIONS",
    "GenerativeModelSpec",
    "g_function",
    "sample_trajectories",
    "step_process",
    "TruncatedGFeatureMap",
    "ORACLE_VARIABLES",
    "oracle_feature_map",
]

SIGNAL_DIM = 64

# The stored action levels; ``A = level - 1`` in the formulas above.
ACTIONS = (1, 2)

_G_KINDS = ("linear", "quad", "exp")


def g_function(kind: str):
    """The transition nonlinearity of a model kind."""
    if kind == "linear":
        return lambda u: np.asarray(u, dtype=np.float64)
    if kind == "quad":
        return lambda u: np.minimum(np.square(u), 3.0)
    if kind == "exp":
        return lambda u: np.minimum(np.exp(u), 3.0)
    raise ValueError(f"unknown g kind {kind!r}; expected one of {_G_KINDS}")


@dataclass(frozen=True)
class GenerativeModelSpec:
    """Parameters of one generative model instance.

    ``n_noise`` is the requested noise-coordinate count ``m``; the split
    into dependent / white / constant is ``floor(m/3)`` / ``ceil(m/3)`` /
    ``ceil(m/3)``.  That is ``m`` columns, except when ``m = 1 (mod 3)``:
    then it is ``m + 1`` (``m = 4`` gives 1 / 2 / 2).
    """

    g_kind: str = "linear"
    n_noise: int = 0
    signal_dim: int = SIGNAL_DIM

    def __post_init__(self):
        g_function(self.g_kind)  # validates
        if self.n_noise < 0:
            raise ValueError(f"n_noise must be >= 0, got {self.n_noise}")
        if self.signal_dim < 4 or self.signal_dim % 4 != 0:
            raise ValueError(
                f"signal_dim must be a positive multiple of 4, got {self.signal_dim}"
            )

    @property
    def n_dependent(self) -> int:
        return self.n_noise // 3

    @property
    def n_white(self) -> int:
        return math.ceil(self.n_noise / 3)

    @property
    def n_constant(self) -> int:
        return math.ceil(self.n_noise / 3)

    @property
    def state_dim(self) -> int:
        return self.signal_dim + self.n_dependent + self.n_white + self.n_constant

    # Column layout: [signal | dependent | white | constant], 0-based.
    @property
    def dependent_indices(self) -> range:
        return range(self.signal_dim, self.signal_dim + self.n_dependent)

    @property
    def white_indices(self) -> range:
        start = self.signal_dim + self.n_dependent
        return range(start, start + self.n_white)

    @property
    def constant_indices(self) -> range:
        start = self.signal_dim + self.n_dependent + self.n_white
        return range(start, start + self.n_constant)

    @staticmethod
    def from_jsonable(data: dict) -> "GenerativeModelSpec":
        """Spec from a JSON object ``{"model": g_kind}`` with optional integer
        ``n_noise`` and ``signal_dim``.

        ValueError names an unknown key, a value of the wrong JSON kind and a
        missing ``model``.
        """
        check_json_object("GenerativeModelSpec", data,
                          {"model": str, "n_noise": int, "signal_dim": int})
        if "model" not in data:
            raise ValueError("GenerativeModelSpec needs the key 'model'")
        return GenerativeModelSpec(
            g_kind=data["model"],
            n_noise=data.get("n_noise", 0),
            signal_dim=data.get("signal_dim", SIGNAL_DIM),
        )


def _block_law(drivers: np.ndarray, a01: np.ndarray) -> tuple:
    """``(mean, sd)`` of each of the four column groups of a self-transitioning
    block.

    ``drivers`` is the (rollouts, n_drivers) matrix of ``g`` values; driver
    ``i`` fills up to four consecutive output columns, column ``4 * i + j``
    in group ``j``: two with mean ``(1-A) * driver`` and variance
    ``0.01(1-A) + 0.25 A``, then two with mean ``A * driver`` and the
    complementary variance.  Means are (rollouts, n_drivers), standard
    deviations (rollouts, 1).  It is the one statement of the law: the step
    draws from it, and the closed-form conditional mean in
    tests/test_adnn.py (`SimgenTruth`) reads it.
    """
    a = a01[:, None]
    low = ((1.0 - a) * drivers, np.sqrt(0.01 * (1.0 - a) + 0.25 * a))
    high = (a * drivers, np.sqrt(0.01 * a + 0.25 * (1.0 - a)))
    return low, low, high, high


def _draw_block(out: np.ndarray, drivers: np.ndarray, a01: np.ndarray,
                noise: np.ndarray) -> None:
    """Write ``sd * noise + mean`` of `_block_law` into the block's columns ``out``."""
    for j, (mean, sd) in enumerate(_block_law(drivers, a01)):
        cols = out[:, j::4]
        np.multiply(sd, noise[:, j::4], out=cols)
        np.add(cols, mean[:, : cols.shape[1]], out=cols)


def _utility_mean(g, states: np.ndarray, a01: np.ndarray) -> np.ndarray:
    g4 = g(states[:, :4])
    x = g4[:, 0] + g4[:, 1]
    y = g4[:, 2] + g4[:, 3]
    return (1.0 - a01) * (2.0 * x - y) + a01 * (2.0 * y - x)


def step_process(
    spec: GenerativeModelSpec,
    states: np.ndarray,
    a01: np.ndarray,
    rng: np.random.Generator,
):
    """Draw ``(next_states, utilities)`` for a batch of current states."""
    states = np.asarray(states, dtype=np.float64)
    a01 = np.asarray(a01, dtype=np.float64)
    g = g_function(spec.g_kind)
    r = states.shape[0]
    nxt = np.empty_like(states)

    _draw_block(nxt[:, : spec.signal_dim], g(states[:, : spec.signal_dim // 4]), a01,
                rng.standard_normal((r, spec.signal_dim)))
    if spec.n_dependent > 0:
        dep = spec.dependent_indices
        _draw_block(nxt[:, dep.start : dep.stop],
                    g(states[:, dep.start : dep.start + math.ceil(spec.n_dependent / 4)]),
                    a01, rng.standard_normal((r, spec.n_dependent)))
    if spec.n_white > 0:
        white = spec.white_indices
        nxt[:, white.start : white.stop] = 0.5 * rng.standard_normal((r, spec.n_white))
    const = spec.constant_indices
    nxt[:, const.start : const.stop] = states[:, const.start : const.stop]

    utilities = _utility_mean(g, states, a01) + 0.1 * rng.standard_normal(r)
    return nxt, utilities


def sample_trajectories(
    spec: GenerativeModelSpec,
    n: int,
    horizon: int,
    rng: int,
) -> TrajectoryDataset:
    """Sample ``n`` i.i.d. trajectories of length ``horizon``.

    ``rng`` is an integer seed of `rng.substream`.  Actions are i.i.d.
    Bernoulli(0.5) over the two levels of ``ACTIONS``.
    """
    if n < 1 or horizon < 1:
        raise ValueError("need n >= 1 and horizon >= 1")
    rng = substream(rng)
    p = spec.state_dim
    states = np.empty((n, horizon + 1, p))
    actions = np.empty((n, horizon), dtype=np.int64)
    utilities = np.empty((n, horizon))
    states[:, 0] = 0.5 * rng.standard_normal((n, p))
    for t in range(horizon):
        a01 = (rng.random(n) < 0.5).astype(np.float64)
        states[:, t + 1], utilities[:, t] = step_process(spec, states[:, t], a01, rng)
        actions[:, t] = a01.astype(np.int64) + 1
    return TrajectoryDataset(
        states=states,
        actions=actions,
        utilities=utilities,
        n_actions=len(ACTIONS),
    )


class TruncatedGFeatureMap(FeatureMap):
    """Three-dimensional map ``(g(s1), g(s2), g(s3) + g(s4))`` for the model
    kind ``g_kind``'s transition nonlinearity ``g``."""

    def __init__(self, g_kind: str, input_dim: int):
        if input_dim < 4:
            raise ValueError("needs at least 4 state coordinates")
        self.g_kind = g_kind
        self.input_dim = int(input_dim)
        self._g = g_function(g_kind)

    @property
    def dim(self) -> int:
        return 3

    def transform(self, states):
        s = np.asarray(states, dtype=np.float64)
        g = self._g(s[:, :4])
        return np.column_stack([g[:, 0], g[:, 1], g[:, 2] + g[:, 3]])


# The oracle variants, each with the raw coordinates its map reads.
ORACLE_VARIABLES = {"first4": range(4), "first16": range(16), "nonlinear3": range(4)}


def oracle_feature_map(spec: GenerativeModelSpec, variant: str) -> FeatureMap:
    """Known-sufficient reference maps for a generative model.

    ``first4`` and ``first16`` select leading coordinates;  ``nonlinear3``
    is the three-dimensional map ``(g(s1), g(s2), g(s3) + g(s4))``.  Each
    reads the coordinates ``ORACLE_VARIABLES`` lists.
    """
    if variant not in ORACLE_VARIABLES:
        raise ValueError(f"unknown oracle variant {variant!r}; "
                         f"expected one of {tuple(ORACLE_VARIABLES)}")
    if variant == "nonlinear3":
        return TruncatedGFeatureMap(spec.g_kind, spec.state_dim)
    return CoordinateFeatureMap(spec.state_dim, ORACLE_VARIABLES[variant])
