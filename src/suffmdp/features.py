"""Feature maps: functions from the raw state space R^p to a reduced R^q.

All maps operate on row-stacked state matrices.  Only the network map, the
one the pipeline fits, serializes: its JSON form carries ``kind:
"network"``, so that a fitted map can be stored and reloaded apart from the
model that produced it.  The other maps are built in memory from a dataset
or a generative model (the oracle maps live in `suffmdp.simgen`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from .core import check_json_object

__all__ = [
    "mlp_forward",
    "mlp_backward",
    "init_layers",
    "stack_layers",
    "layers_to_jsonable",
    "layers_from_jsonable",
    "FeatureMap",
    "IdentityFeatureMap",
    "CoordinateFeatureMap",
    "LinearFeatureMap",
    "NetworkFeatureMap",
    "ConcatFeatureMap",
    "feature_map_from_jsonable",
]


@np.errstate(over="ignore")
def _sigmoid(z):
    # numpy rather than scipy's expit, so that the package imports without
    # scipy.  numpy's exp rounds differently from the libm exp behind expit:
    # about 2% of values differ from expit's, by at most 4 ulp.  Below
    # z = -709, exp(-z) overflows to inf (silently) and the result is 0.
    return 1.0 / (1.0 + np.exp(-z))


def _transpose(w):
    # a 1-D final weight is its own transpose
    return w if w.ndim == 1 else w.swapaxes(-1, -2)


def mlp_forward(x, layers, affine_last=False):
    """Apply ``(W, b)`` layers, ``x -> sigmoid(x @ W.T + b)``, to row-stacked
    inputs (or to one 1-D input).

    The pair is rank-generic: ``W`` may carry leading stack axes, ``(R, out,
    in)`` against inputs ``(R, rows, in)``, with biases shaped ``(R, 1, out)``
    so that they broadcast over the row axis.  With ``affine_last`` the final
    layer skips the sigmoid; a 1-D final weight then gives one value per
    row.
    """
    with np.errstate(over="ignore"):
        return _mlp_forward(x, layers, affine_last)


def _mlp_forward(x, layers, affine_last=False, cache=None):
    # `mlp_forward` under the caller's error state, so that a trainer
    # silences exp's overflow once around all its passes.  Each sigmoid is
    # `_sigmoid`'s operations in its order, written over the layer's fresh
    # pre-activation.  When `cache` is a list, each layer appends its
    # (input, output) for `mlp_backward`, the output None for an affine
    # layer.
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = x @ _transpose(w)
        z += b
        affine = affine_last and i == last
        if not affine:
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        if cache is not None:
            cache.append((x, None if affine else z))
        x = z
    return x


def mlp_backward(cache, layers, delta, grads):
    """Parameter gradients of a loss through a cached forward pass, written
    into ``grads``.

    ``delta`` is the loss gradient with respect to the network output, and
    the pass overwrites it; ``cache`` is the list that ``_mlp_forward``
    filled on the forward pass.  ``grads`` holds one ``(dW, db)`` pair of
    arrays per layer, which may be views of one flat buffer: ``dW`` is
    shaped like ``W``, and ``db`` like the row sum of the layer's output
    gradient with the row axis kept, ``(R, 1, out)`` for the stacked biases
    of `stack_layers`.  Gradients sum over the row axis.
    """
    for i in range(len(layers) - 1, -1, -1):
        x, out = cache[i]
        if out is not None:
            # the sigmoid's derivative is out * (1 - out)
            delta *= out * (1.0 - out)
        dw, db = grads[i]
        np.matmul(delta.swapaxes(-1, -2), x, out=dw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=db)
        if i:
            delta = delta @ layers[i][0]


def init_layers(widths, rng: np.random.Generator) -> list:
    """Glorot-uniform ``(W, b)`` layers through ``widths``, biases zero: each
    ``(out, in)`` weight in turn from ``rng.uniform(-lim, lim)``, where
    ``lim = sqrt(6 / (in + out))``."""
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return layers


def stack_layers(layer_lists) -> list:
    """``R`` networks' ``(W, b)`` layers, one shape, as new arrays on a leading
    axis: weights ``(R, out, in)``, and biases ``(R, 1, out)`` so that they
    broadcast over the rows of ``(R, rows, in)`` inputs in `mlp_forward`."""
    return [
        (np.stack([w for w, _ in layer]), np.stack([b for _, b in layer])[:, None, :])
        for layer in zip(*layer_lists)
    ]


def layers_to_jsonable(layers) -> list:
    return [
        {"weights": np.asarray(w).tolist(), "bias": np.asarray(b).tolist()}
        for w, b in layers
    ]


def float_array_from_jsonable(owner: str, value) -> np.ndarray:
    """``value``, a number or a rectangular nest of lists of numbers, as a
    float64 array.

    ValueError naming ``owner`` when it holds a string, null, boolean or
    object, rows of unequal length, or a NaN or infinity (`json.load`
    reads the tokens ``NaN`` and ``Infinity``).
    """
    try:
        array = np.asarray(value)
    except ValueError:  # rows of unequal length
        array = None
    # numpy casts a boolean mixed with numbers to one of them
    if array is None or array.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{owner} must hold numbers only")
    array = array.astype(np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{owner} must be finite, got NaN or infinity")
    return array


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def layers_from_jsonable(entries) -> list:
    """Layers from their ``layers_to_jsonable`` form.

    ValueError for an entry that is not a JSON object, whose ``weights`` is
    not a list, or whose weights or bias hold anything but finite numbers;
    KeyError names a missing key.  A bias is a list, or a number in a scalar
    output layer.
    """
    layers = []
    for e in entries:
        check_json_object("network layer", e, {"weights": tuple, "bias": object})
        layers.append((float_array_from_jsonable("network layer weights", e["weights"]),
                       float_array_from_jsonable("network layer bias", e["bias"])))
    return layers


class FeatureMap(ABC):
    """Map from raw states to feature vectors."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Output dimension."""

    @abstractmethod
    def transform(self, states: np.ndarray) -> np.ndarray:
        """Apply the map to an (m, p) state matrix, returning (m, dim)."""


class IdentityFeatureMap(FeatureMap):
    def __init__(self, input_dim: int):
        self.input_dim = int(input_dim)

    @property
    def dim(self) -> int:
        return self.input_dim

    def transform(self, states):
        return np.asarray(states, dtype=np.float64)


class CoordinateFeatureMap(FeatureMap):
    """Selection of a subset of raw coordinates (0-based indices)."""

    def __init__(self, input_dim: int, indices: Sequence[int]):
        self.input_dim = int(input_dim)
        self.indices = [int(j) for j in indices]
        if any(not 0 <= j < input_dim for j in self.indices):
            raise ValueError(f"indices {self.indices} outside 0..{input_dim - 1}")

    @property
    def dim(self) -> int:
        return len(self.indices)

    def transform(self, states):
        return np.asarray(states, dtype=np.float64)[:, self.indices]


class LinearFeatureMap(FeatureMap):
    """Affine map ``s -> W s + offset``."""

    def __init__(self, weights: np.ndarray, offset: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a (dim, input_dim) matrix")
        self.offset = np.asarray(offset, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def transform(self, states):
        return np.asarray(states, dtype=np.float64) @ self.weights.T + self.offset


class NetworkFeatureMap(FeatureMap):
    """Composed affine+sigmoid layers, optionally over a column subset.

    ``layers`` is a list of ``(W, b)`` pairs with ``W`` of shape
    ``(out, in)``; the sigmoid applies after every layer.  When
    ``input_indices`` is set, the map first selects those raw columns, so a
    map fitted on a reduced variable set still accepts full state vectors.
    ``input_dim`` is the raw state dimension (by default the first layer's
    input count); an index that is not an integer in ``0..input_dim-1``
    raises ValueError, and so does a state matrix whose column count is not
    ``input_dim``.  The JSON form records ``"activation": "sigmoid"``, and
    the reader rejects any other.
    """

    def __init__(
        self,
        layers: Sequence[tuple],
        input_indices: Optional[Sequence[int]] = None,
        input_dim: Optional[int] = None,
    ):
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in layers
        ]
        if not self.layers:
            raise ValueError("need at least one layer")
        if input_indices is not None:
            # a bool is an int to Python, but not an index
            if any(isinstance(j, bool) or not isinstance(j, (int, np.integer))
                   for j in input_indices):
                raise ValueError(f"input_indices must be integers, got {list(input_indices)}")
            input_indices = [int(j) for j in input_indices]
        self.input_indices = input_indices
        net_in = self.layers[0][0].shape[1]
        if self.input_indices is not None and len(self.input_indices) != net_in:
            raise ValueError(
                f"first layer expects {net_in} inputs but "
                f"{len(self.input_indices)} columns are selected"
            )
        self.input_dim = int(input_dim) if input_dim is not None else net_in
        if any(not 0 <= j < self.input_dim for j in self.input_indices or ()):
            raise ValueError(f"input_indices {self.input_indices} outside "
                             f"0..{self.input_dim - 1}")

    @property
    def dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def transform(self, states):
        x = np.asarray(states, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"the feature map takes states of {self.input_dim} "
                             f"columns, got {x.shape[-1]}")
        if self.input_indices is not None:
            x = x[:, self.input_indices]
        return mlp_forward(x, self.layers)

    def to_jsonable(self):
        return {
            "kind": "network",
            "activation": "sigmoid",
            "input_dim": self.input_dim,
            "input_indices": self.input_indices,
            "layers": layers_to_jsonable(self.layers),
        }


class ConcatFeatureMap(FeatureMap):
    """Concatenation of several maps applied to the same state."""

    def __init__(self, parts: Sequence[FeatureMap]):
        if not parts:
            raise ValueError("need at least one part")
        self.parts = list(parts)

    @property
    def dim(self) -> int:
        return sum(part.dim for part in self.parts)

    def transform(self, states):
        return np.hstack([part.transform(states) for part in self.parts])


# The keys of a network map's JSON form, with their JSON kinds;
# ``activation`` is checked by value.
_MAP_KEYS = {"kind": str, "activation": object, "input_dim": Optional[int],
             "input_indices": Optional[tuple], "layers": tuple}


def feature_map_from_jsonable(data) -> NetworkFeatureMap:
    """Network feature map from its ``to_jsonable`` form.

    ValueError for data that is not a JSON object, a ``kind`` other than
    ``network`` (the only map that is stored), an unknown or missing key, a
    value of the wrong JSON kind (nested layers too), weights that are not
    all numbers, an ``activation`` other than ``sigmoid``, and input
    indices that are not integers in ``0..input_dim-1``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a feature map must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind != "network":
        raise ValueError(f"unknown feature map kind {kind!r}; only 'network' maps are stored")
    check_json_object("network feature map", data, _MAP_KEYS)
    try:
        activation = data["activation"]
        if activation != "sigmoid":
            raise ValueError(f"network activation must be 'sigmoid', got {activation!r}")
        return NetworkFeatureMap(
            layers=layers_from_jsonable(data["layers"]),
            input_indices=data.get("input_indices"),
            input_dim=data.get("input_dim"),
        )
    except KeyError as exc:
        raise ValueError(f"network feature map JSON has no key {exc}") from None
