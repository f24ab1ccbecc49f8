"""Feature maps: functions from the raw state space R^p to a reduced R^q.

All maps operate on row-stacked state matrices and serialize to JSON with a
``kind`` tag so fitted maps can be stored and reloaded independently of the
models that produced them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "mlp_forward",
    "mlp_backward",
    "layers_to_jsonable",
    "layers_from_jsonable",
    "FeatureMap",
    "IdentityFeatureMap",
    "CoordinateFeatureMap",
    "LinearFeatureMap",
    "NetworkFeatureMap",
    "TruncatedGFeatureMap",
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


def mlp_forward(x, layers, affine_last=False, cache=None):
    """Apply ``(W, b)`` layers, ``x -> sigmoid(x @ W.T + b)``, to row-stacked
    inputs (or to one 1-D input).

    The pair is rank-generic: ``W`` may carry leading stack axes, ``(R, out,
    in)`` against inputs ``(R, rows, in)``, with biases shaped ``(R, 1, out)``
    so that they broadcast over the row axis.  With ``affine_last`` the final
    layer skips the sigmoid; a 1-D final weight then gives one value per
    row.  When ``cache`` is a list, each layer appends its ``(input,
    pre-activation, output)`` for :func:`mlp_backward`.
    """
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = x @ _transpose(w) + b
        out = z if affine_last and i == last else _sigmoid(z)
        if cache is not None:
            cache.append((x, z, out))
        x = out
    return x


def mlp_backward(cache, layers, delta):
    """Parameter gradients ``[(dW, db)]`` of a loss through a cached forward pass.

    ``delta`` is the loss gradient with respect to the network output;
    ``cache`` is that of the :func:`mlp_forward` call.  Gradients sum over
    the row axis and are shaped like the parameters, stack axes included.
    """
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        x, z, out = cache[i]
        # an affine layer cached its pre-activation as its output; the
        # sigmoid's derivative is out * (1 - out)
        dz = delta if out is z else delta * (out * (1.0 - out))
        bias_shape = np.shape(layers[i][1])
        grads[i] = (dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2).reshape(bias_shape))
        if i:
            delta = dz @ layers[i][0]
    return grads


def layers_to_jsonable(layers) -> list:
    return [
        {"weights": np.asarray(w).tolist(), "bias": np.asarray(b).tolist()}
        for w, b in layers
    ]


def layers_from_jsonable(entries) -> list:
    return [
        (np.asarray(e["weights"], dtype=np.float64), np.asarray(e["bias"], dtype=np.float64))
        for e in entries
    ]


class FeatureMap(ABC):
    """Map from raw states to feature vectors."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Output dimension."""

    @abstractmethod
    def transform(self, states: np.ndarray) -> np.ndarray:
        """Apply the map to an (m, p) state matrix, returning (m, dim)."""

    @abstractmethod
    def to_jsonable(self) -> dict:
        ...


class IdentityFeatureMap(FeatureMap):
    def __init__(self, input_dim: int):
        self.input_dim = int(input_dim)

    @property
    def dim(self) -> int:
        return self.input_dim

    def transform(self, states):
        return np.asarray(states, dtype=np.float64)

    def to_jsonable(self):
        return {"kind": "identity", "input_dim": self.input_dim}


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

    def to_jsonable(self):
        return {
            "kind": "coordinates",
            "input_dim": self.input_dim,
            "indices": self.indices,
        }


class LinearFeatureMap(FeatureMap):
    """Affine map ``s -> W s + offset``."""

    def __init__(self, weights: np.ndarray, offset: Optional[np.ndarray] = None):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a (dim, input_dim) matrix")
        self.offset = (
            np.zeros(self.weights.shape[0])
            if offset is None
            else np.asarray(offset, dtype=np.float64)
        )

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def transform(self, states):
        return np.asarray(states, dtype=np.float64) @ self.weights.T + self.offset

    def to_jsonable(self):
        return {
            "kind": "linear",
            "weights": self.weights.tolist(),
            "offset": self.offset.tolist(),
        }


class NetworkFeatureMap(FeatureMap):
    """Composed affine+sigmoid layers, optionally over a column subset.

    ``layers`` is a list of ``(W, b)`` pairs with ``W`` of shape
    ``(out, in)``; the sigmoid applies after every layer.  When
    ``input_indices`` is set, the map first selects those raw columns, so a
    map fitted on a reduced variable set still accepts full state vectors.
    The JSON form records ``"activation": "sigmoid"``, and the reader
    rejects any other.
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
        self.input_indices = (
            None if input_indices is None else [int(j) for j in input_indices]
        )
        net_in = self.layers[0][0].shape[1]
        if self.input_indices is not None and len(self.input_indices) != net_in:
            raise ValueError(
                f"first layer expects {net_in} inputs but "
                f"{len(self.input_indices)} columns are selected"
            )
        self.input_dim = int(input_dim) if input_dim is not None else net_in

    @property
    def dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def transform(self, states):
        x = np.asarray(states, dtype=np.float64)
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


class TruncatedGFeatureMap(FeatureMap):
    """Three-dimensional map ``(g(s1), g(s2), g(s3) + g(s4))``.

    ``g`` is the transition nonlinearity of a generative model (identity,
    truncated quadratic, or truncated exponential); see :mod:`suffmdp.simgen`.
    """

    def __init__(self, g_kind: str, input_dim: int):
        from .simgen import g_function  # local import to avoid a cycle

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

    def to_jsonable(self):
        return {"kind": "oracle3", "g_kind": self.g_kind, "input_dim": self.input_dim}


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

    def to_jsonable(self):
        return {"kind": "concat", "parts": [p.to_jsonable() for p in self.parts]}


def feature_map_from_jsonable(data: dict) -> FeatureMap:
    """Feature map from its ``to_jsonable`` form; ValueError names a missing
    key, an unknown ``kind`` or a network ``activation`` other than ``sigmoid``."""
    kind = data.get("kind")
    try:
        if kind == "identity":
            return IdentityFeatureMap(data["input_dim"])
        if kind == "coordinates":
            return CoordinateFeatureMap(data["input_dim"], data["indices"])
        if kind == "linear":
            return LinearFeatureMap(np.asarray(data["weights"]), np.asarray(data["offset"]))
        if kind == "network":
            activation = data["activation"]
            if activation != "sigmoid":
                raise ValueError(f"network activation must be 'sigmoid', got {activation!r}")
            return NetworkFeatureMap(
                layers=layers_from_jsonable(data["layers"]),
                input_indices=data.get("input_indices"),
                input_dim=data.get("input_dim"),
            )
        if kind == "oracle3":
            return TruncatedGFeatureMap(data["g_kind"], data["input_dim"])
        if kind == "concat":
            return ConcatFeatureMap([feature_map_from_jsonable(p) for p in data["parts"]])
    except KeyError as exc:
        raise ValueError(f"{kind} feature map JSON has no key {exc}") from None
    raise ValueError(f"unknown feature map kind {kind!r}")
