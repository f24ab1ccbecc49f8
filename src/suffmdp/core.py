"""Trajectory data model: batch trajectories, the transition array view, CSV I/O.

A dataset holds ``n`` independent subject trajectories observed over a
common horizon ``T``: states ``S^1..S^{T+1}`` in ``R^p``, actions
``A^1..A^T`` in ``{1..K}`` and utilities ``U^1..U^T``.  The utility stored
at time ``t`` is the one realized by taking ``A^t`` in ``S^t`` and landing
in ``S^{t+1}``, so the terminal row of a trajectory carries no action or
utility.

Datasets are immutable after construction (backing arrays are marked
read-only).  ``flatten_transitions`` stacks the steps of all subjects into
one read-only array view, which model fitting, the residual test and
Q-learning share.

Config dataclasses serialize with ``dataclasses.asdict`` and load back
through ``config_from_jsonable``.
"""

from __future__ import annotations

import csv
import dataclasses
import typing
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DataValidationError",
    "TrajectoryDataset",
    "Transitions",
    "load_dataset_csv",
    "save_dataset_csv",
    "flatten_transitions",
    "config_from_jsonable",
]

# Decimal text with 17 significant digits round-trips IEEE-754 doubles.
FLOAT_FORMAT = "%.17g"

# Validation cap on the magnitude of a utility.
UTILITY_BOUND = 1e6


class DataValidationError(ValueError):
    """Raised when input data violates the trajectory-data contract."""


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def mean_and_se(values) -> tuple:
    """``(mean, standard error)`` of a nonempty sample, as floats: the
    error is ``std(ddof=1) / sqrt(n)``, and 0 for one value."""
    values = np.asarray(values, dtype=np.float64)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def config_from_jsonable(cls, data: dict):
    """Config dataclass ``cls`` from its ``dataclasses.asdict`` form.

    Nested config dataclasses load recursively, and JSON lists come back as
    tuples, nested ones too, so grid cells stay usable as dict keys.
    Missing keys take the field defaults.  ValueError names the key and the
    class for an unknown key and for a value of the wrong JSON kind: a
    non-object for a nested config, a number, string, boolean or list where
    the field wants another kind, or ``null`` for a field that is not
    ``Optional``.  A non-object ``data`` raises ValueError too.
    """
    hints = typing.get_type_hints(cls)
    check_json_object(cls.__name__, data, {f.name: hints[f.name] for f in dataclasses.fields(cls)})
    return cls(**{k: _from_json_value(hints[k], v) for k, v in data.items()})


def check_json_object(owner: str, data, hints: dict) -> None:
    """ValueError unless ``data`` is a JSON object whose keys all appear in
    ``hints`` and whose values have the JSON kind of their key's type hint.

    The message names ``owner`` and, where one is at fault, the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{owner} must be a JSON object, got {data!r}")
    for key, value in data.items():
        if key not in hints:
            raise ValueError(f"unknown key {key!r} for {owner}")
        kind = _json_kind_mismatch(hints[key], value)
        if kind is not None:
            raise ValueError(f"key {key!r} of {owner} must be {kind}, got {value!r}")


# JSON kinds accepted for each scalar, sequence or mapping field type.
_JSON_KINDS = {int: (int,), float: (int, float), str: (str,), bool: (bool,),
               tuple: (list, tuple), dict: (dict,)}


def _json_kind_mismatch(hint, value) -> Optional[str]:
    """Description of the kind ``hint`` wants when ``value`` is not of it."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = next(t for t in args if t is not type(None))
    if dataclasses.is_dataclass(hint):
        return None if isinstance(value, dict) else f"a {hint.__name__} object"
    kinds = _JSON_KINDS.get(hint)
    if kinds is None:
        return None
    # bool is a subclass of int, but JSON true is not a number
    if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
        return None
    return f"of type {hint.__name__}"


def _from_json_value(hint, value):
    if isinstance(value, list):
        return tuple(_from_json_value(None, v) for v in value)
    if isinstance(value, dict):
        for t in (hint, *typing.get_args(hint)):
            if dataclasses.is_dataclass(t):
                return config_from_jsonable(t, value)
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TrajectoryDataset:
    """Batch of ``n`` trajectories over a shared horizon.

    Attributes
    ----------
    states : (n, T+1, p) float array
        ``states[i, t-1]`` is subject ``i``'s state at time ``t`` (1-based
        time; 0-based array index).
    actions : (n, T) int array with values in ``{1..n_actions}``
    utilities : (n, T) float array
    n_actions : number of action levels ``K``

    Every ``|U|`` must be at most ``UTILITY_BOUND``.
    """

    states: np.ndarray
    actions: np.ndarray
    utilities: np.ndarray
    n_actions: int

    def __post_init__(self):
        states = _readonly(np.asarray(self.states, dtype=np.float64))
        actions = _readonly(np.asarray(self.actions, dtype=np.int64))
        utilities = _readonly(np.asarray(self.utilities, dtype=np.float64))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utilities", utilities)

        if states.ndim != 3:
            raise DataValidationError(
                f"states must be (n, T+1, p), got shape {states.shape}"
            )
        n, t_plus_1, p = states.shape
        if n < 1 or t_plus_1 < 2 or p < 1:
            raise DataValidationError(
                f"need n >= 1, T >= 1, p >= 1; got states shape {states.shape}"
            )
        horizon = t_plus_1 - 1
        if actions.shape != (n, horizon):
            raise DataValidationError(
                f"actions must be (n, T) = ({n}, {horizon}), got {actions.shape}"
            )
        if utilities.shape != (n, horizon):
            raise DataValidationError(
                f"utilities must be (n, T) = ({n}, {horizon}), got {utilities.shape}"
            )
        if self.n_actions < 1:
            raise DataValidationError(f"n_actions must be >= 1, got {self.n_actions}")
        if not np.all(np.isfinite(states)):
            raise DataValidationError("states contain non-finite values")
        if not np.all(np.isfinite(utilities)):
            raise DataValidationError("utilities contain non-finite values")
        if np.any(np.abs(utilities) > UTILITY_BOUND):
            raise DataValidationError(f"utility magnitude exceeds bound {UTILITY_BOUND}")
        bad = (actions < 1) | (actions > self.n_actions)
        if np.any(bad):
            i, t = np.argwhere(bad)[0]
            raise DataValidationError(
                f"action out of range: subject {i} at t={t + 1} has "
                f"a={actions[i, t]}, expected 1..{self.n_actions}"
            )

    @property
    def n_subjects(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    def restrict_columns(self, columns: Sequence[int]) -> "TrajectoryDataset":
        """Dataset with the state restricted to the given (0-based) columns."""
        cols = list(columns)
        if len(cols) == 0:
            raise DataValidationError("cannot restrict to an empty column set")
        return TrajectoryDataset(
            states=self.states[:, :, cols],
            actions=self.actions,
            utilities=self.utilities,
            n_actions=self.n_actions,
        )

    def subset_subjects(self, index: Sequence[int]) -> "TrajectoryDataset":
        idx = list(index)
        return TrajectoryDataset(
            states=self.states[idx],
            actions=self.actions[idx],
            utilities=self.utilities[idx],
            n_actions=self.n_actions,
        )


@dataclass(frozen=True)
class Transitions:
    """Row-stacked ``(S^t, A^t, U^t, S^{t+1})`` steps of a dataset.

    Row ``i * T + (t - 1)`` is subject ``i``'s step at time ``t``.  The
    arrays are read-only; ``len()`` is the number of steps ``n * T``.
    """

    states: np.ndarray  # (N, p)
    actions: np.ndarray  # (N,)
    utilities: np.ndarray  # (N,)
    next_states: np.ndarray  # (N, p)

    def __len__(self) -> int:
        return self.actions.shape[0]

    @property
    def responses(self) -> np.ndarray:
        """``(U^t, S^{t+1})`` rows, shape (N, p + 1)."""
        return np.column_stack([self.utilities, self.next_states])


def flatten_transitions(ds: TrajectoryDataset) -> Transitions:
    """All steps of a dataset as one array view."""
    rows, p = ds.n_subjects * ds.horizon, ds.state_dim
    states = ds.states[:, :-1].reshape(rows, p)
    next_states = ds.states[:, 1:].reshape(rows, p)
    states.flags.writeable = next_states.flags.writeable = False
    return Transitions(
        states=states,
        actions=ds.actions.reshape(rows),
        utilities=ds.utilities.reshape(rows),
        next_states=next_states,
    )


# ---------------------------------------------------------------------------
# CSV ingestion / emission
#
# One row per (subject, time): columns id, t, a, u, s_1..s_p.  Rows exist for
# t = 1..T+1; a and u are empty (or ignored) at t = T+1.  The state dimension
# p is inferred from the header, and the action count K is the largest
# action observed.
# ---------------------------------------------------------------------------


def _parse_float(raw: str, sid: str, t: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataValidationError(
            f"could not parse value {raw!r} for subject {sid} at t={t}, "
            f"column {column}"
        ) from None


def load_dataset_csv(path) -> TrajectoryDataset:
    """Read a trajectory CSV; subjects keep their order of first appearance."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        rows = list(reader)

    expected_fixed = ["id", "t", "a", "u"]
    if header[: len(expected_fixed)] != expected_fixed:
        raise DataValidationError(
            f"{path}: header must start with id,t,a,u; got {header[:4]}"
        )
    state_cols = header[len(expected_fixed) :]
    p = len(state_cols)
    if p == 0 or state_cols != [f"s_{j}" for j in range(1, p + 1)]:
        raise DataValidationError(
            f"{path}: state columns must be s_1..s_p in order; got {state_cols}"
        )
    if not rows:
        raise DataValidationError(f"{path}: no data rows after the header")

    per_subject: dict[str, dict[int, list[str]]] = {}
    order: list[str] = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != 4 + p:
            raise DataValidationError(
                f"{path}: line {line_no} has {len(row)} fields, expected {4 + p}"
            )
        sid = row[0]
        if sid == "":
            raise DataValidationError(f"{path}: line {line_no} has empty id")
        try:
            t = int(row[1])
        except ValueError:
            raise DataValidationError(
                f"{path}: line {line_no}: t {row[1]!r} is not an integer"
            ) from None
        if t < 1:
            raise DataValidationError(f"{path}: subject {sid} has t={t} < 1")
        if sid not in per_subject:
            per_subject[sid] = {}
            order.append(sid)
        if t in per_subject[sid]:
            raise DataValidationError(f"{path}: duplicate row for subject {sid}, t={t}")
        per_subject[sid][t] = row

    horizons = {sid: max(ts) for sid, ts in per_subject.items()}
    t_max = horizons[order[0]]
    for sid, h in horizons.items():
        if h != t_max:
            raise DataValidationError(
                f"ragged horizons across subjects: subject {sid} ends at t={h}, "
                f"subject {order[0]} at t={t_max}"
            )
    if t_max < 2:
        raise DataValidationError("each subject needs at least t=1 and t=2 rows")
    horizon = t_max - 1

    states = np.empty((len(order), t_max, p))
    actions = np.empty((len(order), horizon), dtype=np.int64)
    utilities = np.empty((len(order), horizon))
    for i, sid in enumerate(order):
        rows_t = per_subject[sid]
        for t in range(1, t_max + 1):
            if t not in rows_t:
                raise DataValidationError(
                    f"missing row for subject {sid} at t={t}"
                )
            row = rows_t[t]
            for j in range(p):
                raw = row[4 + j]
                if raw == "":
                    raise DataValidationError(
                        f"missing value for subject {sid} at t={t}, column s_{j + 1}"
                    )
                states[i, t - 1, j] = _parse_float(raw, sid, t, f"s_{j + 1}")
            if t <= horizon:
                if row[2] == "":
                    raise DataValidationError(
                        f"missing value for subject {sid} at t={t}, column a"
                    )
                if row[3] == "":
                    raise DataValidationError(
                        f"missing value for subject {sid} at t={t}, column u"
                    )
                try:
                    actions[i, t - 1] = int(row[2])
                except ValueError:
                    raise DataValidationError(
                        f"action {row[2]!r} for subject {sid} at t={t} is not "
                        f"an integer"
                    ) from None
                utilities[i, t - 1] = _parse_float(raw=row[3], sid=sid, t=t, column="u")

    return TrajectoryDataset(
        states=states,
        actions=actions,
        utilities=utilities,
        n_actions=int(actions.max()),
    )


def save_dataset_csv(ds: TrajectoryDataset, path) -> None:
    """Write a dataset in the schema read by :func:`load_dataset_csv`."""
    p = ds.state_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "a", "u"] + [f"s_{j}" for j in range(1, p + 1)])
        for i in range(ds.n_subjects):
            for t in range(1, ds.horizon + 2):
                if t <= ds.horizon:
                    a = str(int(ds.actions[i, t - 1]))
                    u = format_float(ds.utilities[i, t - 1])
                else:
                    a = ""
                    u = ""
                writer.writerow(
                    [str(i + 1), str(t), a, u]
                    + [format_float(x) for x in ds.states[i, t - 1]]
                )
