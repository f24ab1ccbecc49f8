"""Independence testing: distance-covariance permutation tests, within-action
stratification, and order-statistic p-value pooling.

The statistic is the empirical squared distance covariance

    V2(X, Y) = (1/m^2) * sum_{j,k} A_jk * B_jk,

where ``A`` and ``B`` are the double-centered Euclidean pairwise-distance
matrices of the two samples.  V2 is nonnegative, zero iff the population
version is independent, and the permutation null gives a finite-sample valid
p-value.

Trajectory data are dependent over time within a subject, so a joint test
runs one independence test per time point within each action level, combines
action levels at a time point by Bonferroni, and pools the per-time p-values
through the order-statistic rule

    pooled = min(1, T * p_(u) / u),

with ``p_(u)`` the u-th smallest of the T p-values.  The pooled value is a
valid p-value for any fixed ``u``; ``u = 1`` is the Bonferroni correction,
and the default is ``u = floor(T/20) + 1``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

from .core import TrajectoryDataset
from .rng import substream

__all__ = [
    "InsufficientDataError",
    "StratumResult",
    "TestReport",
    "dcov_statistic",
    "dcov_permutation_pvalue",
    "pooled_pvalue",
    "default_pool_order",
    "stratified_pooled_test",
]

# Permutation batches are chunked so the (B, m, m) workspace stays small.
_PERM_CHUNK_FLOATS = 4_000_000


class InsufficientDataError(ValueError):
    """Raised when no stratum is large enough to test."""


@dataclass(frozen=True)
class StratumResult:
    """Outcome of one (time, action) stratum test."""

    t: int
    action: int
    sample_size: int
    statistic: float
    p_value: float


@dataclass(frozen=True)
class TestReport:
    """Result of an independence test.

    ``statistic`` is a scalar for a single test and a per-stratum list for
    stratified tests.  ``pooled_u`` records the order-statistic index used
    for pooling (1 for unpooled tests).
    """

    statistic: Union[float, list]
    p_value: float
    strata: list = field(default_factory=list)
    pooled_u: int = 1
    n_permutations: int = 0
    seed: Optional[int] = None
    reject: Optional[bool] = None

    def to_jsonable(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "strata": [dataclasses.asdict(s) for s in self.strata],
            "u": self.pooled_u,
            "B": self.n_permutations,
            "seed": self.seed,
            "reject": self.reject,
        }


def _as_sample(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a vector or matrix, got ndim={x.ndim}")
    if x.shape[0] < 2:
        raise ValueError(f"{name} needs at least 2 rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _paired_samples(x, y) -> tuple:
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"x and y must be paired: {x.shape[0]} vs {y.shape[0]} rows"
        )
    return x, y


def _centered_distances(x: np.ndarray) -> np.ndarray:
    d = cdist(x, x)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def dcov_statistic(x, y) -> float:
    """Empirical squared distance covariance of two paired samples."""
    x, y = _paired_samples(x, y)
    a = _centered_distances(x)
    b = _centered_distances(y)
    # Mathematically nonnegative; clamp roundoff noise.
    return max(0.0, float(np.mean(a * b)))


def _permutation_test(
    x: np.ndarray, y: np.ndarray, n_permutations: int, rng: np.random.Generator
) -> tuple:
    """``(statistic, p_value)`` for two validated, paired 2-D samples.

    Permuting rows of Y permutes rows and columns of its centered distance
    matrix, so each permuted statistic is mean(A * B[perm][:, perm]).
    """
    a = _centered_distances(x)
    b = _centered_distances(y)
    m = a.shape[0]
    observed = max(0.0, float(np.mean(a * b)))
    chunk = max(1, _PERM_CHUNK_FLOATS // (m * m))
    exceed = 0
    done = 0
    while done < n_permutations:
        size = min(chunk, n_permutations - done)
        perms = np.argsort(rng.random((size, m)), axis=1)
        permuted = b[perms[:, :, None], perms[:, None, :]]
        stats = np.einsum("ij,bij->b", a, permuted) / (m * m)
        exceed += int(np.sum(stats >= observed))
        done += size
    return observed, (1 + exceed) / (n_permutations + 1)


def dcov_permutation_pvalue(
    x,
    y,
    n_permutations: int = 199,
    rng: Union[int, np.random.Generator] = 0,
) -> TestReport:
    """Permutation test of independence based on :func:`dcov_statistic`.

    The p-value is ``(1 + #{permuted >= observed}) / (n_permutations + 1)``,
    which is strictly positive and valid in finite samples.
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    x, y = _paired_samples(x, y)
    seed = rng if isinstance(rng, int) else None
    gen = substream(rng) if isinstance(rng, int) else rng
    statistic, p_value = _permutation_test(x, y, n_permutations, gen)
    return TestReport(
        statistic=statistic,
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
    )


def pooled_pvalue(pvals: Sequence[float], u: int) -> float:
    """Pool p-values via the u-th order statistic: ``min(1, T * p_(u) / u)``.

    Valid under arbitrary dependence among the inputs; ``u = 1`` is the
    Bonferroni correction.
    """
    ps = np.asarray(list(pvals), dtype=np.float64)
    if ps.size == 0:
        raise ValueError("cannot pool an empty list of p-values")
    if np.any((ps < 0) | (ps > 1)) or not np.all(np.isfinite(ps)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 1 <= u <= ps.size:
        raise ValueError(f"u must be in 1..{ps.size}, got {u}")
    order_stat = np.sort(ps)[u - 1]
    return min(1.0, ps.size * order_stat / u)


def default_pool_order(n_tests: int) -> int:
    """Default order-statistic index ``floor(T/20) + 1``, capped at T."""
    return min(n_tests // 20 + 1, n_tests)


def _time_block(x, name: str, actions: np.ndarray, tested: np.ndarray) -> np.ndarray:
    """``x`` as an (n, T, q) float array, finite wherever ``tested`` is set."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[:2] != actions.shape:
        raise ValueError(
            f"{name} must have shape {actions.shape} or {actions.shape} + (q,) "
            f"to match the actions, got {x.shape}"
        )
    if x.ndim == 2:
        x = x[:, :, None]
    if not np.all(np.isfinite(x[tested])):
        raise ValueError(f"{name} contains non-finite entries in a tested row")
    return x


def stratified_pooled_test(
    g,
    h,
    ds: TrajectoryDataset,
    tau: float = 0.1,
    n_permutations: int = 999,
    seed: int = 0,
    min_stratum: int = 5,
    pool_order: Optional[int] = None,
    actions: Optional[Sequence[int]] = None,
    key: tuple = (),
) -> TestReport:
    """Test ``G^t independent of H^t`` within action levels, pooled over time.

    ``g`` and ``h`` are arrays of shape ``(n, T)`` or ``(n, T, q)`` laid out
    like ``ds.actions``: ``g[:, t-1]`` holds the per-subject rows at time
    ``t`` (1-based), paired with ``h[:, t-1]``.  Entries must be finite in
    every row whose action level is tested; rows of untested action levels
    are never read and may hold NaN.  For each ``t`` and each tested action
    level with at least ``min_stratum`` subjects, a permutation
    distance-covariance test runs on that stratum; action levels at the same
    time point are combined by Bonferroni over the number of tested strata,
    and the per-time p-values are pooled by :func:`pooled_pvalue`.

    Strata draw permutations from streams keyed ``(seed, *key, t, action)``,
    so results do not depend on evaluation order.  ``actions`` restricts
    testing to a subset of action levels (default: all).
    """
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if min_stratum < 2:
        raise ValueError(f"min_stratum must be >= 2, got {min_stratum}")
    tested_actions = sorted(range(1, ds.n_actions + 1) if actions is None else actions)
    tested = np.isin(ds.actions, tested_actions)
    g = _time_block(g, "g", ds.actions, tested)
    h = _time_block(h, "h", ds.actions, tested)
    strata: list[StratumResult] = []
    per_time: list[float] = []
    for t in range(1, ds.horizon + 1):
        at = ds.actions[:, t - 1]
        time_ps = []
        for a in tested_actions:
            rows = at == a
            m = int(rows.sum())
            if m < min_stratum:
                continue
            statistic, p_value = _permutation_test(
                g[rows, t - 1], h[rows, t - 1], n_permutations,
                substream(seed, *key, t, a),
            )
            strata.append(StratumResult(t, a, m, statistic, p_value))
            time_ps.append(p_value)
        if time_ps:
            per_time.append(min(1.0, len(time_ps) * min(time_ps)))
    if not per_time:
        raise InsufficientDataError(
            f"insufficient per-stratum data: no (t, action) stratum has "
            f">= {min_stratum} subjects"
        )
    u = pool_order if pool_order is not None else default_pool_order(len(per_time))
    u = min(u, len(per_time))
    pooled = pooled_pvalue(per_time, u)
    return TestReport(
        statistic=[s.statistic for s in strata],
        p_value=pooled,
        strata=strata,
        pooled_u=u,
        n_permutations=n_permutations,
        seed=seed,
        reject=pooled <= tau,
    )
