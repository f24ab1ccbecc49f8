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
and the stratified test uses ``u = floor(T/20) + 1``, which never exceeds
``T``.  A test returns its pooled p-value and decides nothing: each caller
compares it with its own level.

A stratified test runs in two steps.  :func:`draw_permuted_side` takes the
second sample ``h`` and, for each stratum of ``m`` subjects, computes its
centred distance matrix ``b`` and draws its ``B = n_permutations``
permutations ``pi`` once.  Every candidate ``g`` that
:func:`stratified_pooled_test` scores against that shared side uses the
same draws; screening scores all coordinates of a round against one side.

A candidate with one column costs O(B m) per stratum instead of O(B m^2).
Because ``b`` is double-centred, ``sum_ij A_ij b_(tau i)(tau j)`` equals
``sum_ij |x_i - x_j| b_(tau i)(tau j)``.  Sort ``x`` by ``sigma`` into gaps
``g_k = x_(sigma(k+1)) - x_(sigma(k))`` and take ``tau = pi o sigma^-1``;
the sum is then ``sum_k g_k cut_pi(k)``, where ``cut_pi(k)`` is -2 times
the sum of the leading ``(k+1) x (k+1)`` block of ``b[pi][:, pi]``.  The
side keeps ``cut`` as a ``(B, m-1)`` array, built one column at a time, so
no ``(B, m, m)`` array is formed.  Given the data the ``tau`` are iid
uniform, because ``pi`` is drawn independently of both samples, so the
test stays a valid permutation test.  A candidate with several columns is
scored by gathering ``b[pi][:, pi]`` in chunks, with the same ``pi``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import TrajectoryDataset
from .rng import substream

__all__ = [
    "InsufficientDataError",
    "StratumResult",
    "TestReport",
    "pooled_pvalue",
    "PermutedSide",
    "draw_permuted_side",
    "stratified_pooled_test",
]

# Permutations are scored in chunks whose two (chunk, m, m) gather
# workspaces stay small enough for the allocator to reuse from call to call.
_PERM_CHUNK_FLOATS = 32_768
# Relative distance below the observed statistic within which a permuted
# statistic still counts as a tie, as in scipy.stats.permutation_test.
_TIE_RTOL = 100 * np.finfo(np.float64).eps


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
    """Result of a stratified pooled test (see :func:`stratified_pooled_test`).

    ``p_value`` is the pooled p-value; the caller compares it with its own
    level.  ``statistic`` lists the per-stratum statistics in the order of
    ``strata``, and ``pooled_u`` is the order-statistic index the pooling
    used.
    """

    statistic: list
    p_value: float
    strata: list
    pooled_u: int
    n_permutations: int


def _centered_distances(x: np.ndarray) -> np.ndarray:
    # Euclidean distances summed column by column, rooted and centred: the
    # operations of scipy's cdist and np.mean in their order, so the matrix
    # (and every p-value) matches centred cdist bit for bit without
    # importing scipy.  The first column's squares start the sum, the same
    # as adding them to 0.0 (0.0 + v == v for v >= 0).  Each mean is
    # np.mean's reduce and divide without its Python wrapper, the grand mean
    # reduced over the raveled matrix as np.mean reduces a contiguous one,
    # and the centring runs in the order of d - row - col + mean.
    m, q = x.shape
    col = x[:, 0]
    d = np.subtract.outer(col, col)
    d *= d
    for k in range(1, q):
        col = x[:, k]
        diff = np.subtract.outer(col, col)
        diff *= diff
        d += diff
    np.sqrt(d, out=d)
    mean = np.add.reduce(d.ravel()) / (m * m)
    a = d - np.add.reduce(d, axis=1, keepdims=True) / m
    a -= np.add.reduce(d, axis=0, keepdims=True) / m
    a += mean
    return a


class _PermutedSample:
    """A second sample with its permutations drawn: the part of a permutation
    test that every candidate first sample shares.

    ``b`` is the sample's ``(m, m)`` centred distance matrix and ``perms``
    the ``(B, m)`` drawn permutations.  Permuting rows of the sample permutes
    rows and columns of ``b``, so the statistic under ``perm`` is
    ``mean(A * b[perm][:, perm])``.
    """

    def __init__(self, y: np.ndarray, n_permutations: int, rng: np.random.Generator):
        self.b = _centered_distances(y)
        # int32 halves what a side holds per stratum; indices stay below m
        perms = np.argsort(rng.random((n_permutations, y.shape[0])), axis=1)
        self.perms = perms.astype(np.int32)

    @functools.cached_property
    def cut(self) -> np.ndarray:
        """``(B, m-1)``: -2 times the leading-block sums of each ``b[perm][:, perm]``."""
        n_perm, m = self.perms.shape
        cut = np.empty((n_perm, m - 1))
        lead = np.zeros(n_perm)
        # flat offsets of the permuted rows; a local, so that a side holds
        # no (B, m) array beyond its permutations
        row_offsets = self.perms * m
        flat_b = self.b.ravel()
        for k in range(m - 1):
            # column k of each permuted matrix, rows 0..k, gathered from
            # the flat matrix in one `take`
            col = flat_b.take(row_offsets[:, : k + 1] + self.perms[:, k : k + 1])
            lead += 2.0 * col.sum(axis=1) - col[:, k]
            cut[:, k] = -2.0 * lead
        return cut

    def statistics(self, x: np.ndarray) -> tuple:
        """``(observed, permuted)`` statistics for a validated 2-D sample ``x``.

        One column is scored through ``cut`` under ``perm o sigma^-1``, with
        ``sigma`` the stable sort of ``x``; several columns by gathering
        ``b[perm][:, perm]`` in chunks.
        """
        a = _centered_distances(x)
        m = a.shape[0]
        observed = max(0.0, float(np.add.reduce((a * self.b).ravel()) / (m * m)))
        if x.shape[1] == 1:
            # the stable sort puts even 0.0 and -0.0 in sigma's order
            xs = np.sort(x[:, 0], kind="stable")
            permuted = self.cut @ (xs[1:] - xs[:-1])
        else:
            chunk = max(1, _PERM_CHUNK_FLOATS // (m * m))
            permuted = np.empty(len(self.perms))
            for start in range(0, len(self.perms), chunk):
                p = self.perms[start : start + chunk]
                c = len(p)
                # b[p][:, p] in two gathers of whole rows: row i * c + k of
                # `cols` is row i of b in perm k's column order, and perm k
                # takes rows p[k] * c + k of it
                cols = self.b.take(p, axis=1).reshape(m * c, m)
                b_perm = cols.take(p * c + np.arange(c)[:, None], axis=0)
                np.einsum("ij,bij->b", a, b_perm, out=permuted[start : start + c])
        permuted /= m * m
        return observed, permuted

    def test(self, x: np.ndarray) -> tuple:
        """``(statistic, p_value)`` of the permutation test of ``x`` against the sample.

        The permuted statistics are summed in another order than the observed
        one, so a permutation that reproduces the observed statistic can land
        an ulp below it; anything within ``_TIE_RTOL`` of it counts as a tie.
        """
        observed, permuted = self.statistics(x)
        exceed = int(np.count_nonzero(permuted >= observed - _TIE_RTOL * observed))
        return observed, (1 + exceed) / (len(permuted) + 1)


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
    return _pool(ps, u)


def _pool(ps: np.ndarray, u: int) -> float:
    # `pooled_pvalue` on p-values that are known to be valid
    return min(1.0, ps.size * np.sort(ps)[u - 1] / u)


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


@dataclass(frozen=True)
class PermutedSide:
    """The second sample of a stratified test with its permutations drawn.

    ``strata`` holds ``(t, action, rows, sample)`` per tested stratum in
    time order, ``rows`` selecting the stratum's subjects.  Built by
    :func:`draw_permuted_side` and scored by :func:`stratified_pooled_test`.
    """

    strata: tuple
    actions: np.ndarray
    tested: np.ndarray
    n_permutations: int


def draw_permuted_side(
    h,
    ds: TrajectoryDataset,
    n_permutations: int = 999,
    seed: int = 0,
    key: tuple = (),
    min_stratum: int = 5,
    actions: Optional[Sequence[int]] = None,
) -> PermutedSide:
    """Draw the shared side ``h`` of a stratified test once.

    ``h`` is an array of shape ``(n, T)`` or ``(n, T, q)`` laid out like
    ``ds.actions``: ``h[:, t-1]`` holds the per-subject rows at time ``t``
    (1-based).  Entries must be finite in every row whose action level is
    tested; rows of untested action levels are never read and may hold NaN.
    Every tested action level with at least ``min_stratum`` subjects at time
    ``t`` forms a stratum; its permutations come from the stream keyed
    ``(seed, *key, t, action)``, so results do not depend on evaluation
    order.  ``actions`` restricts testing to a subset of action levels
    (default: all).
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if min_stratum < 2:
        raise ValueError(f"min_stratum must be >= 2, got {min_stratum}")
    tested_actions = sorted(range(1, ds.n_actions + 1) if actions is None else actions)
    tested = np.isin(ds.actions, tested_actions)
    h = _time_block(h, "h", ds.actions, tested)
    strata = []
    for t in range(1, ds.horizon + 1):
        at = ds.actions[:, t - 1]
        for a in tested_actions:
            rows = at == a
            if rows.sum() >= min_stratum:
                sample = _PermutedSample(
                    h[rows, t - 1], n_permutations, substream(seed, *key, t, a)
                )
                strata.append((t, a, rows, sample))
    if not strata:
        raise InsufficientDataError(
            f"insufficient per-stratum data: no (t, action) stratum has "
            f">= {min_stratum} subjects"
        )
    return PermutedSide(tuple(strata), ds.actions, tested, n_permutations)


def stratified_pooled_test(g, side: PermutedSide) -> TestReport:
    """Test ``G^t independent of H^t`` within action levels, pooled over time.

    ``g`` has the layout of the ``h`` that ``side`` was drawn from, and is
    paired with it row by row.  Each stratum of ``side`` runs a permutation
    distance-covariance test of ``g``'s rows against its drawn sample;
    action levels at the same time point are combined by Bonferroni over the
    number of tested strata, and the ``T'`` per-time p-values are pooled by
    the rule of :func:`pooled_pvalue` at ``u = floor(T'/20) + 1``.  The report
    carries the pooled p-value; the caller compares it with its own level.
    """
    g = _time_block(g, "g", side.actions, side.tested)
    strata: list[StratumResult] = []
    per_time: list[float] = []
    for t, group in itertools.groupby(side.strata, key=lambda s: s[0]):
        time_ps = []
        for _, a, rows, sample in group:
            statistic, p_value = sample.test(g[rows, t - 1])
            strata.append(StratumResult(t, a, len(sample.b), statistic, p_value))
            time_ps.append(p_value)
        per_time.append(min(1.0, len(time_ps) * min(time_ps)))
    u = len(per_time) // 20 + 1
    return TestReport(
        statistic=[s.statistic for s in strata],
        # each p-value lies in (0, 1] by construction, so `pooled_pvalue`'s
        # checks are skipped
        p_value=_pool(np.array(per_time), u),
        strata=strata,
        pooled_u=u,
        n_permutations=side.n_permutations,
    )
