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
action levels at a time point by Bonferroni, and pools the T per-time
p-values by the order-statistic rule of `_pool` at ``u = floor(T/20) + 1``,
which never exceeds ``T``.  A test returns its pooled p-value and decides
nothing: each caller compares it with its own level.

A stratified test runs in three steps.  :func:`draw_permuted_side` takes
the second sample ``h`` and, for each stratum of ``m`` subjects, computes
its centred distance matrix ``b`` and draws its ``B = n_permutations``
permutations ``pi`` once.  :func:`observe_candidates` then observes a batch
of one-column candidates ``g`` against that side, one stratum at a time:
it gathers the stratum's rows of every candidate once, centres their
distance matrices together and keeps each candidate's observed statistic
and sorted gaps, with the bits of a candidate observed alone.  Last,
:func:`stratified_pooled_test` scores one candidate: its permuted
statistics, its p-value per stratum and the pooling.  Every candidate
scored against a side uses the same draws; screening observes all
coordinates of a round at once and scores each one against the round's
side.  An array passed to :func:`stratified_pooled_test` is observed there,
as a batch of one.

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
    "PermutedSide",
    "draw_permuted_side",
    "ObservedCandidate",
    "observe_candidates",
    "stratified_pooled_test",
]

# Permutations are scored, and candidates observed, in chunks whose
# (chunk, m, m) workspaces stay small enough for the allocator to reuse from
# call to call.
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


def _centered_distances(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The centred distance matrices ``(..., m, m)`` of the samples ``x``,
    ``(..., m, q)``, written into the C-ordered ``out`` when it is given."""
    # Euclidean distances summed column by column, rooted and centred: the
    # operations of scipy's cdist and np.mean in their order, so each matrix
    # (and every p-value) matches centred cdist bit for bit without
    # importing scipy.  The first column's squares start the sum, the same
    # as adding them to 0.0 (0.0 + v == v for v >= 0).  Each mean is
    # np.mean's reduce and divide without its Python wrapper, the grand mean
    # reduced over the raveled matrix as np.mean reduces a contiguous one,
    # and the centring runs in place in the order of d - row - col + mean.
    # The matrices are C-ordered whatever the layout of ``x``: the row and
    # grand-mean reductions then run over contiguous rows, as they do for
    # one matrix, and a stack of matrices gets each one's bits.
    m, q = x.shape[-2:]
    d = np.empty(x.shape[:-1] + (m,)) if out is None else out
    col = x[..., 0]
    np.subtract(col[..., :, None], col[..., None, :], out=d)
    d *= d
    if q > 1:
        diff = np.empty_like(d)
        for k in range(1, q):
            col = x[..., k]
            np.subtract(col[..., :, None], col[..., None, :], out=diff)
            diff *= diff
            d += diff
    np.sqrt(d, out=d)
    mean = np.add.reduce(d.reshape(d.shape[:-2] + (1, m * m)), axis=-1, keepdims=True)
    mean /= m * m
    row = np.add.reduce(d, axis=-1, keepdims=True)
    row /= m
    col = np.add.reduce(d, axis=-2, keepdims=True)
    col /= m
    d -= row
    d -= col
    d += mean
    return d


def _p_value(observed: float, permuted: np.ndarray) -> float:
    """The permutation p-value of ``observed`` among the ``permuted`` statistics.

    The permuted statistics are summed in another order than the observed
    one, so a permutation that reproduces the observed statistic can land
    an ulp below it; anything within ``_TIE_RTOL`` of it counts as a tie.
    """
    exceed = int(np.count_nonzero(permuted >= observed - _TIE_RTOL * observed))
    return (1 + exceed) / (len(permuted) + 1)


class _PermutedSample:
    """A second sample with its permutations drawn: the part of a permutation
    test that every candidate first sample shares.

    ``b`` is the sample's ``(m, m)`` centred distance matrix and ``perms``
    the ``(B, m)`` drawn permutations.  Permuting rows of the sample permutes
    rows and columns of ``b``, so the statistic under ``perm`` is
    ``mean(A * b[perm][:, perm])``.  A test observes its candidates
    (`observe`) and then scores each one's permutations (`permuted`).
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

    def observe(self, xs: np.ndarray) -> tuple:
        """``(observed, keys)`` for a batch of ``c`` validated candidates
        ``xs``, ``(c, m, q)``.

        ``observed`` lists the ``c`` observed statistics as floats.  The
        ``keys`` are what `permuted` scores each candidate's permutations
        from: ``(c, m-1)`` gaps of each candidate's stable sort when ``q ==
        1``, else the ``(c, m, m)`` centred distance matrices.  The centring
        and the products with ``b`` run on chunks of at most
        `_PERM_CHUNK_FLOATS` floats, with each candidate's bits.
        """
        c, m, q = xs.shape
        xs = np.ascontiguousarray(xs)
        chunk = max(1, _PERM_CHUNK_FLOATS // (m * m))
        observed = np.empty(c)
        if q == 1:
            # the stable sort puts even 0.0 and -0.0 in sigma's order
            xs_sorted = np.sort(xs[:, :, 0], axis=1, kind="stable")
            keys = xs_sorted[:, 1:] - xs_sorted[:, :-1]
            work = np.empty((min(c, chunk), m, m))
        else:
            keys = np.empty((c, m, m))
        for start in range(0, c, chunk):
            stop = min(start + chunk, c)
            if q == 1:
                product = _centered_distances(xs[start:stop], out=work[: stop - start])
                product *= self.b
            else:
                product = _centered_distances(xs[start:stop], out=keys[start:stop]) * self.b
            np.add.reduce(product.reshape(stop - start, m * m), axis=1, out=observed[start:stop])
        observed /= m * m
        return [max(0.0, v) for v in observed.tolist()], keys

    def permuted(self, key: np.ndarray) -> np.ndarray:
        """The ``B`` permuted statistics of one observed candidate, from its
        key (see `observe`).

        Gaps are scored through ``cut`` under ``perm o sigma^-1``, with
        ``sigma`` the candidate's stable sort; a centred matrix ``a`` by
        gathering ``b[perm][:, perm]`` in chunks.
        """
        m = len(self.b)
        if key.ndim == 1:
            permuted = self.cut @ key
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
                np.einsum("ij,bij->b", key, b_perm, out=permuted[start : start + c])
        permuted /= m * m
        return permuted


def _pool(ps: np.ndarray, u: int) -> float:
    """Pool the ``T`` p-values ``ps`` by their u-th order statistic:
    ``min(1, T * p_(u) / u)``, with ``p_(u)`` the u-th smallest.

    The pooled value is a valid p-value for any fixed ``u`` in ``1..T``,
    under arbitrary dependence among the inputs; ``u = 1`` is the Bonferroni
    correction.  The inputs are not checked: each must lie in [0, 1].
    """
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
    time order, ``rows`` indexing the stratum's subjects.  Built by
    :func:`draw_permuted_side`; its candidates are observed by
    :func:`observe_candidates` and scored by :func:`stratified_pooled_test`.
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
            rows = np.flatnonzero(at == a)
            if rows.size >= min_stratum:
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


@dataclass(frozen=True)
class ObservedCandidate:
    """One first sample ``g`` observed against ``side``, ready to be scored
    by :func:`stratified_pooled_test`.

    ``strata`` holds, per stratum of ``side``, the ``(observed, keys)`` of
    the batch the candidate was observed in (see
    :func:`observe_candidates`), and ``index`` is its place in that batch.
    """

    side: PermutedSide
    strata: tuple
    index: int


def observe_candidates(g, side: PermutedSide) -> list:
    """Observe ``c`` one-column candidates against ``side`` in one pass per
    stratum: the first step of their stratified tests.

    ``g`` has shape ``(n, T, c)`` (or ``(n, T)`` for one candidate), laid
    out like the ``h`` that ``side`` was drawn from, with candidate ``i`` in
    ``g[..., i]``; it is checked as :func:`stratified_pooled_test` checks
    its ``g``, before any candidate is observed.  For each stratum, the
    stratum's rows of every candidate are gathered once and give every
    candidate's observed statistic and sorted gaps, with the bits of a test
    of that candidate alone.  Returns one :class:`ObservedCandidate` per
    candidate, in order.
    """
    g = _time_block(g, "g", side.actions, side.tested)
    # `take` gathers a stratum's rows of every candidate as a C-ordered
    # (c, m) block
    strata = tuple(
        sample.observe(g[:, t - 1].T.take(rows, axis=1)[:, :, None])
        for t, _, rows, sample in side.strata
    )
    return [ObservedCandidate(side, strata, i) for i in range(g.shape[2])]


def stratified_pooled_test(g, side: PermutedSide) -> TestReport:
    """Test ``G^t independent of H^t`` within action levels, pooled over time.

    ``g`` is either an :class:`ObservedCandidate` of ``side`` or an array
    with the layout of the ``h`` that ``side`` was drawn from, paired with
    it row by row; an array is observed stratum by stratum as a batch of
    one.  Each stratum of ``side`` scores the candidate's permutations
    against its drawn sample, giving a permutation distance-covariance
    p-value; action levels at the same time point are combined by
    Bonferroni over the number of tested strata, and the ``T'`` per-time
    p-values are pooled by the rule of `_pool` at ``u = floor(T'/20) + 1``.
    The report carries the pooled p-value; the caller compares it with its
    own level.
    """
    if isinstance(g, ObservedCandidate):
        if g.side is not side:
            raise ValueError("the candidate was observed against another side")
        batches, i = g.strata, g.index
    else:
        g = _time_block(g, "g", side.actions, side.tested)
        # observed one stratum at a time, so no stratum's matrices outlive
        # its scoring
        batches = (sample.observe(g[rows, t - 1][None]) for t, _, rows, sample in side.strata)
        i = 0
    strata: list[StratumResult] = []
    per_time: list[float] = []
    for t, group in itertools.groupby(zip(side.strata, batches), key=lambda s: s[0][0]):
        time_ps = []
        for (_, a, _, sample), (observed, keys) in group:
            p_value = _p_value(observed[i], sample.permuted(keys[i]))
            strata.append(StratumResult(t, a, len(sample.b), observed[i], p_value))
            time_ps.append(p_value)
        per_time.append(min(1.0, len(time_ps) * min(time_ps)))
    u = len(per_time) // 20 + 1
    return TestReport(
        statistic=[s.statistic for s in strata],
        # each p-value lies in (0, 1] by construction
        p_value=_pool(np.array(per_time), u),
        strata=strata,
        pooled_u=u,
        n_permutations=side.n_permutations,
    )
