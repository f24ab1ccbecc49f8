"""Iterative variable screening.

Starting from the empty set, each round tests every unselected state
coordinate for dependence on the utility together with the next-step values
of the already-selected coordinates, within action levels, pooled over time.
A coordinate joins the selected set when its pooled p-value falls at or
below the threshold; the procedure stops at the first round that adds
nothing (or after ``n_max`` rounds).

Every coordinate of a round is tested against the same response block
``(U^t, S^{t+1}_selected)``, so the round draws that block's permutations
once per stratum, from streams keyed ``(seed, round, t, action)``, observes
all of its coordinates against them in one pass per stratum, and then
scores each coordinate with its own pooled test (see :mod:`suffmdp.dcov`):
coordinate ``j`` is tested under ``pi o sigma_j^-1``, with ``pi`` the
stratum's drawn permutations and ``sigma_j`` the sort order of the
coordinate's values.  The outcome does not depend on the order of the
state's columns, up to roundoff in the response block's distances, and
each coordinate's p-value is valid on its own.  A round with no
coordinate left to test draws nothing: it is recorded empty, and
screening stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TrajectoryDataset
from .dcov import draw_permuted_side, observe_candidates, stratified_pooled_test

__all__ = ["ScreenRound", "ScreenResult", "screen"]


@dataclass(frozen=True)
class ScreenRound:
    round_index: int
    tested: list
    p_values: dict  # coordinate -> pooled p-value
    added: list


@dataclass(frozen=True)
class ScreenResult:
    """Selected coordinate set (0-based) with the full round trace."""

    selected: list
    rounds: list
    tau: float
    converged: bool

    def to_jsonable(self) -> dict:
        return {
            "selected": self.selected,
            "tau": self.tau,
            "converged": self.converged,
            "rounds": [
                {
                    "round": r.round_index,
                    "tested": r.tested,
                    "p_values": {str(j): p for j, p in r.p_values.items()},
                    "added": r.added,
                }
                for r in self.rounds
            ],
        }


def screen(
    ds: TrajectoryDataset,
    tau: float = 0.1,
    n_max: Optional[int] = None,
    n_permutations: int = 999,
    seed: int = 0,
    min_stratum: int = 5,
) -> ScreenResult:
    """Screen state coordinates relevant to the utility process.

    ``n_max`` caps the number of rounds.  The default, ``p + 1``, can never
    bind: each round but the last adds a coordinate, and a round that finds
    every coordinate selected tests nothing and stops screening.  Each round
    tests the unselected coordinates in index order.
    """
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    p = ds.state_dim
    if n_max is None:
        n_max = p + 1
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    selected: list[int] = []
    rounds: list[ScreenRound] = []
    converged = False
    for k in range(1, n_max + 1):
        tested = [j for j in range(p) if j not in selected]
        if not tested:
            # every coordinate is selected: nothing to test, so no side is drawn
            rounds.append(ScreenRound(round_index=k, tested=[], p_values={}, added=[]))
            converged = True
            break
        # response block (U^t, S^{t+1}_selected) for every t, shared by the round
        response = np.concatenate(
            [ds.utilities[:, :, None], ds.states[:, 1:, selected]], axis=2
        )
        side = draw_permuted_side(
            response, ds, n_permutations=n_permutations, seed=seed, key=(k,),
            min_stratum=min_stratum,
        )
        candidates = observe_candidates(ds.states[:, :-1, tested], side)
        pvals: dict[int, float] = {}
        added: list[int] = []
        for j, candidate in zip(tested, candidates):
            report = stratified_pooled_test(candidate, side)
            pvals[j] = report.p_value
            if report.p_value <= tau:
                added.append(j)
        rounds.append(
            ScreenRound(round_index=k, tested=tested, p_values=pvals, added=sorted(added))
        )
        if not added:
            converged = True
            break
        selected = sorted(selected + added)
    return ScreenResult(
        selected=sorted(selected), rounds=rounds, tau=tau, converged=converged
    )

