import dataclasses

import numpy as np
import pytest

from suffmdp import dcov, screening
from suffmdp.screening import screen
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def test_result_does_not_depend_on_scan_order():
    # column j of the reversed dataset is column perm[j] of the original
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    perm = list(reversed(range(ds.state_dim)))
    forward = screen(ds, n_permutations=99, seed=5)
    backward = screen(ds.restrict_columns(perm), n_permutations=99, seed=5)
    assert forward.selected  # something to compare beyond the empty set
    assert len(forward.rounds) >= 2  # later rounds have selected columns in the response
    assert sorted(perm[j] for j in backward.selected) == forward.selected
    assert len(backward.rounds) == len(forward.rounds)
    for f, b in zip(forward.rounds, backward.rounds):
        assert {perm[j]: p for j, p in b.p_values.items()} == f.p_values
        assert sorted(perm[j] for j in b.added) == f.added


def test_one_pooled_test_call_per_tested_coordinate_per_round(monkeypatch):
    # Span tracing wraps the module attribute screening calls the pooled
    # test through and reads the report's strata.
    calls = []
    original = screening.stratified_pooled_test

    def counted(g, side, **kwargs):
        report = original(g, side, **kwargs)
        calls.append((side, report))
        return report

    monkeypatch.setattr(screening, "stratified_pooled_test", counted)
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    result = screen(ds, n_permutations=99, seed=5)
    assert len(result.rounds) >= 2
    assert len(calls) == sum(len(r.tested) for r in result.rounds)
    start = 0
    for rnd in result.rounds:
        in_round = calls[start:start + len(rnd.tested)]
        start += len(rnd.tested)
        assert len({id(side) for side, _ in in_round}) == 1  # one side per round
        assert [report.p_value for _, report in in_round] == [
            rnd.p_values[j] for j in rnd.tested]
    for _, report in calls:
        assert isinstance(report, dcov.TestReport)
        assert report.strata
        for s in report.strata:
            assert isinstance(s, dcov.StratumResult)
            assert [f.name for f in dataclasses.fields(s)] == [
                "t", "action", "sample_size", "statistic", "p_value"]


def test_p_value_equal_to_tau_adds_the_coordinate(monkeypatch):
    # screen states the rule p <= tau; the pooled test only returns p
    tau = 0.1
    # round 1 tests every coordinate in index order, so the first two calls
    # are coordinates 0 and 1; every other call returns 1
    p_values = iter([tau, float(np.nextafter(tau, 1.0))])

    def at_the_boundary(g, side):
        p = next(p_values, 1.0)
        return dcov.TestReport(statistic=[], p_value=p, strata=[], pooled_u=1,
                               n_permutations=side.n_permutations)

    monkeypatch.setattr(screening, "stratified_pooled_test", at_the_boundary)
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    result = screen(ds, tau=tau, n_permutations=9, seed=5)
    assert result.rounds[0].p_values[0] == tau
    assert result.rounds[0].added == [0]
    assert result.selected == [0]
    assert result.converged


def test_round_with_nothing_to_test_draws_no_side(monkeypatch):
    # tau 0.999 selects all 6 coordinates in round 1, so round 2 has no
    # untested coordinate: it is recorded empty and screening stops
    draws = []
    original = screening.draw_permuted_side

    def counted(*args, **kwargs):
        draws.append(kwargs.get("key"))
        return original(*args, **kwargs)

    monkeypatch.setattr(screening, "draw_permuted_side", counted)
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=4), 20, 4, rng=3)
    result = screen(ds, tau=0.999, n_permutations=19)
    assert result.selected == list(range(ds.state_dim)) == result.rounds[0].added
    assert result.rounds[-1] == screening.ScreenRound(
        round_index=2, tested=[], p_values={}, added=[])
    assert len(result.rounds) == 2
    assert result.converged
    assert draws == [(1,)]


def test_default_n_max_leaves_room_for_the_round_that_finds_nothing_left():
    # the one coordinate joins in round 1; with one round per coordinate the
    # empty round 2 never ran, and the result read as not converged
    ds = sample_trajectories(GenerativeModelSpec("linear", 0, signal_dim=4), 30, 6,
                             rng=1).restrict_columns([0])
    result = screen(ds, tau=0.5, n_permutations=99, seed=1)
    assert result.selected == [0]
    assert [r.tested for r in result.rounds] == [[0], []]
    assert result.converged


@pytest.mark.parametrize("tau",[0.0, 1.0, -0.1, 1.5, float("nan")])
def test_tau_outside_the_open_unit_interval_rejected(tau):
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=4), 20, 4, rng=3)
    with pytest.raises(ValueError, match=r"tau must be in \(0, 1\)"):
        screen(ds, tau=tau, n_permutations=9)


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_rejected(n_max):
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=4), 20, 4, rng=3)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        screen(ds, n_max=n_max, n_permutations=9)


def test_n_max_caps_the_rounds_and_leaves_converged_false():
    # uncapped, this dataset adds coordinates in rounds 1 and 2 (see above)
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    uncapped = screen(ds, n_permutations=99, seed=5)
    assert len(uncapped.rounds) >= 3 and uncapped.converged
    for n_max in (1, 2):
        capped = screen(ds, n_max=n_max, n_permutations=99, seed=5)
        assert capped.rounds == uncapped.rounds[:n_max]
        assert capped.rounds[-1].added
        assert capped.selected == sorted(j for r in capped.rounds for j in r.added)
        assert not capped.converged


def test_nan_in_a_tested_state_row_raises_before_any_coordinate_is_scored(monkeypatch):
    scored = []
    monkeypatch.setattr(screening, "stratified_pooled_test",
                        lambda g, side: scored.append(g))
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=4), 20, 4, rng=3)
    states = ds.states.copy()
    states[0, 0, 5] = np.nan  # the last coordinate, at a time whose state is tested
    # the dataset validates its states when built, so plant the NaN after
    object.__setattr__(ds, "states", states)
    with pytest.raises(ValueError, match="g contains non-finite entries in a tested row"):
        screen(ds, n_permutations=9)
    assert scored == []


def test_batched_round_equals_one_coordinate_at_a_time():
    # each round's coordinates are observed together; a loop that tests
    # each coordinate's array alone against the round's side gives the
    # same result, over several rounds
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    tau, n_permutations, seed = 0.1, 99, 5
    selected, rounds = [], []
    for k in range(1, ds.state_dim + 1):
        tested = [j for j in range(ds.state_dim) if j not in selected]
        response = np.concatenate(
            [ds.utilities[:, :, None], ds.states[:, 1:, selected]], axis=2)
        side = dcov.draw_permuted_side(response, ds, n_permutations=n_permutations,
                                       seed=seed, key=(k,))
        p_values = {j: dcov.stratified_pooled_test(ds.states[:, :-1, j], side).p_value
                    for j in tested}
        added = [j for j in tested if p_values[j] <= tau]
        rounds.append(screening.ScreenRound(k, tested, p_values, added))
        if not added:
            break
        selected = sorted(selected + added)
    assert len(rounds) >= 3
    want = screening.ScreenResult(selected, rounds, tau, converged=True)
    assert screen(ds, tau=tau, n_permutations=n_permutations, seed=seed) == want
