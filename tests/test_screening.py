import dataclasses

import numpy as np

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
