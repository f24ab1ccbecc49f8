from suffmdp.screening import screen
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def test_result_does_not_depend_on_scan_order():
    ds = sample_trajectories(GenerativeModelSpec("linear", 2, signal_dim=8), 20, 4, rng=3)
    forward = screen(ds, n_permutations=99, seed=5)
    backward = screen(ds, n_permutations=99, seed=5,
                      scan_order=list(reversed(range(ds.state_dim))))
    assert forward.selected  # something to compare beyond the empty set
    assert backward.selected == forward.selected
    assert len(backward.rounds) == len(forward.rounds)
    for f, b in zip(forward.rounds, backward.rounds):
        assert b.p_values == f.p_values
        assert b.added == f.added
