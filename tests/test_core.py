import numpy as np
import pytest

from suffmdp.core import (
    DataValidationError,
    TrajectoryDataset,
    flatten_transitions,
    load_dataset_csv,
    save_dataset_csv,
)
from suffmdp.rng import substream
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def same_data(a, b) -> bool:
    return a.n_actions == b.n_actions and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("states", "actions", "utilities")
    )


def small_dataset(n=3, horizon=4, p=2, n_actions=2, seed=0):
    rng = substream(seed)
    return TrajectoryDataset(
        states=rng.normal(size=(n, horizon + 1, p)),
        actions=rng.integers(1, n_actions + 1, size=(n, horizon)),
        utilities=rng.normal(size=(n, horizon)),
        n_actions=n_actions,
    )


class TestTrajectoryDataset:
    def test_dimensions(self):
        ds = small_dataset(n=3, horizon=4, p=2)
        assert (ds.n_subjects, ds.horizon, ds.state_dim) == (3, 4, 2)

    def test_rejects_action_out_of_range(self):
        ds = small_dataset()
        bad = np.array(ds.actions)
        bad[1, 2] = 3
        with pytest.raises(DataValidationError, match="action out of range"):
            TrajectoryDataset(ds.states, bad, ds.utilities, n_actions=2)

    def test_rejects_nonfinite_states(self):
        ds = small_dataset()
        bad = np.array(ds.states)
        bad[0, 0, 0] = np.inf
        with pytest.raises(DataValidationError, match="non-finite"):
            TrajectoryDataset(bad, ds.actions, ds.utilities, n_actions=2)

    def test_rejects_utility_above_bound(self):
        ds = small_dataset()
        bad = np.array(ds.utilities)
        bad[0, 0] = 2e6
        with pytest.raises(DataValidationError, match="bound"):
            TrajectoryDataset(ds.states, ds.actions, bad, n_actions=2)

    def test_rejects_ragged_shapes(self):
        ds = small_dataset(horizon=4)
        with pytest.raises(DataValidationError):
            TrajectoryDataset(ds.states, ds.actions[:, :3], ds.utilities, n_actions=2)

    def test_arrays_are_immutable(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.states[0, 0, 0] = 1.0

    def test_restrict_columns(self):
        ds = small_dataset(p=2)
        sub = ds.restrict_columns([1])
        assert sub.state_dim == 1
        assert np.array_equal(sub.states[:, :, 0], ds.states[:, :, 1])


class TestFlatten:
    def test_unfiltered_count_is_n_times_horizon(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", 0), 30, 90, rng=1)
        assert len(flatten_transitions(ds)) == 30 * 90

    def test_filtered_counts_partition_total(self):
        ds = sample_trajectories(GenerativeModelSpec("linear", 0), 30, 90, rng=2)
        actions = flatten_transitions(ds).actions
        counts = {a: int(np.sum(actions == a)) for a in (1, 2)}
        assert counts[1] + counts[2] == 30 * 90
        assert counts[1] == int(np.sum(ds.actions == 1))
        # Bernoulli(0.5) actions: realized count should be near half
        assert 1150 < counts[1] < 1550

    def test_single_transition(self):
        ds = small_dataset(n=1, horizon=1, p=1)
        tr = flatten_transitions(ds)
        assert len(tr) == 1
        assert tr.states.shape == tr.next_states.shape == (1, 1)
        assert tr.states[0, 0] == ds.states[0, 0, 0]
        assert tr.next_states[0, 0] == ds.states[0, 1, 0]

    def test_rows_rebuild_the_dataset(self):
        # row i * T + (t - 1) is subject i's step at time t
        ds = small_dataset(n=4, horizon=5, p=3, seed=9)
        tr = flatten_transitions(ds)
        n, horizon, p = ds.n_subjects, ds.horizon, ds.state_dim
        rebuilt = TrajectoryDataset(
            states=np.concatenate(
                [tr.states.reshape(n, horizon, p), tr.next_states.reshape(n, horizon, p)[:, -1:]],
                axis=1,
            ),
            actions=tr.actions.reshape(n, horizon),
            utilities=tr.utilities.reshape(n, horizon),
            n_actions=2,
        )
        assert same_data(rebuilt, ds)
        assert np.array_equal(tr.next_states.reshape(n, horizon, p), ds.states[:, 1:])

    def test_view_is_read_only(self):
        tr = flatten_transitions(small_dataset())
        for a in (tr.states, tr.actions, tr.utilities, tr.next_states):
            with pytest.raises(ValueError):
                a[0] = 0


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(n=5, horizon=7, p=3, seed=3)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert same_data(loaded, ds)

    def test_generated_file_shape(self, tmp_path):
        # 30 subjects, T=90, 50 noise coordinates => 114 state columns
        ds = sample_trajectories(GenerativeModelSpec("linear", 50), 30, 90, rng=4)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert loaded.n_subjects == 30
        assert loaded.horizon == 90
        assert loaded.state_dim == 114
        assert same_data(loaded, ds)

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("id,t,a,u,s_1\n7,1,1,0.5,1.25\n7,2,,,-0.5\n")
        ds = load_dataset_csv(path)
        assert (ds.n_subjects, ds.horizon, ds.state_dim) == (1, 1, 1)
        assert len(flatten_transitions(ds)) == 1
        assert ds.utilities[0, 0] == 0.5

    def test_action_out_of_schema_range(self, tmp_path):
        # the action count is the largest action seen; actions start at 1
        path = tmp_path / "bad.csv"
        path.write_text("id,t,a,u,s_1\n1,1,0,0.0,0.1\n1,2,1,0.0,0.2\n1,3,,,0.3\n")
        with pytest.raises(DataValidationError, match="action out of range"):
            load_dataset_csv(path)

    def test_missing_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,a,u,s_1,s_2\n9,1,1,0.0,0.1,\n9,2,,,0.2,0.3\n")
        with pytest.raises(DataValidationError, match=r"subject 9 at t=1, column s_2"):
            load_dataset_csv(path)

    def test_missing_utility_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t,a,u,s_1\n9,1,1,,0.1\n9,2,,,0.2\n")
        with pytest.raises(DataValidationError, match=r"subject 9 at t=1, column u"):
            load_dataset_csv(path)

    def test_ragged_horizons_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,t,a,u,s_1\n"
            "1,1,1,0.0,0.1\n1,2,,,0.2\n"
            "2,1,1,0.0,0.1\n2,2,1,0.5,0.2\n2,3,,,0.3\n"
        )
        with pytest.raises(DataValidationError, match="ragged horizons"):
            load_dataset_csv(path)

    def test_missing_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,t,a,u,s_1\n1,1,1,0.0,0.1\n1,3,,,0.3\n"
        )
        with pytest.raises(DataValidationError):
            load_dataset_csv(path)

    def test_subjects_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "id,t,a,u,s_1\n"
            "b,2,,,4.0\nb,1,2,1.0,3.0\n"
            "a,1,1,2.0,1.0\na,2,,,2.0\n"
        )
        ds = load_dataset_csv(path)
        # subject "b" appears first, so row 0 is b's trajectory
        assert ds.states[0, 0, 0] == 3.0
        assert ds.states[1, 0, 0] == 1.0
        assert ds.actions[0, 0] == 2
