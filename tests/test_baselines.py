import numpy as np
import pytest

from suffmdp.adnn import FitConfig, PipelineConfig
from suffmdp.baselines import fit_tnn, pca_feature_map
from suffmdp.core import TrajectoryDataset
from suffmdp.rng import substream
from suffmdp.simgen import GenerativeModelSpec, sample_trajectories


def _scaled_dataset(scales, n=40, horizon=5, seed=30):
    rng = substream(seed)
    states = rng.normal(size=(n, horizon + 1, len(scales))) * np.asarray(scales)
    return TrajectoryDataset(states=states, actions=rng.integers(1, 3, size=(n, horizon)),
                             utilities=np.zeros((n, horizon)), n_actions=2)


def _expected_k(ds, var_explained):
    # time-averaged per-time covariance, computed one time point at a time
    x = ds.states[:, :-1]
    cov = np.mean([np.cov(x[:, t].T, bias=True) for t in range(ds.horizon)], axis=0)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    return int(np.argmax(np.cumsum(eig) / eig.sum() >= var_explained - 1e-12) + 1)


@pytest.mark.parametrize("var_explained", [0.5, 0.9, 0.995, 1.0])
def test_pca_orthonormal_rows_and_component_count(var_explained):
    ds = _scaled_dataset([10.0, 3.0, 1.0, 0.1])
    fmap, k = pca_feature_map(ds, var_explained)
    assert k == _expected_k(ds, var_explained)
    assert fmap.dim == k
    assert np.allclose(fmap.weights @ fmap.weights.T, np.eye(k), atol=1e-12)


def test_pca_leading_component_follows_largest_variance():
    ds = _scaled_dataset([0.1, 10.0, 0.1])
    fmap, k = pca_feature_map(ds, 0.9)
    assert k == 1
    assert abs(fmap.weights[0, 1]) > 0.99


def test_pca_rejects_bad_fraction():
    with pytest.raises(ValueError):
        pca_feature_map(_scaled_dataset([1.0, 1.0]), 0.0)


def test_tnn_union_of_active_sets_and_summed_dimension():
    ds = sample_trajectories(GenerativeModelSpec("linear", 2), 20, 4, rng=3)
    cfg = PipelineConfig(
        n_permutations=19, grid=((2, 1, 0.01),), folds=2, dims=(1, 2),
        fit=FitConfig(n_max=10), cv_fit=FitConfig(n_max=2), col_tol=0.5, seed=4,
    )
    result = fit_tnn(ds, cfg)
    assert sorted(result.per_action) == list(range(1, ds.n_actions + 1))
    union = set()
    for a, (model, _, active) in result.per_action.items():
        assert model.actions == [a]  # one head, trained on that action's rows
        union.update(active)
    assert result.variables == sorted(union)
    dim = result.feature_map.dim
    assert dim == sum(d for _, d, _ in result.per_action.values())
    assert result.feature_map.transform(ds.states[:, 0]).shape == (20, dim)
