"""Comparison feature maps: PCA projection and per-action sparse networks.

PCA ignores the decision structure entirely: it eigendecomposes the
time-averaged empirical state covariance and keeps enough leading
components to explain a target variance fraction.

The per-action baseline ("traditional" networks, tNN) runs the
cross-validated fit and dimension selection separately on each action's
transitions, then reports the union of selected variables and the
concatenation of the per-action feature maps.  With a single action level
it coincides with the shared-network pipeline on the whole data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adnn import PipelineConfig, active_inputs, select_feature_dimension
from .core import TrajectoryDataset
from .features import ConcatFeatureMap, LinearFeatureMap
from .rng import derive_seed

__all__ = ["pca_feature_map", "TnnResult", "fit_tnn"]


def pca_feature_map(ds: TrajectoryDataset, var_explained: float = 0.9):
    """Principal-component projection of the state.

    The covariance is the average over t = 1..T of the per-time empirical
    covariance across subjects.  Returns ``(map, k)`` where ``k`` is the
    smallest component count whose eigenvalues reach ``var_explained`` of
    the total; the map is ``s -> V_k (s - mean)`` with orthonormal rows.
    """
    if not 0 < var_explained <= 1:
        raise ValueError(f"var_explained must be in (0, 1], got {var_explained}")
    horizon = ds.horizon
    x = ds.states[:, :horizon]  # (n, T, p)
    per_time_mean = x.mean(axis=0, keepdims=True)
    centered = x - per_time_mean
    n = ds.n_subjects
    p = ds.state_dim
    flat = centered.reshape(n * horizon, p)
    cov = flat.T @ flat / (n * horizon)
    total = float(np.trace(cov))
    if total <= 0.0:
        raise ValueError("zero covariance: states carry no variation")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    frac = np.cumsum(eigvals) / eigvals.sum()
    k = int(np.searchsorted(frac, var_explained - 1e-12) + 1)
    components = eigvecs[:, :k].T
    mean = x.reshape(n * horizon, p).mean(axis=0)
    fmap = LinearFeatureMap(weights=components, offset=-components @ mean)
    return fmap, k


@dataclass(frozen=True)
class TnnResult:
    """Per-action fits plus their union variable set and concatenated map
    (whose ``dim`` is the total feature dimension)."""

    per_action: dict  # action -> (model, feature_dim, active variables)
    variables: list
    feature_map: ConcatFeatureMap


def fit_tnn(ds: TrajectoryDataset, config: PipelineConfig = PipelineConfig()) -> TnnResult:
    """Independent single-action pipelines, one per action level.

    Each action's model is tuned and dimension-selected on the transitions
    taking that action (no screening, no outer iteration).  Per-action
    seeds derive from ``(config.seed, action)``.
    """
    per_action = {}
    parts = []
    union: set[int] = set()
    for a in range(1, ds.n_actions + 1):
        selection = select_feature_dimension(
            ds, config, seed=derive_seed(config.seed, a), actions_subset=[a]
        )
        active = active_inputs(selection.model, config.col_tol)
        per_action[a] = (selection.model, selection.feature_dim, active)
        union.update(active)
        parts.append(selection.model.feature_map())
    return TnnResult(
        per_action=per_action,
        variables=sorted(union),
        feature_map=ConcatFeatureMap(parts),
    )
