"""The benchmark's workloads: inputs made from a seed, the top-level call,
and the checks and digests of its output.

Every workload pins the loop counts that would otherwise depend on the
sampled data (screening rounds, candidate feature dimensions, pipeline
iterations), so one call does the same amount of work for every seed and
the spread between seeds measures timing rather than a different amount
of work.  Horizons and iteration caps are small enough that one call takes
one to two seconds: a speed probe taken between calls then tracks the
machine's speed during the call (see speed.py), and the median of the
ten to twenty-five calls in a run rides out what the probe misses.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from suffmdp import adnn, experiment, simgen
from suffmdp.adnn import FitConfig, PipelineConfig
from suffmdp.experiment import ExperimentConfig

# Coordinates 0-3 drive the utility in every simgen model.
TRUE_VARS = frozenset(range(4))


@dataclass
class Prepared:
    """One workload's inputs, ready to call."""

    top: str  # span name of the top-level call
    call: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], list]  # problems found, empty when correct
    outcomes: Callable[[object], dict]
    operations: Callable[[object], tuple]  # (attempted, failed)
    workers: int


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pipeline_digest(result) -> str:
    return _sha(json.dumps(result.to_jsonable(), sort_keys=True))


def _pipeline_check(ds, result) -> list:
    problems = []
    p = ds.state_dim
    variables = result.variables
    if variables != sorted(set(variables)) or not set(variables) <= set(range(p)):
        problems.append(f"variables {variables} are not sorted distinct coordinates of 0..{p - 1}")
    if not set(variables) <= set(result.screen_result.selected):
        problems.append("variables outside the screened set")
    for rnd in result.screen_result.rounds:
        for j, pv in rnd.p_values.items():
            if not 0.0 < pv <= 1.0:
                problems.append(f"round {rnd.round_index} coordinate {j}: p-value {pv} outside (0, 1]")
    if variables:
        if result.feature_dim < 1:
            problems.append(f"feature_dim {result.feature_dim} with {len(variables)} variables")
        else:
            feats = result.feature_map.transform(ds.states[:, 0])
            if feats.shape != (ds.n_subjects, result.feature_dim):
                problems.append(f"feature map output shape {feats.shape}")
            elif not all(0.0 <= x <= 1.0 for x in feats.ravel()):
                problems.append("sigmoid features outside [0, 1]")
    return problems


def _pipeline_outcomes(result) -> dict:
    chosen = set(result.variables)
    return {
        "true_vars_missed": len(TRUE_VARS - chosen),
        "false_vars_kept": len(chosen - TRUE_VARS),
        "failed_frac": 0.0,
        "policy_value": 0.0,
        "variables": result.variables,
        "feature_dim": result.feature_dim,
        "flags": list(result.flags),
    }


def _pipeline(spec, n, horizon, config, seed) -> Prepared:
    ds = simgen.sample_trajectories(spec, n, horizon, rng=seed)
    return Prepared(
        top="adnn.pipeline",
        call=lambda: adnn.construct_sufficient_features(ds, config),
        digest=_pipeline_digest,
        check=lambda result: _pipeline_check(ds, result),
        outcomes=_pipeline_outcomes,
        operations=lambda result: (1, 0),
        workers=1,
    )


def screen_p64(seed: int, smoke: bool = False) -> Prepared:
    """dCov screening dominates: one round over 64 coordinates at B=999,
    then a light ADNN (2 cells, 3 folds, short fits, one dimension) on what
    survives."""
    spec = simgen.GenerativeModelSpec(g_kind="linear", signal_dim=8 if smoke else 64)
    config = PipelineConfig(
        n_permutations=19 if smoke else 999,
        grid=((4, 1, 0.01), (4, 1, 0.1)),
        folds=3,
        cv_fit=FitConfig(n_max=5 if smoke else 200),
        fit=FitConfig(n_max=10 if smoke else 500),
        dims=(2,),
        col_tol=0.0,
        screen_n_max=1,
        seed=seed,
    )
    return _pipeline(spec, 12 if smoke else 30, 4, config, seed)


def cv_quad_p16(seed: int, smoke: bool = False) -> Prepared:
    """ADNN fitting and CV dominate: an 8-cell grid over 5 folds at one
    feature dimension on the nonlinear (quad) model, after two screening
    rounds over 16 coordinates."""
    spec = simgen.GenerativeModelSpec(g_kind="quad", signal_dim=16)
    config = PipelineConfig(
        n_permutations=19 if smoke else 999,
        grid=tuple(adnn.default_grid((2, 4), (1, 2), (0.01, 0.1))),
        folds=2 if smoke else 5,
        cv_fit=FitConfig(n_max=5 if smoke else 80),
        fit=FitConfig(n_max=10 if smoke else 400),
        dims=(2,),
        col_tol=0.0,
        screen_n_max=2,
        seed=seed,
    )
    return _pipeline(spec, 12 if smoke else 30, 4, config, seed)


def _harness_check(cfg: ExperimentConfig, result) -> list:
    problems = []
    rows = list(csv.DictReader(io.StringIO(result.to_csv_text())))
    if [r["feature_map"] for r in rows] != list(cfg.feature_methods):
        problems.append(f"CSV rows {[r['feature_map'] for r in rows]}")
    for r in rows:
        if int(r["n_replicates"]) + int(r["n_failed"]) != cfg.replicates:
            problems.append(f"{r['feature_map']}: replicate counts do not add up")
        for q in cfg.q_methods:
            if r[f"{q}_q_mean"] and not math.isfinite(float(r[f"{q}_q_mean"])):
                problems.append(f"{r['feature_map']}: {q} Q value not finite")
    expected_vars = {"raw": 64, "oracle": 4, "pca": 64}
    for r in rows:
        if r["n_var_mean"] and int(r["n_var_mean"]) != expected_vars[r["feature_map"]]:
            problems.append(f"{r['feature_map']}: n_var {r['n_var_mean']}")
    return problems


def _harness_outcomes(cfg: ExperimentConfig, result) -> dict:
    values = [
        cell.stats[f"{q}_q"][0]
        for cell in result.cells
        for q in cfg.q_methods
        if f"{q}_q" in cell.stats
    ]
    attempted = cfg.replicates * len(cfg.feature_methods)
    return {
        "true_vars_missed": 0,
        "false_vars_kept": 0,
        "failed_frac": len(result.failures) / attempted,
        "policy_value": sum(values) / len(values) if values else 0.0,
    }


def harness_q(seed: int, smoke: bool = False) -> Prepared:
    """The experiment harness with no dCov or ADNN call: Q-learning on raw,
    oracle and PCA features, rollouts, and the two-worker thread pool."""
    cfg = ExperimentConfig(
        models=("linear",),
        n_subjects=10 if smoke else 30,
        horizon=5 if smoke else 30,
        replicates=2,
        feature_methods=("raw", "oracle", "pca"),
        q_methods=("linear", "nn"),
        master_seed=seed,
        n_rollouts=10 if smoke else 300,
        eval_horizon=5 if smoke else 30,
        q_epochs_linear=2 if smoke else 20,
        q_epochs_nn=1 if smoke else 2,
        threads=2,
    )
    return Prepared(
        top="experiment.run",
        call=lambda: experiment.run_experiment(cfg),
        digest=lambda result: _sha(result.to_csv_text()),
        check=lambda result: _harness_check(cfg, result),
        outcomes=lambda result: _harness_outcomes(cfg, result),
        operations=lambda result: (
            cfg.replicates * len(cfg.feature_methods),
            len(result.failures),
        ),
        workers=cfg.threads,
    )


WORKLOADS = {
    "screen-p64": screen_p64,
    "cv-quad-p16": cv_quad_p16,
    "harness-q": harness_q,
}
