"""Monte Carlo comparison harness for feature-construction methods.

For each (generative model, noise count, replicate): sample a training
batch, build every requested feature map, fit linear and neural Q-learners
on the reduced data, and score the greedy policies on fresh rollouts.
Results aggregate to one row per (model, noise, feature method) with Monte
Carlo standard errors, mirroring a results-table layout.

Every random quantity derives from the master seed and the replicate's
coordinates, so the emitted tables are byte-identical across runs and
across worker counts.  A replicate whose fit diverges is retried once with
a halved step size, then excluded and counted.  One whose screening selects
no variable is excluded at once, because screening does not depend on the
step size; its failure entry has the outcome ``utility-independent-of-state``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .adnn import ConvergenceError, PipelineConfig, construct_sufficient_features
from .baselines import fit_tnn, pca_feature_map
from .core import flatten_transitions, format_float
from .features import IdentityFeatureMap
from .qlearn import evaluate_policy, fit_q_linear, fit_q_nn
from .rng import derive_seed
from .simgen import GenerativeModelSpec, oracle_feature_map, sample_trajectories

__all__ = ["ExperimentConfig", "CellSummary", "ExperimentResult", "run_experiment",
           "resolve_threads"]

FEATURE_METHODS = ("raw", "oracle", "adnn", "tnn", "pca")
Q_METHODS = ("linear", "nn")


def resolve_threads(threads: Optional[int] = None) -> int:
    """Worker count: the explicit value, else the cores this process may run on."""
    if threads is not None:
        return max(1, int(threads))
    if hasattr(os, "sched_getaffinity"):
        # cpu_count() counts the host's cores, not those an affinity mask allows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness settings; method names are matched case-insensitively.

    Each replicate's pipeline seed derives from ``master_seed``, so
    ``pipeline.seed`` must keep its default.
    """

    models: tuple = ("linear",)
    noise_counts: tuple = (0,)
    n_subjects: int = 30
    horizon: int = 90
    replicates: int = 20
    feature_methods: tuple = FEATURE_METHODS
    q_methods: tuple = Q_METHODS
    master_seed: int = 0
    n_rollouts: int = 300
    eval_horizon: int = 90
    gamma: float = 0.9
    oracle_variant: str = "first4"
    pca_var_explained: float = 0.9
    pipeline: PipelineConfig = PipelineConfig()
    q_epochs_linear: int = 20
    q_epochs_nn: int = 2
    q_hidden_width: int = 10
    q_alpha0_linear: float = 0.05
    q_alpha0_nn: float = 0.01
    q_beta: float = 10000.0
    threads: Optional[int] = None
    output_csv: Optional[str] = None
    output_json: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "feature_methods", tuple(m.lower() for m in self.feature_methods))
        object.__setattr__(self, "q_methods", tuple(m.lower() for m in self.q_methods))
        for m in self.feature_methods:
            if m not in FEATURE_METHODS:
                raise ValueError(f"unknown feature method {m!r}")
        for m in self.q_methods:
            if m not in Q_METHODS:
                raise ValueError(f"unknown Q method {m!r}")
        if self.pipeline.seed != PipelineConfig.seed:
            raise ValueError(f"pipeline.seed {self.pipeline.seed} is replaced per replicate; "
                             "set master_seed instead")


@dataclass
class CellSummary:
    model: str
    n_noise: int
    feature_method: str
    stats: dict  # name -> (mean, se) over successful replicates
    n_ok: int
    n_failed: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list
    detail: list  # per-replicate records
    failures: list  # log entries for excluded replicates

    def to_csv_text(self) -> str:
        header = [
            "model", "n_noise", "feature_map",
            "linear_q_mean", "linear_q_se", "nn_q_mean", "nn_q_se",
            "n_var_mean", "n_var_se", "n_dim_mean", "n_dim_se",
            "n_replicates", "n_failed",
        ]
        lines = [",".join(header)]
        for cell in self.cells:
            row = [cell.model, str(cell.n_noise), cell.feature_method]
            for name in ("linear_q", "nn_q", "n_var", "n_dim"):
                if name in cell.stats:
                    mean, se = cell.stats[name]
                    row += [format_float(mean), format_float(se)]
                else:
                    row += ["", ""]
            row += [str(cell.n_ok), str(cell.n_failed)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    def to_jsonable(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "replicates": self.detail,
            "failures": self.failures,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2, sort_keys=True)


def _build_feature_map(method, ds, gen_spec, cfg: ExperimentConfig, seed: int,
                       alpha_scale: float = 1.0):
    """Returns (feature_map, n_var, n_dim) for one method on one dataset.

    The adnn map is None when screening selects no variable.
    """
    p = ds.state_dim
    if method == "raw":
        return IdentityFeatureMap(p), p, p
    if method == "oracle":
        fmap = oracle_feature_map(gen_spec, cfg.oracle_variant)
        n_var = {"first4": 4, "first16": 16, "nonlinear3": 4}[cfg.oracle_variant]
        return fmap, n_var, fmap.dim
    if method == "pca":
        fmap, k = pca_feature_map(ds, cfg.pca_var_explained)
        return fmap, p, k

    # CV fits too: a diverged CV fit retried at its old step size fails again
    def scaled(fit):
        return None if fit is None else replace(fit, alpha0=fit.alpha0 * alpha_scale)

    pipe = replace(
        cfg.pipeline, seed=seed,
        fit=scaled(cfg.pipeline.fit), cv_fit=scaled(cfg.pipeline.cv_fit),
    )
    if method == "adnn":
        result = construct_sufficient_features(ds, pipe)
        return result.feature_map, len(result.variables), result.feature_dim
    if method == "tnn":
        result = fit_tnn(ds, pipe)
        return result.feature_map, len(result.variables), result.feature_dim
    raise ValueError(f"unknown feature method {method!r}")


def _run_replicate(cfg: ExperimentConfig, mi: int, ni: int, rep: int) -> dict:
    model = cfg.models[mi]
    noise = cfg.noise_counts[ni]
    gen_spec = GenerativeModelSpec(g_kind=model, n_noise=noise)
    data_seed = derive_seed(cfg.master_seed, mi, ni, rep, 0)
    ds = sample_trajectories(gen_spec, cfg.n_subjects, cfg.horizon, rng=data_seed)
    transitions = flatten_transitions(ds)

    record = {"model": model, "n_noise": noise, "replicate": rep, "methods": {}}
    failures = []
    for fi, method in enumerate(cfg.feature_methods):
        feat_seed = derive_seed(cfg.master_seed, mi, ni, rep, 1, fi)
        entry = None
        err_msgs = []
        outcome = "diverged"
        for attempt, alpha_scale in enumerate((1.0, 0.5)):
            try:
                fmap, n_var, n_dim = _build_feature_map(
                    method, ds, gen_spec, cfg, feat_seed, alpha_scale
                )
                if fmap is None:
                    outcome = "utility-independent-of-state"
                    err_msgs.append("screening selected no variables")
                    break
                entry = {"n_var": n_var, "n_dim": n_dim}
                for qi, q_method in enumerate(cfg.q_methods):
                    fit_seed = derive_seed(cfg.master_seed, mi, ni, rep, 2, fi, qi)
                    if q_method == "linear":
                        q = fit_q_linear(
                            transitions, fmap, gamma=cfg.gamma,
                            epochs=cfg.q_epochs_linear,
                            alpha0=cfg.q_alpha0_linear * alpha_scale,
                            beta=cfg.q_beta, seed=fit_seed, n_actions=ds.n_actions,
                        )
                    else:
                        q = fit_q_nn(
                            transitions, fmap, gamma=cfg.gamma,
                            hidden_width=cfg.q_hidden_width, epochs=cfg.q_epochs_nn,
                            alpha0=cfg.q_alpha0_nn * alpha_scale, beta=cfg.q_beta,
                            seed=fit_seed, n_actions=ds.n_actions,
                        )
                    eval_seed = derive_seed(cfg.master_seed, mi, ni, rep, 3, qi)
                    value = evaluate_policy(
                        gen_spec, fmap, q,
                        n_rollouts=cfg.n_rollouts, horizon=cfg.eval_horizon,
                        seed=eval_seed,
                    )
                    if not np.isfinite(value.mean_outcome):
                        raise ConvergenceError(f"{q_method} Q value non-finite")
                    entry[f"{q_method}_q"] = value.mean_outcome
                    entry[f"{q_method}_q_se"] = value.std_error
                break
            except ConvergenceError as exc:
                err_msgs.append(f"attempt {attempt + 1}: {exc}")
                entry = None
        if entry is None:
            failures.append(
                {
                    "model": model, "n_noise": noise, "replicate": rep,
                    "feature_method": method, "outcome": outcome, "errors": err_msgs,
                }
            )
        else:
            record["methods"][method] = entry
    record["_failures"] = failures
    return record


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all replicates and aggregate per-cell means and standard errors."""
    tasks = [
        (mi, ni, rep)
        for mi in range(len(cfg.models))
        for ni in range(len(cfg.noise_counts))
        for rep in range(cfg.replicates)
    ]
    workers = resolve_threads(cfg.threads)
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(lambda args: _run_replicate(cfg, *args), tasks)
            )
    else:
        records = [_run_replicate(cfg, *args) for args in tasks]

    failures = []
    for record in records:
        failures.extend(record.pop("_failures"))

    cells = []
    for mi, model in enumerate(cfg.models):
        for ni, noise in enumerate(cfg.noise_counts):
            group = [
                r for r in records
                if r["model"] == model and r["n_noise"] == noise
            ]
            for method in cfg.feature_methods:
                entries = [r["methods"][method] for r in group if method in r["methods"]]
                stats = {}
                names = ["n_var", "n_dim"] + [f"{q}_q" for q in cfg.q_methods]
                for name in names:
                    values = np.array([e[name] for e in entries], dtype=np.float64)
                    if values.size:
                        se = (
                            float(values.std(ddof=1) / np.sqrt(values.size))
                            if values.size > 1
                            else 0.0
                        )
                        stats[name] = (float(values.mean()), se)
                cells.append(
                    CellSummary(
                        model=model,
                        n_noise=noise,
                        feature_method=method,
                        stats=stats,
                        n_ok=len(entries),
                        n_failed=len(group) - len(entries),
                    )
                )
    return ExperimentResult(config=cfg, cells=cells, detail=records, failures=failures)
