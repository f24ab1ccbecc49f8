"""Monte Carlo comparison harness for feature-construction methods.

For each (generative model, noise count, replicate): sample a training
batch, build every requested feature map, fit linear and neural Q-learners
on the reduced data, and score the greedy policies on fresh rollouts.
Results aggregate to one row per (model, noise, feature method) with Monte
Carlo standard errors (`core.mean_and_se`), mirroring a results-table
layout.  The ``raw`` map selects every state coordinate; the ``oracle`` map
and the coordinates it reads, its ``n_var``, come from `simgen`.

The Q fits keep their functions' default discount of 0.9.  Their step size
starts at ``qlearn.LINEAR_ALPHA0`` or ``qlearn.NN_ALPHA0`` and halves on a
retry.

Replicates run in worker processes forked from the caller.  Every random
quantity derives from the master seed and the replicate's coordinates, and
results are collected in task order, so the emitted tables are
byte-identical across runs and across worker counts.  A replicate whose
fit diverges (an ADNN cost, or a Q fit's parameters, turn non-finite) is
retried once with a halved step size, then excluded and counted with the
outcome ``diverged``.  One whose screening selects no variable is excluded
at once, because screening does not depend on the step size; its failure
entry has the outcome ``utility-independent-of-state``.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .adnn import ConvergenceError, PipelineConfig, construct_sufficient_features
from .baselines import fit_tnn, pca_feature_map
from .core import flatten_transitions, format_float, mean_and_se
from .features import CoordinateFeatureMap
from .qlearn import LINEAR_ALPHA0, NN_ALPHA0, evaluate_policy, fit_q_linear, fit_q_nn
from .rng import derive_seed
from .simgen import (ORACLE_VARIABLES, GenerativeModelSpec, oracle_feature_map,
                     sample_trajectories)

__all__ = ["ExperimentConfig", "CellSummary", "ExperimentResult", "run_experiment",
           "resolve_threads"]

FEATURE_METHODS = ("raw", "oracle", "adnn", "tnn", "pca")
Q_METHODS = ("linear", "nn")


def resolve_threads(threads: Optional[int] = None) -> int:
    """Number of worker processes: the explicit value, else the cores this
    process may run on."""
    if threads is not None:
        return threads
    if hasattr(os, "sched_getaffinity"):
        # cpu_count() counts the host's cores, not those an affinity mask allows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness settings; method names are matched case-insensitively, and
    each may be listed once.

    Each replicate's pipeline seed derives from ``master_seed``, so
    ``pipeline.seed`` must keep its default.  ``threads`` is the number of
    forked worker processes that run replicates (see ``resolve_threads``).
    The counts ``n_subjects``, ``horizon``, ``replicates``, ``n_rollouts``,
    ``eval_horizon``, ``q_epochs_linear``, ``q_epochs_nn`` and a set
    ``threads`` must be at least 1, and ``master_seed`` an integer (not a
    boolean) at least 0.
    ``models``, ``noise_counts`` and ``feature_methods`` must be nonempty,
    each model a simgen g kind (a string, as each method is) and each noise
    count an integer (not a boolean) at least 0, and ``oracle_variant`` a
    key of `simgen.ORACLE_VARIABLES`.  A bad setting raises
    ValueError here, before any replicate runs.  The Q fits' other
    settings and PCA's are constants of `qlearn` and `baselines`.
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
    oracle_variant: str = "first4"
    pipeline: PipelineConfig = PipelineConfig()
    q_epochs_linear: int = 20
    q_epochs_nn: int = 2
    threads: Optional[int] = None

    def __post_init__(self):
        # `config_from_jsonable` checks a list's JSON kind, not its entries'
        for name in ("models", "feature_methods", "q_methods"):
            if not all(isinstance(v, str) for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be strings, got {list(getattr(self, name))}")
        if any(isinstance(m, bool) or not isinstance(m, numbers.Integral)
               for m in self.noise_counts):
            raise ValueError(f"noise_counts entries must be integers, got {list(self.noise_counts)}")
        for name, kind, known in (("feature_methods", "feature", FEATURE_METHODS),
                                  ("q_methods", "Q", Q_METHODS)):
            methods = tuple(m.lower() for m in getattr(self, name))
            object.__setattr__(self, name, methods)
            for i, m in enumerate(methods):
                if m not in known:
                    raise ValueError(f"unknown {kind} method {m!r}")
                if m in methods[:i]:
                    raise ValueError(f"{kind} method {m!r} is listed twice")
        for name in ("feature_methods", "models", "noise_counts"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for model in self.models:
            for noise in self.noise_counts:
                spec = GenerativeModelSpec(g_kind=model, n_noise=noise)  # validates both
                oracle_feature_map(spec, self.oracle_variant)  # validates the variant
        for name in ("n_subjects", "horizon", "replicates", "n_rollouts", "eval_horizon",
                     "q_epochs_linear", "q_epochs_nn"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, numbers.Integral):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
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

    def to_jsonable(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "replicates": self.detail,
            "failures": self.failures,
        }


def _build_feature_map(method, ds, gen_spec, cfg: ExperimentConfig, seed: int,
                       alpha_scale: float = 1.0):
    """Returns (feature_map, n_var) for one method on one dataset.

    The adnn map is None when screening selects no variable.
    """
    p = ds.state_dim
    if method == "raw":
        return CoordinateFeatureMap(p, range(p)), p
    if method == "oracle":
        return (oracle_feature_map(gen_spec, cfg.oracle_variant),
                len(ORACLE_VARIABLES[cfg.oracle_variant]))
    if method == "pca":
        return pca_feature_map(ds), p

    # CV fits too: a diverged CV fit retried at its old step size fails again
    def scaled(fit):
        return None if fit is None else replace(fit, alpha0=fit.alpha0 * alpha_scale)

    pipe = replace(
        cfg.pipeline, seed=seed,
        fit=scaled(cfg.pipeline.fit), cv_fit=scaled(cfg.pipeline.cv_fit),
    )
    result = (construct_sufficient_features if method == "adnn" else fit_tnn)(ds, pipe)
    return result.feature_map, len(result.variables)


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
                fmap, n_var = _build_feature_map(
                    method, ds, gen_spec, cfg, feat_seed, alpha_scale
                )
                if fmap is None:
                    outcome = "utility-independent-of-state"
                    err_msgs.append("screening selected no variables")
                    break
                entry = {"n_var": n_var, "n_dim": fmap.dim}
                for qi, q_method in enumerate(cfg.q_methods):
                    fit_seed = derive_seed(cfg.master_seed, mi, ni, rep, 2, fi, qi)
                    if q_method == "linear":
                        fit, epochs, alpha0 = fit_q_linear, cfg.q_epochs_linear, LINEAR_ALPHA0
                    else:
                        fit, epochs, alpha0 = fit_q_nn, cfg.q_epochs_nn, NN_ALPHA0
                    q = fit(
                        transitions, fmap, epochs=epochs, alpha0=alpha0 * alpha_scale,
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


def _run_task(task: tuple) -> dict:
    # The pool pickles this function by name.  It looks _run_replicate up
    # when called, so a forked worker runs what the caller's module holds.
    return _run_replicate(*task)


def _fork_context():
    """The ``fork`` start method, or None on a platform without it.

    Forked workers skip re-importing the package and inherit the caller's
    module state.
    """
    import multiprocessing  # here, so that `import suffmdp` does not load it

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all replicates and aggregate per-cell means and standard errors.

    Replicates run on up to ``resolve_threads(cfg.threads)`` worker
    processes forked from the caller.  They run in the caller when there is
    one worker or one replicate in all, or when the platform cannot fork.
    An exception raised in a replicate reaches the caller with its type and
    message.  A fork copies only the calling thread, so call this from a
    process whose other threads hold no lock a replicate needs.
    """
    tasks = [
        (cfg, mi, ni, rep)
        for mi in range(len(cfg.models))
        for ni in range(len(cfg.noise_counts))
        for rep in range(cfg.replicates)
    ]
    workers = min(resolve_threads(cfg.threads), len(tasks))
    context = _fork_context() if workers > 1 else None
    if context is None:
        records = [_run_task(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            records = list(pool.map(_run_task, tasks))  # in task order

    failures = []
    for record in records:
        failures.extend(record.pop("_failures"))

    cells = []
    names = ["n_var", "n_dim"] + [f"{q}_q" for q in cfg.q_methods]
    start = 0
    for model in cfg.models:
        for noise in cfg.noise_counts:
            # records are in task order, so this cell's replicates come next
            group = records[start:start + cfg.replicates]
            start += cfg.replicates
            for method in cfg.feature_methods:
                entries = [r["methods"][method] for r in group if method in r["methods"]]
                stats = {}
                if entries:
                    for name in names:
                        stats[name] = mean_and_se([e[name] for e in entries])
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
