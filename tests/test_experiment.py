import multiprocessing
import os

import numpy as np
import pytest

from suffmdp import adnn, experiment
from suffmdp.adnn import FitConfig, PipelineConfig
from suffmdp.experiment import ExperimentConfig, resolve_threads, run_experiment
from suffmdp.rng import derive_seed

SMALL = dict(n_subjects=12, horizon=4, replicates=3, feature_methods=("raw", "oracle"),
             q_methods=("linear",), n_rollouts=5, eval_horizon=4, q_epochs_linear=1)


def test_empty_screening_fails_once_without_retry(monkeypatch):
    # B=19 at T=4 puts the smallest pooled p-value (0.4) above tau=0.1,
    # so screening selects nothing whatever the step size
    calls = []
    original = adnn.screen

    def counting_screen(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(adnn, "screen", counting_screen)
    cfg = ExperimentConfig(
        n_subjects=12, horizon=4, replicates=2, feature_methods=("adnn",),
        q_methods=("linear",), n_rollouts=5, eval_horizon=4, q_epochs_linear=1,
        threads=1, pipeline=PipelineConfig(n_permutations=19),
    )
    result = run_experiment(cfg)
    assert len(calls) == cfg.replicates
    assert [f["outcome"] for f in result.failures] == ["utility-independent-of-state"] * 2
    assert all(f["errors"] == ["screening selected no variables"] for f in result.failures)
    assert result.cells[0].n_ok == 0 and result.cells[0].n_failed == 2


@pytest.mark.parametrize("cv_fit", [FitConfig(n_max=2), None], ids=["cv-fit", "no-cv-fit"])
def test_retry_halves_the_cv_step_size(monkeypatch, cv_fit):
    # every cross-validation diverges, so each replicate is tried twice;
    # a retry that kept the CV step size would fail identically
    alphas = []

    def diverging_cv(*args, cfg, **kwargs):
        alphas.append(cfg.alpha0)
        raise adnn.ConvergenceError("diverged")

    monkeypatch.setattr(adnn, "cross_validate_adnn", diverging_cv)
    cfg = ExperimentConfig(
        n_subjects=12, horizon=4, replicates=1, feature_methods=("tnn",),
        q_methods=("linear",), n_rollouts=5, eval_horizon=4, q_epochs_linear=1,
        threads=1, pipeline=PipelineConfig(fit=FitConfig(n_max=2), cv_fit=cv_fit, dims=(1,)),
    )
    result = run_experiment(cfg)
    assert alphas == [0.05, 0.025]
    assert [f["outcome"] for f in result.failures] == ["diverged"]


@pytest.mark.parametrize("q_method", ["linear", "nn"])
def test_diverged_q_fit_is_retried_then_counted(monkeypatch, q_method):
    # the Q fits diverge at both step sizes; a diverged fit used to return
    # NaN weights whose greedy policy scored a finite value
    monkeypatch.setattr(experiment, {"linear": "LINEAR_ALPHA0", "nn": "NN_ALPHA0"}[q_method],
                        1e4)
    cfg = ExperimentConfig(
        n_subjects=20, horizon=12, replicates=1, feature_methods=("raw",),
        q_methods=(q_method,), n_rollouts=5, eval_horizon=4, q_epochs_linear=1,
        q_epochs_nn=1, threads=1,
    )
    with np.errstate(all="ignore"):
        result = run_experiment(cfg)
    assert [f["outcome"] for f in result.failures] == ["diverged"]
    errors = result.failures[0]["errors"]
    assert [e.split(":")[0] for e in errors] == ["attempt 1", "attempt 2"]
    assert all("non-finite parameters" in e for e in errors)
    assert result.cells[0].n_ok == 0 and result.cells[0].n_failed == 1


def test_duplicate_models_keep_their_own_replicates():
    # each row reads the replicates of its own position in `models`, whose
    # data seeds differ, not every replicate of the same model name
    cfg = ExperimentConfig(threads=1, **dict(SMALL, models=("linear", "linear"), replicates=2,
                                             feature_methods=("raw",)))
    first, second = run_experiment(cfg).cells
    assert first.n_ok == second.n_ok == 2
    assert first.stats != second.stats


@pytest.mark.parametrize(
    "key,methods,message",
    [("feature_methods", ("raw", "RAW", "pca"), "feature method 'raw' is listed twice"),
     ("feature_methods", ("raw", "pca", "Pca"), "feature method 'pca' is listed twice"),
     ("q_methods", ("linear", "linear"), "Q method 'linear' is listed twice")],
    ids=["feature-case", "feature-later", "q"])
def test_duplicate_methods_rejected(key, methods, message):
    # a duplicate's fits would be computed and then overwritten, and the CSV
    # would repeat its row
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{key: methods})


@pytest.mark.parametrize(
    "key,value,message",
    [("models", (), "models must be nonempty"),
     ("noise_counts", (), "noise_counts must be nonempty"),
     ("feature_methods", (), "feature_methods must be nonempty"),
     ("models", ("linear", "cubic"), "unknown g kind 'cubic'"),
     ("noise_counts", (0, -3), "n_noise must be >= 0, got -3"),
     ("oracle_variant", "first8", "unknown oracle variant 'first8'"),
     ("n_subjects", 0, "n_subjects must be >= 1, got 0"),
     ("horizon", 0, "horizon must be >= 1, got 0"),
     ("n_rollouts", 0, "n_rollouts must be >= 1, got 0"),
     ("eval_horizon", -1, "eval_horizon must be >= 1, got -1"),
     ("q_epochs_linear", 0, "q_epochs_linear must be >= 1, got 0"),
     ("q_epochs_nn", -2, "q_epochs_nn must be >= 1, got -2"),
     ("master_seed", -1, "master_seed must be >= 0, got -1")],
    ids=["no-models", "no-noise-counts", "no-feature-methods", "unknown-model",
         "negative-noise", "unknown-oracle-variant", "no-subjects", "no-horizon",
         "no-rollouts", "negative-eval-horizon", "no-linear-epochs", "negative-nn-epochs",
         "negative-master-seed"])
def test_config_that_trains_nothing_or_fails_in_a_replicate_rejected(key, value, message):
    # each of these once ran: an empty list printed a header-only table, a
    # zero epoch count scored the untrained Q, and an unknown model or
    # variant or a negative seed failed only when its replicate ran
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{key: value})


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3


def test_default_threads_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_threads(None) == 8


def test_replicate_error_reaches_the_caller(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("replicate broke")

    monkeypatch.setattr(experiment, "fit_q_linear", broken)
    with pytest.raises(RuntimeError, match="replicate broke"):
        run_experiment(ExperimentConfig(threads=2, **SMALL))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="replicates run in the caller without the fork start method")
def test_replicates_run_in_worker_processes(monkeypatch):
    # the patch is seen by the workers because they are forked after it
    def where(cfg, mi, ni, rep):
        return {"model": cfg.models[mi], "n_noise": cfg.noise_counts[ni], "replicate": rep,
                "methods": {}, "_failures": [], "pid": os.getpid()}

    monkeypatch.setattr(experiment, "_run_replicate", where)
    result = run_experiment(ExperimentConfig(threads=2, **SMALL))
    assert [r["replicate"] for r in result.detail] == [0, 1, 2]
    assert os.getpid() not in {r["pid"] for r in result.detail}


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # replicate 1's linear Q fit on raw features diverges at both step sizes
    fit_q_linear = experiment.fit_q_linear
    bad_seed = derive_seed(0, 0, 0, 1, 2, 0, 0)

    def diverging_once(*args, seed, **kwargs):
        if seed == bad_seed:
            raise adnn.ConvergenceError("diverged")
        return fit_q_linear(*args, seed=seed, **kwargs)

    monkeypatch.setattr(experiment, "fit_q_linear", diverging_once)
    serial = run_experiment(ExperimentConfig(threads=1, **SMALL))
    forked = run_experiment(ExperimentConfig(threads=2, **SMALL))
    assert [(f["replicate"], f["feature_method"]) for f in serial.failures] == [(1, "raw")]
    assert forked.failures == serial.failures
    assert forked.detail == serial.detail
    assert forked.to_csv_text() == serial.to_csv_text()
