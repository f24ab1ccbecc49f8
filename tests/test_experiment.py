import os

import pytest

from suffmdp import adnn
from suffmdp.adnn import FitConfig, PipelineConfig
from suffmdp.experiment import ExperimentConfig, resolve_threads, run_experiment


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


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3


def test_default_threads_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_threads(None) == 8
