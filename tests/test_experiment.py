from suffmdp import adnn
from suffmdp.adnn import PipelineConfig
from suffmdp.experiment import ExperimentConfig, run_experiment


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
