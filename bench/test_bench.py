"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert len(report["digests"]) == 1
    if trace:
        assert report["traced_run_ref_s"] and report["run_ref_s"]


def test_scaled_time_follows_the_call_and_cancels_the_probe():
    import speed

    assert speed.scale(2.0, speed.REFERENCE_S, speed.REFERENCE_S) == pytest.approx(2.0)
    assert speed.scale(4.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == pytest.approx(2.0)
    assert speed.scale(1.0, 0.1, 0.3) == pytest.approx(speed.REFERENCE_S / 0.2)
    assert speed.probe(2) > 0.0


def _originals():
    return [
        getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.WRAP_POINTS
    ]


def test_wrappers_are_removed_after_the_traced_run():
    before = _originals()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        inside = _originals()
        WORKLOADS["screen-p64"](0, smoke=True).call()
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, _originals()))
    assert any(sp.name == "dcov.pooled_test" for sp in tracer.spans)


def test_wrappers_are_removed_when_the_call_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _originals()))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(workload):
    prepared = WORKLOADS[workload](5, smoke=True)
    untraced = prepared.digest(prepared.call())
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(prepared.top):
        traced = prepared.digest(prepared.call())
    assert traced == untraced
    assert len(tracer.spans) > 1


def test_harness_spans_hang_under_the_root_and_skip_dcov_and_adnn():
    prepared = WORKLOADS["harness-q"](1, smoke=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(prepared.top) as root:
        prepared.call()
    names = {sp.name for sp in tracer.spans}
    assert not any(n.startswith(("dcov.", "adnn.", "screening.")) for n in names)
    assert {"qlearn.fit_linear", "qlearn.fit_nn", "qlearn.evaluate"} <= names
    assert all(sp.parent == root.id for sp in tracer.spans if sp is not root)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracing.Span(1, "root", None, 0, 0.0, 10.0),
        tracing.Span(2, "a", 1, 1, 1.0, 5.0),
        tracing.Span(3, "b", 1, 2, 3.0, 7.0),  # overlaps a on another thread
        tracing.Span(4, "c", 2, 1, 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_p_value_floor_matches_the_pooling_rule():
    from suffmdp.dcov import StratumResult, TestReport

    strata = [StratumResult(t, a, 15, 0.0, 0.001) for t in range(1, 31) for a in (1, 2)]
    report = TestReport(statistic=[], p_value=0.03, strata=strata, pooled_u=2,
                        n_permutations=999)
    assert tracing.p_value_floor(report) == pytest.approx(0.03)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "harness-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
