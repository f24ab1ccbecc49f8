"""The package surface that the benchmark under ``bench/`` calls.

The benchmark's workloads and tracer are loaded from their files, read
only (no bytecode cache is written next to them), so that a change to a
name, option or signature they use fails here and not only in a benchmark
run.  Spans recorded inside the harness's worker processes are not
checked: the tracer does not see into forked workers.
"""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from suffmdp import adnn

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_runs_and_checks_clean(name):
    prepared = workloads.WORKLOADS[name](3, smoke=True)
    result = prepared.call()
    assert prepared.check(result) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runner_smoke_run_exits_clean(name):
    # the benchmark's own command on tiny inputs; --trace 0 writes no file,
    # and no child it starts writes bytecode next to the sources
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", name, "--seed", "1",
         "--smoke", "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize(
    "module,attr,counter",
    [(m, a, c) for m, a, _, c in tracing.WRAP_POINTS],
    ids=[f"{m.rsplit('.', 1)[-1]}.{a}" for m, a, _, _ in tracing.WRAP_POINTS])
def test_wrap_point_resolves_and_binds_its_counter_arguments(module, attr, counter):
    fn = getattr(importlib.import_module(module), attr)
    parameters = inspect.signature(fn).parameters
    read = re.findall(r'args\["(\w+)"\]', inspect.getsource(counter)) if counter else []
    assert set(read) <= set(parameters), f"{module}.{attr} lacks {set(read) - set(parameters)}"


@pytest.mark.parametrize("name", ["screen-p64", "cv-quad-p16"])
def test_full_workload_fit_counters_read_the_schedule(name, monkeypatch):
    # The smoke workloads never select a variable (at B=19 and T=4 the
    # pooled p-value floor is above tau), so they never reach the refits
    # whose iterations the tracer counts from the trace and the schedule.
    configs = []
    construct = adnn.construct_sufficient_features

    def recording(ds, config):
        configs.append(config)
        return construct(ds, config)

    monkeypatch.setattr(adnn, "construct_sufficient_features", recording)
    prepared = workloads.WORKLOADS[name](1)
    with tracing.installed(tracing.Tracer()) as tracer:
        result = prepared.call()
    assert prepared.check(result) == []
    fits = [sp for sp in tracer.spans if sp.name == "adnn.fit"]
    assert fits
    assert [sp.counts["iterations"] for sp in fits] == [configs[0].fit.n_max] * len(fits)


def test_report_built_as_the_bench_self_test_builds_it():
    # bench/test_bench.py::test_p_value_floor_matches_the_pooling_rule builds
    # these by field name and position; that file is outside the tier-1 paths
    from suffmdp.dcov import StratumResult, TestReport

    strata = [StratumResult(t, a, 15, 0.0, 0.001) for t in range(1, 31) for a in (1, 2)]
    report = TestReport(statistic=[], p_value=0.03, strata=strata, pooled_u=2,
                        n_permutations=999)
    assert tracing.p_value_floor(report) == pytest.approx(0.03)
