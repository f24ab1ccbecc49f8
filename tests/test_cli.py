"""CLI subcommands against golden outputs, and exit codes.

The files under ``tests/golden/`` are the byte-exact outputs of the runs in
``RUNS`` at tiny budgets.  Each run reads its inputs from the golden
directory (``data.csv`` and ``model.json`` come from earlier runs), so a
change in one subcommand fails that subcommand's test only.  To rewrite the
golden files after an intended change of output, run this file directly:

    PYTHONPATH=src python tests/test_cli.py

When the CPU has the AVX2 feature set, the script then runs every run again
under numpy limited to AVX2 kernels and prints, per golden file, how many
of its numbers differ from the recorded ones and by how many ulps at most,
so that a re-recording shows at once which files depend on numpy's SIMD
dispatch.
"""

import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from suffmdp import adnn, cli, experiment
from suffmdp.adnn import FitConfig, PipelineConfig
from suffmdp.core import config_from_jsonable
from suffmdp.experiment import ExperimentConfig

GOLDEN = Path(__file__).parent / "golden"

GRID = {"grid": [[2, 1, 0.01]], "dims": [1], "folds": 2,
        "fit": {"n_max": 20, "check_every": 5}}
GEN_SPEC = {"model": "linear", "n_noise": 0}
EXPERIMENT = {
    "models": ["linear"], "n_subjects": 20, "horizon": 4, "replicates": 2,
    "feature_methods": ["raw", "oracle", "adnn", "tnn", "pca"],
    "q_methods": ["linear", "nn"], "n_rollouts": 5, "eval_horizon": 4,
    "q_epochs_linear": 2, "q_epochs_nn": 1, "master_seed": 7,
    "pipeline": {
        "grid": [[2, 1, 0.01]], "dims": [1], "folds": 2, "n_permutations": 99,
        "screen_n_max": 1, "fit": {"n_max": 20, "check_every": 5},
        "cv_fit": {"n_max": 5},
    },
}
INPUTS = {"grid.json": GRID, "gen.json": GEN_SPEC, "experiment.json": EXPERIMENT}

# (name, argv, golden files written).  {in} is the directory holding the
# inputs above and {golden} the golden directory; outputs go to the working
# directory, so that no path of the test run reaches the experiment's JSON.
RUNS = [
    ("simulate",
     "simulate --model linear --n 20 --t 4 --seed 1 --out data.csv",
     ["data.csv"]),
    ("screen",
     "screen --data {golden}/data.csv --perms 99 --seed 2 --out screen.json",
     ["screen.json"]),
    ("construct",
     "construct --data {golden}/data.csv --grid-file {in}/grid.json --perms 99 "
     "--seed 3 --out-model model.json --out-report report.json "
     "--out-weights weights.csv",
     ["model.json", "report.json", "weights.csv"]),
    ("qlearn-linear",
     "qlearn --data {golden}/data.csv --model {golden}/model.json --kind linear "
     "--epochs 2 --seed 4 --out q_linear.json",
     ["q_linear.json"]),
    ("qlearn-nn",
     "qlearn --data {golden}/data.csv --model {golden}/model.json --kind nn "
     "--epochs 2 --seed 5 --out q_nn.json",
     ["q_nn.json"]),
    ("evaluate",
     "evaluate --gen-spec {in}/gen.json --model {golden}/model.json "
     "--q {golden}/q_nn.json --rollouts 5 --horizon 4 --seed 6 --out value.json",
     ["value.json"]),
    ("experiment",
     "experiment --config {in}/experiment.json --threads 1 "
     "--out-csv experiment.csv --out-json experiment_out.json",
     ["experiment.csv", "experiment_out.json"]),
]


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def _q_linear_with_nan_weights() -> dict:
    q = json.loads((GOLDEN / "q_linear.json").read_text())
    q["weights"]["1"] = [float("nan")] * len(q["weights"]["1"])
    return q


def _with_infinite_first_weight(model: dict) -> dict:
    layer = model["layers"][0]
    weights = [list(row) for row in layer["weights"]]
    weights[0][0] = float("inf")
    return dict(model, layers=[dict(layer, weights=weights)] + model["layers"][1:])


def write_inputs(directory: Path) -> None:
    for name, payload in INPUTS.items():
        (directory / name).write_text(json.dumps(payload))


def run(argv: str, inp: Path) -> int:
    return cli.main(argv.format(**{"in": inp, "golden": GOLDEN}).split())


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    directory = tmp_path / "in"
    directory.mkdir()
    write_inputs(directory)
    monkeypatch.chdir(tmp_path)
    return directory


@pytest.mark.parametrize("name,argv,files", RUNS, ids=[r[0] for r in RUNS])
def test_output_matches_golden(name, argv, files, inputs, tmp_path):
    assert run(argv, inputs) == 0
    for f in files:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


# numpy's x86 SIMD dispatch limited to AVX2 (no AVX-512 kernels)
AVX2_ONLY = "SSE,SSE2,SSE3,SSSE3,SSE41,POPCNT,SSE42,AVX,F16C,FMA3,AVX2"


def _cpu_has(features: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f, False) for f in features.split(","))


@pytest.mark.skipif(not _cpu_has(AVX2_ONLY), reason="the CPU lacks the AVX2-only feature set")
@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 9: numpy's AVX2 np.exp rounds some sigmoid inputs "
               "differently from its AVX-512 kernel")) if name == "qlearn-nn" else name
     for name, _, _ in RUNS])
def test_golden_fit_under_avx2_only_numpy(name, inputs, tmp_path):
    # every golden file, reproduced by numpy limited to AVX2 kernels
    argv, files = next((a, f) for n, a, f in RUNS if n == name)
    run_avx2_only(argv, inputs, tmp_path)
    for f in files:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


def run_avx2_only(argv: str, inp: Path, cwd: Path) -> None:
    """Run a CLI command line in ``cwd`` under numpy limited to AVX2 kernels;
    the setting applies at numpy's import, hence the subprocess."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=AVX2_ONLY,
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    subprocess.run([sys.executable, "-m", "suffmdp.cli",
                    *argv.format(**{"in": inp, "golden": GOLDEN}).split()],
                   cwd=cwd, env=env, check=True)


# a number standing alone, not the digits of a name such as s_1
NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?![\w.])")


def _ordered(x: float) -> int:
    """``x``'s place in the order of doubles, so that neighbours are 1 apart."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def number_drift(recorded: str, other: str) -> str:
    """How the numbers of ``other`` differ from those of ``recorded``: a
    count and the largest ulp distance, or a note that the text around the
    numbers differs."""
    parts, other_parts = NUMBER.split(recorded), NUMBER.split(other)
    if len(parts) != len(other_parts) or parts[::2] != other_parts[::2]:
        return "differs outside its numbers"
    pairs = [(float(a), float(b)) for a, b in zip(parts[1::2], other_parts[1::2])]
    ulps = [abs(_ordered(a) - _ordered(b)) for a, b in pairs if a != b]
    if not ulps:
        return f"all {len(pairs)} numbers equal"
    return f"{len(ulps)} of {len(pairs)} numbers differ, by at most {max(ulps)} ulp"


def report_avx2_drift(inp: Path) -> None:
    """Print, per golden file, how its AVX2-only rerun differs from it."""
    with tempfile.TemporaryDirectory() as work:
        for name, argv, files in RUNS:
            run_avx2_only(argv, inp, Path(work))
            for f in files:
                drift = number_drift((GOLDEN / f).read_text(), (Path(work) / f).read_text())
                print(f"AVX2-only {name}: {f}: {drift}")


CONSTRUCT = dict((r[0], r[1]) for r in RUNS)["construct"]
# the construct run's grid file and flags as one whole PipelineConfig
GOLDEN_PIPELINE = PipelineConfig(
    grid=((2, 1, 0.01),), dims=(1,), folds=2, fit=FitConfig(n_max=20, check_every=5),
    n_permutations=99, seed=3,
)


@pytest.mark.parametrize(
    "file_values,flags",
    [({}, ""), ({"n_permutations": 19, "seed": 8, "tau": 0.5}, "--perms 99 --seed 3 --tau 0.1")],
    ids=["file-only", "flags-override-file"])
def test_grid_file_is_a_whole_pipeline_config(inputs, tmp_path, file_values, flags):
    # every field of the config, as an experiment's pipeline section would hold it
    config = dataclasses.replace(GOLDEN_PIPELINE, **file_values)
    (inputs / "pipeline.json").write_text(json.dumps(dataclasses.asdict(config)))
    argv = ("construct --data {golden}/data.csv --grid-file {in}/pipeline.json "
            f"{flags} --out-model model.json --out-report report.json")
    assert run(argv, inputs) == 0
    for f in ("model.json", "report.json"):
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


def test_experiment_config_echo_loads_back():
    # the golden experiment_out.json is the experiment run's output byte for byte
    echo = json.loads((GOLDEN / "experiment_out.json").read_text())["config"]
    run_config = dataclasses.replace(config_from_jsonable(ExperimentConfig, EXPERIMENT), threads=1)
    assert config_from_jsonable(ExperimentConfig, echo) == run_config


def test_experiment_csv_does_not_depend_on_threads(inputs, tmp_path):
    argv = dict((r[0], r[1]) for r in RUNS)["experiment"].replace(
        "--threads 1", "--threads 2")
    assert run(argv, inputs) == 0
    golden = (GOLDEN / "experiment.csv").read_bytes()
    assert (tmp_path / "experiment.csv").read_bytes() == golden


def test_construct_that_selects_nothing_writes_only_the_report(inputs, tmp_path, capsys):
    # a constant utility is independent of the state, so screening selects
    # nothing whatever the permutation count
    rows = (GOLDEN / "data.csv").read_text().splitlines()
    fields = [row.split(",") for row in rows]
    for f in fields[1:]:
        f[3] = f[3] and "1.5"
    (tmp_path / "constant.csv").write_text("".join(",".join(f) + "\n" for f in fields))
    argv = "construct --data constant.csv --perms 99 --out-model model.json"
    assert run(argv, inputs) == 0
    out, err = capsys.readouterr()
    assert out == "" and "screening selected no variables" in err
    assert not (tmp_path / "model.json").exists()

    assert run(argv + " --out-report report.json", inputs) == 0
    assert capsys.readouterr().out == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["flags"] == ["utility-independent-of-state"]
    assert report["variables"] == [] and report["feature_map"] is None
    assert not (tmp_path / "model.json").exists()


class TestExitCodes:
    def test_bad_flag_gives_1(self, inputs):
        assert run("screen --data {golden}/data.csv --perms many", inputs) == 1
        assert run("screen --data {golden}/data.csv --no-such-flag", inputs) == 1

    def test_malformed_csv_gives_1(self, inputs, tmp_path):
        (tmp_path / "bad.csv").write_text("id,t,a,u,s_1\n1,1,1,oops,0.1\n1,2,,,0.2\n")
        assert run("screen --data bad.csv", inputs) == 1
        (tmp_path / "header.csv").write_text("id,t,a,u,s_1\n")
        assert run("screen --data header.csv", inputs) == 1

    def test_missing_file_gives_1(self, inputs):
        assert run("screen --data absent.csv", inputs) == 1

    # the deleted FitConfig.tolerance/lam/seed, PipelineConfig.activation and
    # ExperimentConfig.gamma/output_csv are unknown keys like any other
    @pytest.mark.parametrize(
        "section,key,value,owner",
        [("top", "replicatez", 1, "ExperimentConfig"),
         ("top", "gamma", 0.9, "ExperimentConfig"),
         ("top", "output_csv", "experiment.csv", "ExperimentConfig"),
         ("pipeline", "replicatez", 1, "PipelineConfig"),
         ("fit", "replicatez", 1, "FitConfig"),
         ("fit", "tolerance", 1e-5, "FitConfig"),
         ("fit", "lam", 0.1, "FitConfig"),
         ("cv_fit", "seed", 3, "FitConfig"),
         ("pipeline", "activation", "sigmoid", "PipelineConfig")],
        ids=["top", "experiment-gamma", "experiment-output_csv", "pipeline", "fit",
             "fit-tolerance", "fit-lam", "cv_fit-seed", "pipeline-activation"])
    def test_misspelled_config_key_gives_1(self, inputs, section, key, value, owner, capsys):
        config = json.loads(json.dumps(EXPERIMENT))
        target = {"top": config, "pipeline": config["pipeline"],
                  "fit": config["pipeline"]["fit"],
                  "cv_fit": config["pipeline"]["cv_fit"]}[section]
        target[key] = value
        (inputs / "bad.json").write_text(json.dumps(config))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and owner in err

    @pytest.mark.parametrize(
        "pipeline,key",
        [(None, "'pipeline'"), ({"fit": None}, "'fit'"), ({"fit": 5}, "'fit'"),
         ({"cv_fit": 5}, "'cv_fit'")],
        ids=["pipeline-null", "fit-null", "fit-number", "optional-cv-fit-number"])
    def test_non_object_nested_config_gives_1(self, inputs, pipeline, key, capsys):
        config = dict(EXPERIMENT, pipeline=pipeline)
        (inputs / "bad.json").write_text(json.dumps(config))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,name",
        [(dict(EXPERIMENT, pipeline=dict(EXPERIMENT["pipeline"], folds="2")), "'folds'"),
         ([], "ExperimentConfig")],
        ids=["int-field-string", "top-level-list"])
    def test_wrong_json_kind_gives_1(self, inputs, config, name, capsys):
        (inputs / "bad.json").write_text(json.dumps(config))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [("fold", 3, "unknown key 'fold' for PipelineConfig"),
         ("cells", [[2, 1, 0.01]], "unknown key 'cells' for PipelineConfig"),
         ("dims", [0, 1], "dims must be nonempty ascending positive integers"),
         ("max_iterations", 0, "max_iterations must be >= 1"),
         ("grid", [[2, "1", 0.01]], "grid cell width and depth must be positive integers"),
         ("grid", [[0, 1, 0.01]], "grid cell width and depth must be positive integers"),
         ("tau_dim", 1.5, "tau_dim must be in (0, 1)"),
         ("tau_dim", 0, "tau_dim must be in (0, 1)"),
         ("folds", 1, "folds must be >= 2"),
         ("col_tol", -0.1, "col_tol must be >= 0"),
         ("tau", 1, "tau must be in (0, 1)"),
         ("min_stratum", 1, "min_stratum must be >= 2"),
         ("screen_n_max", 0, "screen_n_max must be >= 1 or None"),
         # beta 0 once stopped the fit with ZeroDivisionError (exit 2), and
         # alpha0 -0.1 trained uphill and exited 0
         ("fit", {"n_max": 20, "beta": 0}, "beta must be > 0"),
         ("fit", {"n_max": 20, "beta": -5}, "beta must be > 0"),
         ("fit", {"n_max": 20, "alpha0": -0.1}, "alpha0 must be finite and > 0"),
         ("cv_fit", {"alpha0": 0}, "alpha0 must be finite and > 0")],
        ids=["misspelled-folds", "old-cells-key", "dims-below-one", "max-iterations-zero",
             "grid-cell-string-depth", "grid-cell-zero-width", "tau-dim-above-one",
             "tau-dim-zero", "folds-one", "col-tol-negative", "tau-one", "min-stratum-one",
             "screen-n-max-zero", "fit-beta-zero", "fit-beta-negative",
             "fit-alpha0-negative", "cv-fit-alpha0-zero"])
    def test_bad_grid_file_gives_1(self, inputs, key, value, message, capsys, monkeypatch):
        def no_screening(*args, **kwargs):
            raise AssertionError("screening ran on a bad grid file")

        monkeypatch.setattr(adnn, "screen", no_screening)
        (inputs / "bad.json").write_text(json.dumps(dict(GRID, **{key: value})))
        argv = CONSTRUCT.replace("{in}/grid.json", "{in}/bad.json")
        assert run(argv, inputs) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,key",
        [({"model": "linear", "noise": 9}, "'noise'"),
         ({"model": "linear", "n_noise": 2.7}, "'n_noise'")],
        ids=["misspelled-n-noise", "float-n-noise"])
    def test_bad_gen_spec_gives_1(self, inputs, spec, key, capsys):
        (inputs / "bad.json").write_text(json.dumps(spec))
        argv = dict((r[0], r[1]) for r in RUNS)["evaluate"].replace(
            "{in}/gen.json", "{in}/bad.json")
        assert run(argv, inputs) == 1
        assert key in capsys.readouterr().err

    def test_pipeline_seed_in_experiment_gives_1(self, inputs, capsys):
        # each replicate's pipeline seed derives from master_seed
        config = dict(EXPERIMENT, pipeline=dict(EXPERIMENT["pipeline"], seed=12345))
        (inputs / "bad.json").write_text(json.dumps(config))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,stored,edit,message",
        [("qlearn-linear", "model.json", lambda m: dict(m, activation="arctan"),
          "activation must be 'sigmoid'"),
         ("evaluate", "model.json", lambda m: dict(m, activation="arctan"),
          "activation must be 'sigmoid'"),
         ("qlearn-linear", "model.json", lambda m: _without(m, "layers"), "no key 'layers'"),
         ("evaluate", "q_nn.json", lambda q: _without(q, "nets"), "no key 'nets'"),
         ("qlearn-linear", "model.json", lambda m: [m], "feature map must be a JSON object"),
         ("qlearn-linear", "model.json", lambda m: dict(m, layers=5),
          "key 'layers' of network feature map must be of type tuple"),
         ("qlearn-linear", "model.json",
          lambda m: dict(m, layers=[dict(m["layers"][0], weights=5)]),
          "key 'weights' of network layer must be of type tuple"),
         ("qlearn-linear", "model.json", lambda m: dict(m, layers=[5]),
          "network layer must be a JSON object"),
         ("evaluate", "model.json", lambda m: {"kind": "concat", "parts": [m, 5]},
          "unknown feature map kind 'concat'"),
         ("evaluate", "q_nn.json", lambda q: [q], "Q approximator must be a JSON object"),
         ("evaluate", "q_nn.json", lambda q: dict(q, nets=5),
          "key 'nets' of neural Q approximator must be of type dict"),
         ("evaluate", "q_nn.json", lambda q: dict(q, nets={**q["nets"], "1": 5}),
          "key '1' of neural Q approximator nets must be of type tuple"),
         ("qlearn-linear", "model.json",
          lambda m: dict(m, input_indices=m["input_indices"][:-1] + [99]), "outside 0..63"),
         ("qlearn-linear", "model.json",
          lambda m: dict(m, input_indices=m["input_indices"][:-1] + [-1]), "outside 0..63"),
         ("qlearn-linear", "model.json",
          lambda m: dict(m, layers=[dict(m["layers"][0], weights=[[{}]])]),
          "network layer weights must hold numbers only"),
         ("qlearn-linear", "model.json",
          lambda m: dict(m, input_indices=m["input_indices"][:-1] + [{}]),
          "input_indices must be integers"),
         # int() would read 59.7 as column 59
         ("qlearn-linear", "model.json",
          lambda m: dict(m, input_indices=m["input_indices"][:-1] + [59.7]),
          "input_indices must be integers"),
         # numpy would read each true as 1.0
         ("qlearn-linear", "model.json",
          lambda m: dict(m, layers=[dict(m["layers"][0],
                                         weights=[m["layers"][0]["weights"][0][:-1] + [True]])]),
          "network layer weights must hold numbers only"),
         ("evaluate", "q_nn.json",
          lambda q: {"kind": "linear", "gamma": q["gamma"], "weights": {"1": [0.5, True]}},
          "linear Q weights must hold numbers only"),
         # the generative model's actions are 1 and 2; others gave a NaN value
         ("evaluate", "q_nn.json", lambda q: dict(q, nets={**q["nets"], "3": q["nets"]["1"]}),
          "actions [1, 2, 3] are not the generative model's [1, 2]"),
         ("evaluate", "q_nn.json",
          lambda q: dict(q, nets={"0": q["nets"]["1"], "1": q["nets"]["2"]}),
          "actions [0, 1] are not the generative model's [1, 2]"),
         # json.load reads NaN and Infinity; these gave a finite value or fit and exit 0
         ("evaluate", "q_nn.json", lambda q: _q_linear_with_nan_weights(),
          "linear Q weights must be finite"),
         ("evaluate", "q_nn.json", lambda q: dict(q, gamma=float("nan")),
          "neural Q approximator gamma must be in (0, 1), got nan"),
         ("qlearn-linear", "model.json", _with_infinite_first_weight,
          "network layer weights must be finite")],
        ids=["qlearn-arctan", "evaluate-arctan", "qlearn-no-layers", "evaluate-no-nets",
             "qlearn-model-list", "qlearn-layers-number", "qlearn-layer-weights-number",
             "qlearn-layer-number", "evaluate-concat-part-number", "evaluate-q-list",
             "evaluate-nets-number", "evaluate-action-net-number", "qlearn-index-99",
             "qlearn-index-negative", "qlearn-layer-weights-object", "qlearn-index-object",
             "qlearn-index-float", "qlearn-layer-weights-bool", "evaluate-linear-q-weights-bool",
             "evaluate-q-actions-1-3", "evaluate-q-actions-0-1", "evaluate-linear-q-nan",
             "evaluate-q-gamma-nan", "qlearn-layer-weight-infinity"])
    def test_bad_stored_model_gives_1(self, inputs, command, stored, edit, message, capsys):
        payload = edit(json.loads((GOLDEN / stored).read_text()))
        (inputs / "bad.json").write_text(json.dumps(payload))
        argv = dict((r[0], r[1]) for r in RUNS)[command].replace(
            "{golden}/" + stored, "{in}/bad.json")
        assert run(argv, inputs) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,methods,message",
        [("feature_methods", ["raw", "RAW", "pca"], "feature method 'raw' is listed twice"),
         ("q_methods", ["linear", "linear"], "Q method 'linear' is listed twice")],
        ids=["feature", "q"])
    def test_duplicate_method_gives_1(self, inputs, key, methods, message, capsys):
        (inputs / "bad.json").write_text(json.dumps(dict(EXPERIMENT, **{key: methods})))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert message in capsys.readouterr().err

    def test_map_of_another_state_width_gives_1(self, inputs, tmp_path, capsys):
        # the stored map reads 64 state columns
        rows = (GOLDEN / "data.csv").read_text().splitlines()
        cut = "".join(",".join(row.split(",")[:4 + 10]) + "\n" for row in rows)
        (tmp_path / "narrow.csv").write_text(cut)
        argv = dict((r[0], r[1]) for r in RUNS)["qlearn-linear"].replace(
            "{golden}/data.csv", "narrow.csv")
        assert run(argv, inputs) == 1
        assert "states of 64 columns, got 10" in capsys.readouterr().err

        (inputs / "narrow.json").write_text(json.dumps(dict(GEN_SPEC, signal_dim=16)))
        argv = dict((r[0], r[1]) for r in RUNS)["evaluate"].replace(
            "{in}/gen.json", "{in}/narrow.json")
        assert run(argv, inputs) == 1
        assert "states of 64 columns, got 16" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,message",
        [("--replicates 0", "replicates must be >= 1"),
         ("--replicates -2", "replicates must be >= 1"),
         ("--threads 0", "threads must be >= 1"),
         ("--threads -3", "threads must be >= 1")],
        ids=["replicates-zero", "replicates-negative", "threads-zero", "threads-negative"])
    def test_experiment_count_below_one_gives_1(self, inputs, flag, message, capsys,
                                                monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        assert run(f"experiment --config {{in}}/experiment.json {flag}", inputs) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [("models", [], "models must be nonempty"),
         ("q_epochs_linear", 0, "q_epochs_linear must be >= 1"),
         ("models", ["cubic"], "unknown g kind 'cubic'")],
        ids=["no-models", "linear-epochs-zero", "unknown-model"])
    def test_experiment_config_that_trains_nothing_gives_1(self, inputs, key, value, message,
                                                          capsys, monkeypatch):
        # these exited 0 with a header-only table or an untrained Q's value,
        # and an unknown model failed only once its replicate ran
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        (inputs / "bad.json").write_text(json.dumps(dict(EXPERIMENT, **{key: value})))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["linear", "nn"])
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_qlearn_epochs_below_one_gives_1(self, inputs, tmp_path, kind, epochs, capsys):
        # this wrote an untrained Q file and exited 0
        argv = dict((r[0], r[1]) for r in RUNS)["qlearn-linear"].replace(
            "--kind linear --epochs 2", f"--kind {kind} --epochs {epochs}")
        assert run(argv, inputs) == 1
        assert f"epochs must be >= 1, got {epochs}" in capsys.readouterr().err
        assert not (tmp_path / "q_linear.json").exists()

    @pytest.mark.parametrize(
        "pipeline,message",
        [({"n_permutations": 0}, "n_permutations must be >= 1"),
         ({"tau": 1.5}, "tau must be in (0, 1)"),
         ({"fit": {"n_max": 20, "beta": 0}}, "beta must be > 0"),
         ({"cv_fit": {"n_max": 5, "alpha0": -0.1}}, "alpha0 must be finite and > 0")],
        ids=["perms-zero", "tau-above-one", "fit-beta-zero", "cv-fit-alpha0-negative"])
    def test_bad_pipeline_in_experiment_gives_1_before_any_work(self, inputs, pipeline,
                                                                message, capsys, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        config = dict(EXPERIMENT, pipeline=dict(EXPERIMENT["pipeline"], **pipeline))
        (inputs / "bad.json").write_text(json.dumps(config))
        assert run("experiment --config {in}/bad.json", inputs) == 1
        assert message in capsys.readouterr().err

    def test_runtime_failure_gives_2(self, inputs, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "screen", broken)
        assert run("screen --data {golden}/data.csv", inputs) == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    scratch = GOLDEN / "_inputs"
    scratch.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    try:
        write_inputs(scratch)
        for name, argv, _ in RUNS:
            if run(argv, scratch) != 0:
                sys.exit(f"{name} failed")
        if _cpu_has(AVX2_ONLY):
            report_avx2_drift(scratch)
        else:
            print("the CPU lacks the AVX2-only feature set; no AVX2-only rerun")
    finally:
        shutil.rmtree(scratch)
