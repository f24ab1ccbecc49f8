"""CLI subcommands against golden outputs, and exit codes.

The files under ``tests/golden/`` are the byte-exact outputs of the runs in
``RUNS`` at tiny budgets.  Each run reads its inputs from the golden
directory (``data.csv`` and ``model.json`` come from earlier runs), so a
change in one subcommand fails that subcommand's test only.  To rewrite the
golden files after an intended change of output, run this file directly:

    PYTHONPATH=src python tests/test_cli.py
"""

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from suffmdp import adnn, cli
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
    run_config = dataclasses.replace(
        config_from_jsonable(ExperimentConfig, EXPERIMENT),
        threads=1, output_csv="experiment.csv", output_json="experiment_out.json",
    )
    assert config_from_jsonable(ExperimentConfig, echo) == run_config


def test_experiment_csv_does_not_depend_on_threads(inputs, tmp_path):
    argv = dict((r[0], r[1]) for r in RUNS)["experiment"].replace(
        "--threads 1", "--threads 2")
    assert run(argv, inputs) == 0
    golden = (GOLDEN / "experiment.csv").read_bytes()
    assert (tmp_path / "experiment.csv").read_bytes() == golden


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

    # the deleted FitConfig.tolerance/lam/seed and PipelineConfig.activation
    # are unknown keys like any other
    @pytest.mark.parametrize(
        "section,key,value,owner",
        [("top", "replicatez", 1, "ExperimentConfig"),
         ("pipeline", "replicatez", 1, "PipelineConfig"),
         ("fit", "replicatez", 1, "FitConfig"),
         ("fit", "tolerance", 1e-5, "FitConfig"),
         ("fit", "lam", 0.1, "FitConfig"),
         ("cv_fit", "seed", 3, "FitConfig"),
         ("pipeline", "activation", "sigmoid", "PipelineConfig")],
        ids=["top", "pipeline", "fit", "fit-tolerance", "fit-lam", "cv_fit-seed",
             "pipeline-activation"])
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
         ("col_tol", -0.1, "col_tol must be >= 0")],
        ids=["misspelled-folds", "old-cells-key", "dims-below-one", "max-iterations-zero",
             "grid-cell-string-depth", "grid-cell-zero-width", "tau-dim-above-one",
             "tau-dim-zero", "folds-one", "col-tol-negative"])
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
        [("qlearn-linear", "model.json", lambda m: m.update(activation="arctan"),
          "activation must be 'sigmoid'"),
         ("evaluate", "model.json", lambda m: m.update(activation="arctan"),
          "activation must be 'sigmoid'"),
         ("qlearn-linear", "model.json", lambda m: m.pop("layers"), "no key 'layers'"),
         ("evaluate", "q_nn.json", lambda q: q.pop("nets"), "no key 'nets'")],
        ids=["qlearn-arctan", "evaluate-arctan", "qlearn-no-layers", "evaluate-no-nets"])
    def test_bad_stored_model_gives_1(self, inputs, command, stored, edit, message, capsys):
        payload = json.loads((GOLDEN / stored).read_text())
        edit(payload)
        (inputs / "bad.json").write_text(json.dumps(payload))
        argv = dict((r[0], r[1]) for r in RUNS)[command].replace(
            "{golden}/" + stored, "{in}/bad.json")
        assert run(argv, inputs) == 1
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
    finally:
        shutil.rmtree(scratch)
