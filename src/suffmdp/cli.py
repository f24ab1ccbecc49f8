"""Command-line entry points.

Subcommands: ``simulate`` (sample a synthetic dataset to CSV), ``screen``
(variable screening report), ``construct`` (full feature-construction
pipeline), ``qlearn`` (fit a Q approximator over a stored feature map),
``evaluate`` (Monte Carlo policy value in a generative model), and
``experiment`` (the replicated comparison harness).

``construct --grid-file`` reads a `PipelineConfig` JSON object, the same
format as an experiment config's ``pipeline`` section; keys it leaves out
take the config defaults.  ``--tau``, ``--perms`` and ``--seed`` override
the file's ``tau``, ``n_permutations`` and ``seed`` when given.  In an
experiment config, ``pipeline.seed`` must keep its default of 0: each
replicate's pipeline seed derives from ``master_seed`` (``--seed``).
An experiment's output paths are flags only: ``--out-csv`` (else the CSV
goes to stdout) and ``--out-json``; the config file has no key for them.
``qlearn`` and ``evaluate`` read a feature map in the JSON form that
``construct`` writes: ``kind`` is ``network``, the only map kind that is
stored, and ``activation`` is ``sigmoid``.

Exit codes: 0 on success, 1 on validation errors, 2 on unexpected runtime
failures.  Validation errors include bad flags and malformed inputs such as
a config, feature map or Q file that is not a JSON object or has an unknown
or missing key or a value of the wrong JSON kind.  They also include:

- a feature map of a kind other than ``network``;
- a feature map whose ``input_dim`` is not the state width of the data
  (``qlearn``) or of the generative model (``evaluate``);
- stored input indices that are not integers;
- a boolean, NaN or infinity among network weights, biases or linear-Q
  weights (`json` reads the tokens ``NaN`` and ``Infinity``), and a Q
  file's ``gamma`` outside (0, 1);
- a Q approximator whose actions are not the generative model's 1 and 2
  (``evaluate``), and an experiment method listed twice;
- ``qlearn --epochs`` below 1, which would write an untrained Q file;
- a pipeline config (``construct --grid-file`` or an experiment's
  ``pipeline``) with an empty ``grid``, which would fail only after
  screening, or with a grid cell whose penalty is negative or not finite
  (``NaN`` or ``Infinity``, whose fits diverge), a ``col_tol`` that is
  negative or not finite (which would mark no input active), or a ``dims``
  entry that is not a positive integer (``true`` included);
- an experiment config that would train nothing or fail only inside a
  replicate: a count below 1 (``replicates``, a set ``threads``,
  ``n_subjects``, ``horizon``, ``n_rollouts``, ``eval_horizon``,
  ``q_epochs_linear`` or ``q_epochs_nn``), a negative ``master_seed``
  (``--seed``), an empty ``models``,
  ``noise_counts`` or ``feature_methods``, an unknown model or oracle
  variant, a negative noise count, an entry of ``models``,
  ``feature_methods`` or ``q_methods`` that is not a string, and a
  ``noise_counts`` entry that is not an integer (``true`` included).

A ``qlearn`` fit that diverges (non-finite parameters) is a runtime failure:
it exits 2 and writes no Q file.

All randomness flows from the seed (``--seed``, or a config file's);
outputs carry no timestamps, so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from . import experiment as experiment_mod
from .adnn import PipelineConfig, construct_sufficient_features
from .core import (
    config_from_jsonable,
    flatten_transitions,
    format_float,
    load_dataset_csv,
    save_dataset_csv,
)
from .features import feature_map_from_jsonable
from .qlearn import evaluate_policy, fit_q_linear, fit_q_nn, q_approximator_from_jsonable
from .screening import screen
from .simgen import GenerativeModelSpec, sample_trajectories

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="suffmdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="sample a synthetic dataset to CSV")
    p.add_argument("--model", required=True, choices=["linear", "quad", "exp"])
    p.add_argument("--n-noise", type=int, default=0)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--t", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("screen", help="variable screening on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--perms", type=int, default=999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-stratum", type=int, default=5)
    p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="construct a reduced feature map")
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--grid-file", default=None,
                   help="PipelineConfig JSON object; --tau, --perms and --seed override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--perms", type=int, default=None)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-weights", default=None,
                   help="CSV of first-layer input weights for plotting")

    p = sub.add_parser("qlearn", help="fit a Q approximator over a feature map")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="feature map JSON file")
    p.add_argument("--kind", required=True, choices=["linear", "nn"])
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="Monte Carlo policy value")
    p.add_argument("--gen-spec", required=True,
                   help="generative model JSON object: model, n_noise, signal_dim")
    p.add_argument("--model", required=True, help="feature map JSON file")
    p.add_argument("--q", required=True, help="Q approximator JSON file")
    p.add_argument("--rollouts", type=int, default=300)
    p.add_argument("--horizon", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--definition", choices=["per_step_mean", "discounted_sum"],
                   default="per_step_mean")
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="replicated comparison harness")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes that run replicates "
                        "(default: the CPUs this process may use)")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    return parser


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_simulate(args) -> int:
    spec = GenerativeModelSpec(g_kind=args.model, n_noise=args.n_noise)
    ds = sample_trajectories(spec, args.n, args.t, rng=args.seed)
    save_dataset_csv(ds, args.out)
    return 0


def _cmd_screen(args) -> int:
    ds = load_dataset_csv(args.data)
    result = screen(
        ds,
        tau=args.tau,
        n_permutations=args.perms,
        seed=args.seed,
        min_stratum=args.min_stratum,
    )
    _write_json(args.out, result.to_jsonable())
    return 0


def _cmd_construct(args) -> int:
    ds = load_dataset_csv(args.data)
    config = config_from_jsonable(
        PipelineConfig, {} if args.grid_file is None else _load_json(args.grid_file)
    )
    flags = {"tau": args.tau, "n_permutations": args.perms, "seed": args.seed}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    result = construct_sufficient_features(ds, config)
    if args.out_report:
        _write_json(args.out_report, result.to_jsonable())
    if result.feature_map is None:
        print("screening selected no variables; no model written", file=sys.stderr)
        return 0
    _write_json(args.out_model, result.feature_map.to_jsonable())
    if args.out_weights:
        _write_weights_csv(args.out_weights, result)
    return 0


def _write_weights_csv(path: str, result) -> None:
    w1 = result.feature_map.layers[0][0]  # (units, inputs)
    with open(path, "w") as fh:
        units = w1.shape[0]
        fh.write("variable," + ",".join(f"w_{u + 1}" for u in range(units)) + "\n")
        for col, var in enumerate(result.variables):
            weights = ",".join(format_float(w1[u, col]) for u in range(units))
            fh.write(f"{var},{weights}\n")


def _cmd_qlearn(args) -> int:
    ds = load_dataset_csv(args.data)
    fmap = feature_map_from_jsonable(_load_json(args.model))
    transitions = flatten_transitions(ds)
    if args.kind == "linear":
        q = fit_q_linear(transitions, fmap, gamma=args.gamma, epochs=args.epochs,
                         seed=args.seed, n_actions=ds.n_actions)
    else:
        q = fit_q_nn(transitions, fmap, gamma=args.gamma, epochs=args.epochs,
                     seed=args.seed, n_actions=ds.n_actions)
    _write_json(args.out, q.to_jsonable())
    return 0


def _cmd_evaluate(args) -> int:
    spec = GenerativeModelSpec.from_jsonable(_load_json(args.gen_spec))
    fmap = feature_map_from_jsonable(_load_json(args.model))
    q = q_approximator_from_jsonable(_load_json(args.q))
    value = evaluate_policy(
        spec, fmap, q,
        n_rollouts=args.rollouts, horizon=args.horizon,
        seed=args.seed, definition=args.definition,
    )
    _write_json(args.out, dataclasses.asdict(value))
    return 0


def _cmd_experiment(args) -> int:
    cfg = config_from_jsonable(experiment_mod.ExperimentConfig, _load_json(args.config))
    flags = {"threads": args.threads, "replicates": args.replicates, "master_seed": args.seed}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    result = experiment_mod.run_experiment(cfg)
    if args.out_csv:
        with open(args.out_csv, "w") as fh:
            fh.write(result.to_csv_text())
    else:
        print(result.to_csv_text(), end="")
    if args.out_json:
        _write_json(args.out_json, result.to_jsonable())
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "screen": _cmd_screen,
    "construct": _cmd_construct,
    "qlearn": _cmd_qlearn,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"suffmdp {args.command}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"suffmdp {args.command}: unexpected failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
