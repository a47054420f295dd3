"""Command-line entry point: run registered experiments, list the registry.

Config comes from an optional YAML spec file; command-line flags override
file values, and --set key=value overrides individual experiment
parameters. The default output directory can be set through the
SPARSEKIT_OUT environment variable.
"""

import argparse
import json
import os
import sys

import yaml

from .experiments import ExperimentSpec, list_experiments, run_experiment


def _parse_override(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    return key, yaml.safe_load(raw)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsekit",
        description="sparse signal processing experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a registered experiment")
    runp.add_argument("experiment", nargs="?", help="experiment id (or set it in --spec)")
    runp.add_argument("--spec", help="YAML spec file with experiment/seed/trials/params")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="KEY=VALUE", help="override an experiment parameter",
    )

    sub.add_parser("list", help="list registered experiments")
    return parser


def _load_spec_file(path):
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"spec file {path} must hold a mapping")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"spec file {path}: seed must be an integer, got {seed!r}")
    if not isinstance(data.get("params", {}), dict):
        raise ValueError(f"spec file {path}: params must be a mapping, got {data['params']!r}")
    return data


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for entry in list_experiments():
            print(f"{entry['id']:8s} {entry['description']}")
            print(f"{'':8s} trials={entry['trials']} defaults={entry['defaults']}")
        return 0

    try:
        file_spec = _load_spec_file(args.spec) if args.spec else {}
        experiment = args.experiment or file_spec.get("experiment")
        if not experiment:
            parser.error("give an experiment id or a --spec file naming one")
        seed = args.seed if args.seed is not None else file_spec.get("seed", 0)
        trials = args.trials if args.trials is not None else file_spec.get("trials")
        out_dir = args.out or file_spec.get("out") or os.environ.get("SPARSEKIT_OUT", ".")
        overrides = dict(file_spec.get("params", {}))
        overrides.update(dict(args.overrides))
        manifest = run_experiment(
            ExperimentSpec(
                experiment_id=experiment, seed=seed, trials=trials,
                out_dir=out_dir, overrides=overrides,
            )
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"experiment": manifest.experiment_id,
                      "outputs": manifest.outputs}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
