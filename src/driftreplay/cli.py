"""Command line front end: run experiments, generate data, validate configs."""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from .experiment import ExperimentConfig, build_inputs, run_experiment
from .streams import (FeatureFileError, GaussianStreamSpec, ScheduleError, generate_gaussian,
                      save_features)

OUT_DIR_ENV = "DRIFTREPLAY_OUT"


class UsageError(ValueError):
    pass


def _comma_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# Field annotation -> parser of its text form. Fields typed otherwise
# (GaussianStreamSpec.means) are not settable from text.
PARSERS = {"int": int, "int | None": int, "float": finite_float, "str": str, "str | None": str,
           "tuple": _comma_list, "bool": _true_or_false}


def field_parsers(cls) -> dict:
    """Parser of each text-settable field of a dataclass, by field name."""
    return {f.name: PARSERS[f.type] for f in fields(cls) if f.type in PARSERS}


def read_kv_file(path, parsers=None) -> dict:
    """Flat key=value text; blank lines and '#' comments are ignored.

    With ``parsers`` (key -> parser), unknown keys are refused and each
    value is parsed; errors name the file and the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if parsers is not None:
            if key not in parsers:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = parsers[key](value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
        values[key] = value
    return values


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", dest="config_file", help="key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--out" if f.name == "out_dir" else "--" + f.name.replace("_", "-")
        how = (dict(action="store_const", const=True) if f.type == "bool"
               else dict(type=PARSERS[f.type]))
        p.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **how)


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged = {}
    if args.config_file:
        merged.update(read_kv_file(args.config_file, field_parsers(ExperimentConfig)))
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    if "out_dir" not in merged and os.environ.get(OUT_DIR_ENV):
        merged["out_dir"] = os.environ[OUT_DIR_ENV]
    try:
        return ExperimentConfig(**merged)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_run(args) -> int:
    return run_experiment(parse_config(args))


def cmd_validate(args) -> int:
    config = parse_config(args)
    build_inputs(config, config.seeds[0])  # loads and checks any input file
    print(f"config OK: {len(config.methods)} methods, {len(config.seeds)} seeds, "
          f"schedule={config.schedule}, out={config.out_dir}")
    return 0


def cmd_gen_data(args) -> int:
    values = read_kv_file(args.spec, field_parsers(GaussianStreamSpec))
    try:
        spec = GaussianStreamSpec(**values)
    except ValueError as exc:
        raise UsageError(f"{args.spec}: {exc}") from exc
    save_features(generate_gaussian(spec), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftreplay",
        description="Streaming continual-learning benchmark with reactive replay memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write reports")
    _add_run_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a configuration without running")
    _add_run_flags(val_p)
    val_p.set_defaults(func=cmd_validate)

    gen_p = sub.add_parser("gen-data", help="generate a synthetic feature file")
    gen_p.add_argument("--spec", required=True, help="key=value dataset spec file")
    gen_p.add_argument("--out", required=True, help="output feature file path")
    gen_p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    """Exit status: 0 done, 1 nothing written, 2 bad input, 3 some cells failed."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FeatureFileError, ScheduleError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
