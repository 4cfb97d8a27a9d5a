"""Command line front end: run experiments, generate data, validate configs."""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from .experiment import ExperimentConfig, build_inputs, run_experiment
from .streams import (FeatureFileError, FeatureRangeError, GaussianStreamSpec, ScheduleError,
                      generate_gaussian, input_lines, save_features)

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


# Field annotation -> parser of its text form.
PARSERS = {"int": int, "int | None": int, "float": finite_float, "str": str, "str | None": str,
           "tuple": _comma_list, "bool": _true_or_false}


def field_parsers(cls) -> dict:
    """Parser of each field of a dataclass, by field name."""
    return {f.name: PARSERS[f.type] for f in fields(cls)}


def read_kv_entries(path, parsers: dict) -> list:
    """``(at, key, value)`` of each ``key=value`` line of a config or spec
    file, in file order, where ``at`` is the line's ``<path>: line <N>:``
    and ``value`` is parsed by ``parsers[key]``. A line without ``=``, an
    unknown key or a value its parser refuses is an error naming the line."""
    entries = []
    for at, line in input_lines(path, UsageError):
        if "=" not in line:
            raise UsageError(f"{at} expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise UsageError(f"{at} unknown key {key!r}")
        try:
            entries.append((at, key, parsers[key](value)))
        except ValueError as exc:
            raise UsageError(f"{at} {key}: {exc}") from exc
    return entries


def _refused_line(cls, entries, fixed) -> UsageError | None:
    """The error of the file line from which ``cls`` refuses the file's
    values, applied in file order over ``fixed`` (the values no file line
    can change, such as flags); None if ``fixed`` alone is refused or the
    file's values are taken.

    A value refused only together with lines before it (``c_min=20`` under
    the default ``c_max=10``) is blamed on the line that makes the refusal
    stick, and a later line that cures it clears the blame.
    """
    try:
        cls(**fixed)
    except ValueError:
        return None
    applied, error = dict(fixed), None
    for at, key, value in entries:
        if key in fixed:
            continue
        applied[key] = value
        try:
            cls(**applied)
            error = None
        except ValueError as exc:
            # a refusal that already starts with the key names it once
            error = error or UsageError(f"{at} {key}: {str(exc).removeprefix(key + ' ')}")
    return error


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", dest="config_file", help="key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--out" if f.name == "out_dir" else "--" + f.name.replace("_", "-")
        how = (dict(action="store_const", const=True) if f.type == "bool"
               else dict(type=PARSERS[f.type]))
        p.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **how)


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit flags.

    A refusal a config-file line causes under the flags names its file and
    line; a refusal the flags cause on their own keeps its plain message.
    """
    entries = []
    if args.config_file:
        entries = read_kv_entries(args.config_file, field_parsers(ExperimentConfig))
    from_file = {key: value for _, key, value in entries}
    # flags, and the environment's out_dir where neither file nor flag sets one
    fixed = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name) is not None}
    if "out_dir" not in from_file and "out_dir" not in fixed and os.environ.get(OUT_DIR_ENV):
        fixed["out_dir"] = os.environ[OUT_DIR_ENV]
    try:
        return ExperimentConfig(**{**from_file, **fixed})
    except ValueError as exc:
        raise (_refused_line(ExperimentConfig, entries, fixed)
               or UsageError(str(exc))) from exc


def cmd_run(args) -> int:
    return run_experiment(parse_config(args))


def cmd_validate(args) -> int:
    config = parse_config(args)
    for seed in config.seeds:  # loads and checks any input file and each seed's data
        build_inputs(config, seed)
    print(f"config OK: {len(config.methods)} methods, {len(config.seeds)} seeds, "
          f"schedule={config.schedule}, out={config.out_dir}")
    return 0


def cmd_gen_data(args) -> int:
    entries = read_kv_entries(args.spec, field_parsers(GaussianStreamSpec))
    try:
        spec = GaussianStreamSpec(**{key: value for _, key, value in entries})
    except ValueError as exc:
        raise (_refused_line(GaussianStreamSpec, entries, {})
               or UsageError(f"{args.spec}: {exc}")) from exc
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
    except (UsageError, FeatureFileError, FeatureRangeError, ScheduleError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
