"""Command line front end: run experiments, generate data, validate configs."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields as dc_fields

from .experiment import ExperimentConfig, KNOWN_METHODS, run_experiment
from .streams import GaussianStreamSpec, generate_gaussian, save_features

OUT_DIR_ENV = "DRIFTREPLAY_OUT"

_INT_KEYS = {"c_max", "c_min", "b_max", "omega_max", "n_s", "cb_b_max",
             "cb_replay_per_label", "epochs_per_batch", "minibatch_size",
             "n_subconcepts", "dim", "train_per", "test_per", "drift_batches", "jobs"}
_FLOAT_KEYS = {"tau_s", "alpha_r", "beta", "sigma_k", "switch_fraction",
               "learning_rate", "std", "separation"}
_BOOL_KEYS = {"per_centroid_maintenance"}


class UsageError(ValueError):
    pass


def read_kv_file(path) -> dict:
    """Flat key=value text; blank lines and '#' comments are ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
        return values
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _BOOL_KEYS:
        return value.lower() in ("1", "true", "yes")
    if key == "methods":
        return tuple(m.strip() for m in value.split(",") if m.strip())
    if key == "seeds":
        return tuple(int(s) for s in value.split(",") if s.strip())
    if key == "hidden_sizes":
        return tuple(int(h) for h in value.split(",") if h.strip())
    return value


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", help="synthetic or file:PATH")
    p.add_argument("--schedule", choices=["stationary", "drift"])
    p.add_argument("--schedule-file", dest="schedule_file")
    p.add_argument("--methods", help=f"comma list from {','.join(KNOWN_METHODS)}")
    p.add_argument("--seeds", help="comma list of integer seeds")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--config", dest="config_file")
    p.add_argument("--jobs", type=int)
    for key in sorted(_INT_KEYS - {"jobs"}):
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=int)
    for key in sorted(_FLOAT_KEYS):
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    p.add_argument("--per-centroid-maintenance", dest="per_centroid_maintenance",
                   action="store_const", const=True,
                   help="tick one centroid each time its window reaches n_s updates; "
                        "same switch/split/removal rules")
    p.add_argument("--hidden-sizes", dest="hidden_sizes",
                   help="comma list of layer widths")


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit flags."""
    valid = {f.name for f in dc_fields(ExperimentConfig)}
    merged = {}
    if getattr(args, "config_file", None):
        for key, raw in read_kv_file(args.config_file).items():
            if key not in valid:
                raise UsageError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)
    for key in valid:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag) if isinstance(flag, str) else flag
    if "out_dir" not in merged and os.environ.get(OUT_DIR_ENV):
        merged["out_dir"] = os.environ[OUT_DIR_ENV]
    try:
        return ExperimentConfig(**merged)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_run(args) -> int:
    config = parse_config(args)
    return run_experiment(config)


def cmd_validate(args) -> int:
    config = parse_config(args)
    print(f"config OK: {len(config.methods)} methods, {len(config.seeds)} seeds, "
          f"schedule={config.schedule}, out={config.out_dir}")
    return 0


def cmd_gen_data(args) -> int:
    values = read_kv_file(args.spec)
    known = {f.name for f in dc_fields(GaussianStreamSpec)} - {"means"}
    kwargs = {}
    for key, raw in values.items():
        if key not in known:
            raise UsageError(f"unknown dataset spec key {key!r}")
        kwargs[key] = int(raw) if key in ("n_subconcepts", "dim", "train_per",
                                          "test_per", "seed") else float(raw)
    dataset = generate_gaussian(GaussianStreamSpec(**kwargs))
    save_features(dataset, args.out)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
