"""Unit tests for the command line front end."""
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import driftreplay.cli as cli
import driftreplay.experiment as exp
from driftreplay.cli import (OUT_DIR_ENV, build_parser, field_parsers, main, parse_config,
                             read_kv_entries)
from driftreplay.experiment import ExperimentConfig
from driftreplay.memory import RsbConfig
from driftreplay.streams import GaussianStreamSpec, load_features


def parse_run(argv):
    args = build_parser().parse_args(["run", *argv])
    return parse_config(args)


FAST = ["--n-subconcepts", "2", "--dim", "4", "--train-per", "60",
        "--test-per", "20", "--hidden-sizes", "8", "--epochs-per-batch", "2",
        "--methods", "rsb", "--seeds", "7"]


# ----------------------------------------------------------------- parsing

def test_defaults_match_published_settings():
    config = parse_run([])
    assert config.c_max == 10
    assert config.spec(RsbConfig).c_min == 5
    assert config.b_max == 100
    assert config.omega_max == 100
    assert config.n_s == 1000
    assert config.tau_s == 0.5
    assert config.alpha_r == 0.4
    assert config.beta == 4.0
    assert config.schedule == "stationary"
    assert config.methods == ("rsb", "sb", "cb0", "cb1", "nn", "offline")


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment settings\ntau_s=0.5\nbeta=2.0\n")
    config = parse_run(["--config", str(cfg), "--tau-s", "0.2"])
    assert config.tau_s == 0.2   # flag wins
    assert config.beta == 2.0    # file value survives


def test_invalid_centroid_bounds_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--c-min", "20", "--c-max", "10"])
    assert exc.value.code == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau_sigma=0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2


def test_malformed_config_line_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau_s 0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", str(cfg)])
    assert exc.value.code == 2


def test_kv_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\n\nalpha_r = 0.3\nmethods=rsb,nn\n")
    assert read_kv_entries(cfg, field_parsers(ExperimentConfig)) == [
        (f"{cfg}: line 3:", "alpha_r", 0.3), (f"{cfg}: line 4:", "methods", ("rsb", "nn"))]


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTREPLAY_OUT", str(tmp_path / "envout"))
    config = parse_run([])
    assert config.out_dir == str(tmp_path / "envout")
    config = parse_run(["--out", str(tmp_path / "flagout")])
    assert config.out_dir == str(tmp_path / "flagout")


def test_validate_subcommand(capsys):
    assert main(["validate", "--methods", "rsb,nn", "--seeds", "1,2"]) == 0
    assert "2 methods" in capsys.readouterr().out


# ----------------------------------------------------------------- gen-data

def test_gen_data_writes_loadable_features(tmp_path):
    spec = tmp_path / "data.cfg"
    spec.write_text("n_subconcepts=2\ndim=3\ntrain_per=15\ntest_per=5\nseed=4\n")
    out = tmp_path / "features.txt"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
    data = load_features(out)
    assert data.dim == 3
    assert len(data.train(0)) == 15
    assert len(data.test(1)) == 5


def test_gen_data_rejects_unknown_key(tmp_path):
    spec = tmp_path / "data.cfg"
    spec.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_gen_data_rejects_a_negative_seed(tmp_path, capsys):
    spec = tmp_path / "data.cfg"
    spec.write_text("# data\nseed=-1\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {spec}: line 2: seed: must be non-negative\n"
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------- run (e2e)

def run_small(out_dir):
    return main(["run", *FAST, "--out", str(out_dir)])


def test_small_run_emits_expected_rows(tmp_path):
    out = tmp_path / "out"
    assert run_small(out) == 0
    lines = (out / "accuracy_seed7.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "batch,method,accuracy,subconcept,subconcept_accuracy"
    overall = [r for r in rows if r.split(",")[3] == ""]
    assert len(overall) == 2  # one overall row per stationary batch
    summary = json.loads((out / "summary.json").read_text())
    assert "rsb" in summary["omega_all"]
    assert summary["seeds"] == [7]


def test_repeated_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_small(out1) == 0
    assert run_small(out2) == 0
    assert ((out1 / "accuracy_seed7.csv").read_bytes()
            == (out2 / "accuracy_seed7.csv").read_bytes())
    assert ((out1 / "summary.json").read_bytes()
            == (out2 / "summary.json").read_bytes())


def test_a_one_class_offline_batch_is_named_in_every_failed_cell(tmp_path, capsys):
    # the drift stream at 4 subconcepts is one-class from batch 9 on; the
    # offline retrain on seed 2 then scores 0.0 at batches 9 and 26
    code = main(["run", "--schedule", "drift", "--n-subconcepts", "4", "--dim", "4",
                 "--train-per", "80", "--test-per", "20", "--n-s", "200",
                 "--hidden-sizes", "16", "--epochs-per-batch", "3", "--seeds", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"FAILED {method}/seed2: ValueError: offline accuracy must be positive everywhere; "
        "it is not at batches 9, 26"
        for method in sorted(("rsb", "sb", "cb0", "cb1", "nn", "offline"))]
    assert not (tmp_path / "out").exists()


# ------------------------------------------------- flags derived from fields

def option_strings(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {o for a in sub.choices[command]._actions for o in a.option_strings}


def test_run_and_validate_keep_their_option_strings():
    expected = {
        "-h", "--help", "--config", "--dataset", "--schedule", "--schedule-file",
        "--methods", "--seeds", "--out", "--c-max", "--c-min", "--b-max",
        "--omega-max", "--n-s", "--tau-s", "--alpha-r", "--beta", "--sigma-k",
        "--switch-fraction", "--per-centroid-maintenance", "--cb-b-max",
        "--cb-replay-per-label", "--hidden-sizes", "--learning-rate",
        "--epochs-per-batch", "--minibatch-size", "--n-subconcepts", "--dim", "--std",
        "--separation", "--train-per", "--test-per", "--drift-batches",
    }
    assert option_strings("run") == expected
    assert option_strings("validate") == expected


def readme_knob_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| group | knobs |"):]
    return table[:table.index("\n\n")]


def test_readme_knob_table_lists_every_run_flag():
    listed = set(re.findall(r"`(--[a-z][a-z-]*)`", readme_knob_table()))
    assert listed == option_strings("run") - {"-h", "--help", "--config"}


def test_readme_knob_table_marks_exactly_the_retired_knobs():
    retired = {"--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)
               if f.metadata.get("help", "").startswith("retired")}
    assert retired == set(re.findall(r"`(--[a-z][a-z-]*)` \(retired", readme_knob_table()))


def test_config_file_values_are_typed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds=3, 4\nhidden_sizes=8,4\nper_centroid_maintenance=false\n"
                   "c_min=2\nlearning_rate=0.01\nschedule_file=s.txt\n")
    config = parse_run(["--config", str(cfg)])
    assert config.seeds == (3, 4)
    assert config.hidden_sizes == (8, 4)
    assert config.per_centroid_maintenance is False
    assert config.c_min == 2 and config.learning_rate == 0.01
    assert config.schedule_file == "s.txt"


def write(path, text):
    path.write_text(text)
    return str(path)


def nan_features(tmp_path):
    return write(tmp_path / "nan.txt", "dim=2 subconcepts=2\n0,train,1.0,nan\n")


def bad_schedule(tmp_path):
    return write(tmp_path / "sched.txt", "0,0,1,intro,0.1,1.0\n1,1,0,outro,0.0,1.0\n")


def not_utf8(path):
    """A file whose second line holds a byte that is not UTF-8."""
    path.write_bytes(b"# made by hand\n\xff\n")
    return str(path)


PREFLIGHT = {
    "config c_max": lambda d: ["validate", "--config", write(d / "b.cfg", "c_max=abc\n")],
    "config bool": lambda d: ["validate", "--config",
                              write(d / "b.cfg", "per_centroid_maintenance=ture\n")],
    "spec dim": lambda d: ["gen-data", "--spec", write(d / "d.cfg", "dim=abc\n"),
                           "--out", str(d / "x")],
    "spec std": lambda d: ["gen-data", "--spec", write(d / "d.cfg", "std=-1\n"),
                           "--out", str(d / "x")],
    "nan features": lambda d: ["validate", "--dataset", "file:" + nan_features(d)],
    "bad schedule": lambda d: ["validate", "--schedule-file", bad_schedule(d)],
    "missing features": lambda d: ["validate", "--dataset", f"file:{d / 'missing.txt'}"],
    "missing schedule": lambda d: ["validate", "--schedule-file", str(d / "nope.txt")],
    "config nan": lambda d: ["validate", "--config", write(d / "b.cfg", "tau_s=nan\n")],
    "spec inf": lambda d: ["gen-data", "--spec", write(d / "d.cfg", "separation=inf\n"),
                           "--out", str(d / "x")],
    "config jobs": lambda d: ["run", "--config", write(d / "b.cfg", "jobs=2\n"),
                              "--out", str(d / "x")],
    "non-utf8 config": lambda d: ["run", "--config", not_utf8(d / "b.cfg"),
                                  "--out", str(d / "x")],
    "non-utf8 spec": lambda d: ["gen-data", "--spec", not_utf8(d / "d.cfg"),
                                "--out", str(d / "x")],
    "non-utf8 features": lambda d: ["validate", "--dataset", "file:" + not_utf8(d / "f.txt")],
    "non-utf8 schedule": lambda d: ["validate", "--schedule-file", not_utf8(d / "s.txt")],
}


@pytest.mark.parametrize("case", sorted(PREFLIGHT))
def test_bad_input_file_is_one_error_line_naming_the_file(case, tmp_path, capsys):
    argv = PREFLIGHT[case](tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(tmp_path) in err[0]
    assert not (tmp_path / "x").exists()


# per input kind: a file name, text that is bad at line 3, and the argv that reads it
BAD_AT_LINE_3 = {
    "config key": ("b.cfg", "# run\nc_max=10\nc_maxx=3\n", lambda f: ["validate", "--config", f]),
    "spec value": ("d.cfg", "dim=3\n\nstd=abc\n",
                   lambda f: ["gen-data", "--spec", f, "--out", f + ".out"]),
    "feature fields": ("f.txt", "dim=2 subconcepts=2\n0,train,1.0,2.0\n0,test,1.0\n",
                       lambda f: ["validate", "--dataset", "file:" + f]),
    "schedule kind": ("s.txt", "0,0,1,intro,0.1,1.0\n# then\n1,1,0,outro,0.0,1.0\n",
                      lambda f: ["validate", "--schedule-file", f]),
}


@pytest.mark.parametrize("kind", sorted(BAD_AT_LINE_3))
def test_a_bad_line_of_every_input_kind_is_named_path_line_n(kind, tmp_path, capsys):
    name, text, argv = BAD_AT_LINE_3[kind]
    path = write(tmp_path / name, text)
    with pytest.raises(SystemExit) as exc:
        main(argv(path))
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: line 3: ")
    assert not Path(path + ".out").exists()


@pytest.mark.parametrize("case", sorted(c for c in PREFLIGHT if c.startswith("non-utf8")))
def test_a_non_utf8_file_names_its_line(case, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(PREFLIGHT[case](tmp_path))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(": line 2: not UTF-8 text\n")


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--hidden-sizes", "0"], ["--std", "-1"],
                                   ["--epochs-per-batch", "0"], ["--train-per", "0"],
                                   ["--schedule", "weekly"], ["--config", "schedule=bogus"],
                                   ["--schedule", "drift", "--drift-batches", "0"],
                                   ["--schedule", "drift", "--drift-batches", "-1"],
                                   ["--cb-b-max", "0"], ["--cb-replay-per-label", "0"]])
def test_validate_refuses_values_run_cannot_use(flags, tmp_path, capsys):
    if flags[0] == "--config":
        flags = ["--config", write(tmp_path / "b.cfg", flags[1] + "\n")]
    with pytest.raises(SystemExit) as exc:
        main(["validate", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# per flag, ClassBuffer's own refusal; the error names the field, cb_<parameter>
@pytest.mark.parametrize("flags, message", [
    (["--cb-b-max", "0"], "b_max must be positive"),
    (["--cb-replay-per-label", "0"], "replay_per_label must be positive"),
])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_class_buffer_settings_are_refused_before_any_cell_runs(command, flags, message,
                                                                tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *FAST, "--methods", "cb0", *flags, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: cb_{message}\n"
    assert not (tmp_path / "x").exists()


def test_run_refuses_a_drift_schedule_without_batches(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", *FAST, "--schedule", "drift", "--drift-batches", "0", "--methods", "nn",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: need at least 1 batch, got 0"]
    assert not (tmp_path / "x").exists()


# per case: the schedule file's text, if any, the flags, and the error after "error: "
EMPTY_SLICES = {
    "file": ("0,0,1,intro,0.1,1.0\n1,1,0,intro,0.1,1.0\n2,2,1,intro,0.0,0.01\n"
             "3,3,0,intro,0.0,1.0\n",
             ["--n-subconcepts", "4", "--dim", "4", "--train-per", "80", "--test-per", "20",
              "--hidden-sizes", "8", "--epochs-per-batch", "1"],
             "{path}: batch 2: slice 0.0..0.01 selects none of subconcept 2's 80 training rows"),
    "drift": (None,
              ["--schedule", "drift", "--n-subconcepts", "4", "--dim", "4", "--train-per", "1",
               "--test-per", "5", "--methods", "rsb,nn,offline"],
              "batch 4: slice 0.0..0.5 selects none of subconcept 0's 1 training rows"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_SLICES))
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_slice_that_selects_no_training_row_is_refused(command, case, tmp_path, capsys):
    text, flags, message = EMPTY_SLICES[case]
    path = tmp_path / "s.csv"
    if text is not None:
        flags = [*flags, "--schedule-file", write(path, text)]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_the_jobs_flag_is_refused(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["driftreplay: error: unrecognized arguments: --jobs 2"]
    assert not (tmp_path / "x").exists()


BEYOND_THE_BOUND = {
    "validate": lambda d: ["validate", "--separation", "1e101"],
    "run": lambda d: ["run", *FAST, "--separation", "1e95", "--std", "1e6",
                      "--out", str(d / "x")],
    "gen-data": lambda d: ["gen-data", "--spec", write(d / "d.cfg", "separation=1e95\nstd=1e6\n"),
                           "--out", str(d / "x")],
}


@pytest.mark.parametrize("case", sorted(BEYOND_THE_BOUND))
def test_synthetic_features_beyond_the_bound_are_one_error_line(case, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(BEYOND_THE_BOUND[case](tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: separation=")
    assert "std=" in err[0] and "beyond 1e+100" in err[0]
    assert not (tmp_path / "x").exists()


def test_validate_generates_the_data_of_every_seed(capsys):
    # at this separation seed 1's features stay within the bound and seed 2's do not
    argv = ["validate", *FAST, "--separation", "1.65e100"]
    assert main([*argv, "--seeds", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seeds", "1,2"])
    assert exc.value.code == 2
    assert "beyond 1e+100" in capsys.readouterr().err


@pytest.mark.parametrize("text, flags, blamed", [
    ("c_min=20\nc_max=10\n", [], "1: c_min: need 0 < c_min <= c_max, got 20, 10"),
    ("# run\nc_max=30\nc_min=20\nschedule=bogus\n", [],
     "4: schedule: unknown schedule 'bogus'"),
    # taken on its own, the file is refused under the flag's c_max
    ("c_max=30\nc_min=20\n", ["--c-max", "10"], "2: c_min: need 0 < c_min <= c_max, got 20, 10"),
    ("# cb\ncb_replay_per_label=0\n", [], "2: cb_replay_per_label: must be positive\n"),
    ("cb_b_max=0\n", [], "1: cb_b_max: must be positive\n"),
])
def test_value_the_config_refuses_names_its_file_and_line(text, flags, blamed, tmp_path,
                                                           capsys):
    cfg = write(tmp_path / "b.cfg", text)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {cfg}: line {blamed}")


# every knob a spec refuses on its own: the refused value and the message after its name
KNOBS = {**{knob: ("0", "must be positive") for knob in (
    "b_max", "omega_max", "n_s", "beta", "sigma_k", "epochs_per_batch", "minibatch_size",
    "dim", "std", "separation", "train_per", "test_per")},
    "n_subconcepts": ("1", "must be at least 2"),
    "learning_rate": ("-1", "must be non-negative"),
    "hidden_sizes": ("0", "must be positive")}
SPEC_KNOBS = {f.name for f in fields(GaussianStreamSpec)}


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_a_refused_knob_is_named_alone(knob, tmp_path, capsys):
    value, message = KNOBS[knob]
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--" + knob.replace("_", "-"), value])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {knob} {message}\n"
    cfg = write(tmp_path / "b.cfg", f"# knobs\n{knob}={value}\n")
    commands = [["validate", "--config", cfg]]
    if knob in SPEC_KNOBS:
        commands.append(["gen-data", "--spec", cfg, "--out", str(tmp_path / "f.txt")])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: {knob}: {message}\n"
    assert not (tmp_path / "f.txt").exists()


def no_work(*args):
    raise AssertionError("work began before the output was checked")


# per command: its argv under a directory d, the refused path, and its strerror
UNWRITABLE = {
    "gen-data": lambda d: (["gen-data", "--spec", write(d / "d.cfg", "dim=2\n"),
                            "--out", str(d / "missing" / "f.txt")],
                           d / "missing" / "f.txt", "No such file or directory"),
    "run": lambda d: (["run", *FAST, "--out", str(d / "afile" / "sub")],
                      d / "afile" / "sub", "Not a directory"),
    "validate": lambda d: (["validate", *FAST], d / "afile" / "sub", "Not a directory"),
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_an_unwritable_output_is_refused_before_any_work(command, tmp_path, monkeypatch,
                                                          capsys):
    write(tmp_path / "afile", "")
    argv, path, strerror = UNWRITABLE[command](tmp_path)
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "afile" / "sub"))  # validate's --out
    for module, name in ((exp, "run_seed"), (cli, "build_inputs"), (cli, "generate_gaussian")):
        monkeypatch.setattr(module, name, no_work)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {path}: cannot write: {strerror}\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing created


# per case: the path under a directory d, whether it is a directory, and its strerror
OUTPUTS = {
    "file as directory": (lambda d: d / "afile", True, "File exists"),
    "directory as file": (lambda d: d, False, "Is a directory"),
    "under a file": (lambda d: d / "afile" / "f.txt", False, "Not a directory"),
    "missing directory": (lambda d: d / "missing" / "f.txt", False, "No such file or directory"),
    "new directories": (lambda d: d / "new" / "sub", True, None),
    "new file": (lambda d: d / "f.txt", False, None),
}


@pytest.mark.parametrize("case", sorted(OUTPUTS))
def test_refuse_unwritable_creates_nothing(case, tmp_path):
    write(tmp_path / "afile", "")
    path, directory, strerror = OUTPUTS[case]
    path = path(tmp_path)
    if strerror is None:
        cli.refuse_unwritable(path, directory)
    else:
        with pytest.raises(cli.UsageError, match=f"^{re.escape(str(path))}: cannot write: "
                                                 f"{strerror}$"):
            cli.refuse_unwritable(path, directory)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_refuse_unwritable_refuses_a_directory_without_write_access(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    with pytest.raises(cli.UsageError, match=": cannot write: Permission denied$"):
        cli.refuse_unwritable(tmp_path / "out", True)


def test_config_values_are_judged_together_and_flags_keep_their_message(tmp_path, capsys):
    # c_min=20 is refused under the default c_max=10 until the next line raises it
    cfg = write(tmp_path / "b.cfg", "c_min=20\nc_max=30\n")
    assert parse_run(["--config", cfg]).c_min == 20
    assert parse_run(["--config", write(tmp_path / "c.cfg", "c_min=20\n"),
                      "--c-max", "30"]).c_max == 30
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, "--c-min", "40"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: need 0 < c_min <= c_max, got 40, 30\n"


@pytest.mark.parametrize("flags, message", [
    (["--seeds=-1"], "seeds must be distinct and non-negative, got -1"),
    (["--seeds", "2,2"], "seeds must be distinct and non-negative, got 2,2"),
    (["--seeds", "1,-3,2"], "seeds must be distinct and non-negative, got 1,-3,2"),
])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_negative_or_repeated_seeds_are_refused(command, flags, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *FAST, *flags, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_repeated_seeds_in_a_config_file_name_its_line(tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg", "# run\nseeds=2,2\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"error: {cfg}: line 2: seeds: must be distinct and "
                                       "non-negative, got 2,2\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_repeated_methods_are_refused(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *FAST, "--methods", "rsb,rsb,offline", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: methods must be distinct, got rsb,rsb,offline\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("knob, flags, value, message", [
    ("hidden_sizes", ["--hidden-sizes", ","], ",", "must name at least one layer"),
    ("per_centroid_maintenance", ["--per-centroid-maintenance"], "true",
     "is retired; it must be false"),
])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_an_empty_layer_list_and_the_retired_cadence_are_refused(command, knob, flags, value,
                                                                 message, tmp_path, capsys):
    out = ["--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, *out])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {knob} {message}\n"
    cfg = write(tmp_path / "b.cfg", f"# run\n{knob}={value}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *out])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: {knob}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_repeated_methods_in_a_config_file_name_its_line(tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg", "# run\nmethods=rsb,rsb\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"error: {cfg}: line 2: methods: must be distinct, "
                                       "got rsb,rsb\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, flags", [
    ("c_min=20\n", ["--c-max", "30", "--dim", "0"]),
    ("schedule=bogus\n", ["--schedule", "drift", "--dim", "0"]),
])
def test_a_flag_refusal_blames_no_file_line(text, flags, tmp_path, capsys):
    cfg = write(tmp_path / "b.cfg", text)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: dim must be positive\n"


@pytest.mark.parametrize("flag, value", [("--tau-s", "nan"), ("--learning-rate", "nan"),
                                         ("--separation", "inf"), ("--sigma-k", "-inf")])
def test_non_finite_float_flags_are_refused(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("driftreplay validate: error: ") and repr(value) in err[-1]


def test_file_dataset_sizes_the_schedule(tmp_path, capsys):
    spec = write(tmp_path / "data.cfg", "n_subconcepts=3\ndim=3\ntrain_per=20\ntest_per=5\n")
    features = tmp_path / "features.txt"
    assert main(["gen-data", "--spec", spec, "--out", str(features)]) == 0
    argv = ["--dataset", f"file:{features}", "--hidden-sizes", "4", "--epochs-per-batch", "1",
            "--methods", "rsb", "--seeds", "1", "--out", str(tmp_path / "out")]
    assert main(["validate", *argv]) == 0
    assert main(["run", *argv]) == 0
    lines = (tmp_path / "out" / "accuracy_seed1.csv").read_text().splitlines()
    assert len([r for r in lines[1:] if r.split(",")[3] == ""]) == 3  # one per subconcept


def test_file_dataset_skips_the_synthetic_data_checks(tmp_path, capsys):
    spec = write(tmp_path / "data.cfg", "n_subconcepts=2\ndim=2\ntrain_per=20\ntest_per=5\n")
    features = tmp_path / "features.txt"
    assert main(["gen-data", "--spec", spec, "--out", str(features)]) == 0
    capsys.readouterr()
    assert main(["validate", "--dataset", f"file:{features}", "--std", "-1",
                 "--dim", "0"]) == 0
    assert capsys.readouterr().out.startswith("config OK")
    with pytest.raises(SystemExit) as exc:  # synthetic data still needs a positive std
        main(["run", *FAST, "--std", "-1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip() == "error: std must be positive"
    assert not (tmp_path / "x").exists()


def test_a_diverging_offline_reference_fails_its_cells_without_a_traceback(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--schedule", "drift", "--learning-rate", "1e300",
                 "--n-subconcepts", "2", "--dim", "2", "--train-per", "40", "--test-per", "10",
                 "--hidden-sizes", "4", "--epochs-per-batch", "1", "--drift-batches", "3",
                 "--methods", "nn", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["FAILED nn/seed1: TrainingDivergedError: "
                                "non-finite training loss: nan"]
    assert "Traceback" not in err
    assert not out.exists()
