"""Unit tests for experiment orchestration."""
import hashlib
import io
import json
import os
import pickle
import signal
import time
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import driftreplay.experiment as exp
from driftreplay.experiment import (
    KNOWN_METHODS,
    ExperimentConfig,
    build_schedule,
    rng_for,
    run_experiment,
    run_seed,
)
from driftreplay import learner
from driftreplay.evaluation import evaluate_batch, omega_all
from driftreplay.learner import (
    ClassifierSpec,
    MlpClassifier,
    TrainingDivergedError,
    fit_offline,
)
from driftreplay.memory import LabeledInstance, NonFiniteFeatureError, RsbConfig, RsbMemory
from driftreplay.streams import (
    WARMUP_FRACTION,
    WARMUP_SUBCONCEPTS,
    GaussianStreamSpec,
    eval_pool,
    presented_rows,
    slice_rows,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

FAST = dict(n_subconcepts=2, dim=4, train_per=60, test_per=20,
            hidden_sizes=(8,), epochs_per_batch=2, seeds=(3,))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("rsb", "bogus"))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="got -1"):
        ExperimentConfig(seeds=(-1,))
    with pytest.raises(ValueError, match="got 2,2"):
        ExperimentConfig(seeds=(2, 2))
    with pytest.raises(ValueError):
        ExperimentConfig(c_min=20, c_max=10)


def test_build_schedule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_schedule(ExperimentConfig(schedule="weekly"))


def test_named_substreams_are_independent_and_stable():
    a = rng_for(5, "schedule").random(4)
    b = rng_for(5, "schedule").random(4)
    c = rng_for(5, "rsb", "memory").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # adding a differently named stream never perturbs existing ones
    assert np.array_equal(a, rng_for(5, "schedule").random(4))
    # seeds that agree in their low 32 bits draw their own streams
    for names in (("schedule",), ("rsb", "memory"), ("rsb", "learner"), ("offline", "0")):
        assert not np.array_equal(rng_for(1, *names).random(4),
                                  rng_for(2**32 + 1, *names).random(4))


def test_run_seed_produces_offline_normalized_records():
    config = ExperimentConfig(methods=("rsb", "offline"), **FAST)
    records, failures = run_seed(config, 3)
    assert failures == {}
    by_method = {r.method: r for r in records}
    assert by_method["offline"].omega == 1.0
    rsb = by_method["rsb"]
    assert len(rsb.alphas) == 2  # one per stationary batch
    assert rsb.omega == omega_all(rsb.alphas, by_method["offline"].alphas)
    assert rsb.omega >= 0.0  # tiny config trains too briefly to bound tighter


def test_one_failed_cell_does_not_poison_the_rest(monkeypatch):
    real = exp.run_method

    def flaky(method, *args, **kwargs):
        if method == "nn":
            raise RuntimeError("boom")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(exp, "run_method", flaky)
    config = ExperimentConfig(methods=("rsb", "nn", "offline"), **FAST)
    records, failures = run_seed(config, 3)
    assert set(failures) == {"nn/seed3"}
    assert {r.method for r in records} == {"rsb", "offline"}



@pytest.mark.parametrize("failing, status", [({"nn"}, 3), (set(KNOWN_METHODS), 1)])
def test_exit_status_reports_failed_cells(monkeypatch, tmp_path, failing, status):
    real = exp.run_method

    def flaky(method, *args, **kwargs):
        if method in failing:
            raise RuntimeError("boom")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(exp, "run_method", flaky)
    out = tmp_path / "out"
    config = ExperimentConfig(methods=("rsb", "nn", "offline"), out_dir=str(out), **FAST)
    assert run_experiment(config) == status
    assert (out / "summary.json").exists() == (status == 3)


@pytest.mark.parametrize("spec_cls", [RsbConfig, ClassifierSpec, GaussianStreamSpec])
def test_shared_fields_have_the_config_defaults(spec_cls):
    mine = {f.name: f.default for f in fields(ExperimentConfig)}
    shared = [f for f in fields(spec_cls) if f.name in mine]
    assert shared
    for f in shared:
        assert f.default is not MISSING and f.default == mine[f.name], f.name


def test_spec_builds_each_block_from_the_config():
    config = ExperimentConfig(c_max=7, hidden_sizes=(8, 4), learning_rate=0.01, dim=5,
                              train_per=30)
    assert config.spec(RsbConfig) == RsbConfig(c_max=7)
    assert config.spec(ClassifierSpec, input_dim=3) == ClassifierSpec(
        input_dim=3, hidden_sizes=(8, 4), learning_rate=0.01)
    assert config.spec(GaussianStreamSpec, seed=2) == GaussianStreamSpec(
        dim=5, train_per=30, seed=2)

# ------------------------------------------------------- pinned report bytes

def report_digests(out: Path, **kwargs):
    assert run_experiment(ExperimentConfig(out_dir=str(out), **kwargs)) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_criterion_9_reports_match_the_recorded_digests(tmp_path):
    expected = json.loads(REFERENCE.read_text())["criterion-9"]["11"]
    got = report_digests(tmp_path, methods=("rsb", "nn", "offline"), seeds=(11,),
                         n_subconcepts=3, dim=4, train_per=80, test_per=20,
                         hidden_sizes=(16,), epochs_per_batch=3)
    assert got == expected


def test_small_drift_run_reports_are_pinned(tmp_path, monkeypatch):
    kinds = Counter()
    ingest = RsbMemory.ingest

    def counting_ingest(self, instance):
        events = ingest(self, instance)
        kinds.update(e.kind for e in events)
        return events

    monkeypatch.setattr(RsbMemory, "ingest", counting_ingest)
    got = report_digests(tmp_path, schedule="drift", n_subconcepts=4, dim=4,
                         train_per=80, test_per=20, n_s=200, hidden_sizes=(16,),
                         epochs_per_batch=3, seeds=(1,))
    assert got == {
        "accuracy_seed1.csv": "e55c3ae003855426371b647d0228474beb963aa955e65954221000e8f0dac31d",
        "summary.json": "de358e91e58e3b89600b8d4bfc7dffce84d7af43909f63b330fb2f48e1210e8d",
    }
    assert kinds["switched"] and kinds["split"] and kinds["removed"]


def test_wide_single_pass_reports_are_pinned(tmp_path):
    # perfbench's wide-single-pass workload (about 80 centroids, one epoch
    # per batch) on its held-out seed: the memory and replay code moves it most
    got = report_digests(tmp_path, schedule="drift", train_per=50, test_per=40, n_s=400,
                         dim=64, n_subconcepts=20, c_max=50, epochs_per_batch=1,
                         seeds=(2,))
    assert got == {
        "accuracy_seed2.csv": "8ef1ac4bae5f668e03d983be19df4b63817b9517d578ec1a23d62a5a5c0dea99",
        "summary.json": "512fa5f7cea04e55a3b94c27a1067cde86e251c967d9bb7429307baf0d907117",
    }


# ------------------------------------------------------ benchmark trace hooks

def test_benchmark_trace_hooks_find_every_wrapped_name(monkeypatch):
    # perfbench/spans.py wraps callables at the names their callers look up;
    # entering its trace fails if one of those names is gone
    monkeypatch.syspath_prepend(str(REFERENCE.parent))
    import spans

    tracer = spans.Tracer()
    config = ExperimentConfig(methods=("rsb", "sb", "cb0"), **FAST)
    dataset, schedule = exp.build_inputs(config, 3)
    ones = [1.0] * len(schedule)
    report_cpus(monkeypatch, 1)  # the whole offline reference runs in this process
    with spans.traced(tracer):
        for method in config.methods:
            exp.run_method(method, config, dataset, schedule, 3, ones,
                           [{} for _ in ones])
        exp.run_offline_reference(config, dataset, schedule, 3)
    counts = tracer.counts
    assert counts["baselines.sb_ingest.n"] > 0
    assert counts["baselines.cb_ingest.n"] > 0
    assert counts["baselines.cb_sample.n"] > 0
    assert counts["memory.window.push.n"] > 0
    assert counts["memory.window.top_two_counts.n"] > 0
    assert counts["learner.fit_offline.rows"] == sum(
        len(presented_rows(schedule, dataset, t)[1]) for t in range(len(schedule)))
    assert not hasattr(exp.next_batch, "__wrapped__")  # the originals are restored
    assert not hasattr(exp.fit_offline, "__wrapped__")


def test_a_traced_sb_run_counts_its_nearest_scans(monkeypatch):
    # sb places through the memory's own find_nearest, so the trace sees its scans
    monkeypatch.syspath_prepend(str(REFERENCE.parent))
    import spans

    tracer = spans.Tracer()
    config = ExperimentConfig(methods=("sb",), **FAST)
    dataset, schedule = exp.build_inputs(config, 3)
    ones = [1.0] * len(schedule)
    report_cpus(monkeypatch, 1)
    with spans.traced(tracer):
        exp.run_method("sb", config, dataset, schedule, 3, ones, [{} for _ in ones])
    counts = tracer.counts
    assert counts["baselines.sb_ingest.n"] > 0 and counts["memory.ingest.n"] == 0
    assert counts["memory.find_nearest.n"] > 0
    assert counts["memory.find_nearest.scanned"] >= counts["memory.find_nearest.n"]


# ------------------------------------------------- offline reference shares

# perfbench's tiny-drift self-test config and acceptance criterion 9's
# stationary config, each with the seed it runs
SHARE_CONFIGS = {
    "tiny-drift": (dict(schedule="drift", n_subconcepts=4, dim=4, train_per=80, test_per=20,
                        n_s=200, hidden_sizes=(16,), epochs_per_batch=3), 1),
    "criterion-9": (dict(n_subconcepts=3, dim=4, train_per=80, test_per=20,
                         hidden_sizes=(16,), epochs_per_batch=3), 11),
}


def incremental_presented(dataset, schedule):
    """Per batch, one LabeledInstance per training row presented so far,
    from one set of row masks that grows batch by batch."""
    masks = {sid: np.zeros(len(dataset.train(sid)), dtype=bool)
             for sid in dataset.subconcept_ids}
    for sid in WARMUP_SUBCONCEPTS:
        slice_rows(masks[sid], 0.0, WARMUP_FRACTION)[...] = True
    for t in range(len(schedule)):
        e = schedule.entry(t)
        slice_rows(masks[e.subconcept_id], e.slice_start, e.slice_end)[...] = True
        instances = []
        for sid, label in schedule.current_label_map(t).items():
            block = dataset.train(sid)[masks[sid]]
            instances.extend(LabeledInstance(row, label, sid) for row in block)
        yield instances


def incremental_offline_reference(config, dataset, schedule, seed):
    """The offline reference as one loop over the incremental row masks."""
    spec = config.spec(ClassifierSpec, input_dim=dataset.dim)
    alphas, per_sub = [], []
    for t, instances in enumerate(incremental_presented(dataset, schedule)):
        X = np.array([inst.features for inst in instances])
        y = np.array([inst.label for inst in instances], dtype=np.int64)
        model = fit_offline(spec, X, y, rng_for(seed, "offline", str(t)))
        a, ps = evaluate_batch(model.predict_labels, eval_pool(schedule, dataset, t))
        alphas.append(a)
        per_sub.append(ps)
    return alphas, per_sub


def share_inputs(name):
    overrides, seed = SHARE_CONFIGS[name]
    config = ExperimentConfig(seeds=(seed,), **overrides)
    return (config, *exp.build_inputs(config, seed), seed)


def report_cpus(monkeypatch, n):
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(SHARE_CONFIGS))
def test_offline_reference_is_identical_on_any_cpu_count(monkeypatch, name):
    config, dataset, schedule, seed = share_inputs(name)
    expected = incremental_offline_reference(config, dataset, schedule, seed)
    for cpus in (1, 2, 3, 64):
        report_cpus(monkeypatch, cpus)
        with monkeypatch.context() as m:
            if cpus == 1:  # one CPU: everything runs in the calling process
                m.setattr(exp.os, "fork", None)
            got = exp.run_offline_reference(config, dataset, schedule, seed)
        assert repr(got) == repr(expected), f"{cpus} CPUs"
        assert_no_child_left()


def labels_by_row(schedule, dataset, t):
    X, y = presented_rows(schedule, dataset, t)
    return {row.tobytes(): int(label) for row, label in zip(X, y)}


@pytest.mark.parametrize("name", sorted(SHARE_CONFIGS))
def test_presented_rows_match_the_incremental_masks(name):
    _, dataset, schedule, _ = share_inputs(name)
    drifted = 0
    for t, instances in enumerate(incremental_presented(dataset, schedule)):
        X, y = presented_rows(schedule, dataset, t)
        assert X.shape == (len(instances), dataset.dim) and y.dtype == np.int64
        assert X.tobytes() == np.array([inst.features for inst in instances]).tobytes()
        assert y.tolist() == [inst.label for inst in instances]
        label_of = labels_by_row(schedule, dataset, t)
        assert len(label_of) == len(X)  # each row once
        e = schedule.entry(t)
        if e.kind == "drift":
            # an episode's first half slices from 0; before it, its rows had the old label
            before = labels_by_row(schedule, dataset, t - 1 if e.slice_start == 0.0 else t - 2)
            for row in slice_rows(dataset.train(e.subconcept_id), e.slice_start, e.slice_end):
                assert before[row.tobytes()] == 1 - e.label
                assert label_of[row.tobytes()] == e.label
            drifted += 1
    assert drifted or name == "criterion-9"  # criterion 9's stream is stationary


@pytest.mark.parametrize("name", sorted(SHARE_CONFIGS))
def test_offline_shares_cover_every_batch_once_and_are_static(monkeypatch, name):
    _, dataset, schedule, _ = share_inputs(name)
    for cpus in (1, 2, 3, 64):
        report_cpus(monkeypatch, cpus)
        shares = exp.offline_shares(dataset, schedule)
        assert len(shares) == min(cpus, len(schedule))
        assert sorted(t for share in shares for t in share) == list(range(len(schedule)))
        assert all(share == sorted(share) for share in shares)
        assert exp.offline_shares(dataset, schedule) == shares


@pytest.mark.parametrize("cpus", [2, 3])
def test_offline_shares_go_longest_first_to_the_least_loaded(monkeypatch, cpus):
    _, dataset, schedule, _ = share_inputs("tiny-drift")
    report_cpus(monkeypatch, cpus)
    rows = [len(presented_rows(schedule, dataset, t)[1]) for t in range(len(schedule))]
    shares = exp.offline_shares(dataset, schedule)
    assert rows.index(max(rows)) in shares[0]  # the longest batch opens share 0
    loads = [sum(rows[t] for t in share) for share in shares]
    assert max(loads) - min(loads) <= max(rows)


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be rebuilt from its single stored argument."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


def child_failure(kind):
    """A fit_offline stand-in for the forked share only."""
    if kind == "raise":
        raise ValueError("child share failed")
    if kind == "signal":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "local":
        class LocalError(Exception):
            pass
        raise LocalError("cannot be pickled")
    raise NeedsTwoArguments("x", "y")


@pytest.mark.parametrize("kind, error, message", [
    ("raise", ValueError, "child share failed"),
    ("signal", RuntimeError, f"exit status {-signal.SIGKILL}"),
    ("signal", RuntimeError, "offline share in process "),
    ("local", RuntimeError, "LocalError('cannot be pickled')"),
    ("two-args", RuntimeError, "NeedsTwoArguments('x-y')"),
])
def test_a_failed_child_share_raises_in_the_parent(monkeypatch, kind, error, message):
    config, dataset, schedule, seed = share_inputs("criterion-9")
    report_cpus(monkeypatch, 2)
    parent, real = os.getpid(), exp.fit_offline

    def fit(*args):
        if os.getpid() != parent:
            child_failure(kind)
        return real(*args)

    monkeypatch.setattr(exp, "fit_offline", fit)
    with pytest.raises(error) as info:
        exp.run_offline_reference(config, dataset, schedule, seed)
    assert message in str(info.value)
    assert_no_child_left()


def test_a_failed_own_share_still_waits_for_the_child(monkeypatch):
    config, dataset, schedule, seed = share_inputs("criterion-9")
    report_cpus(monkeypatch, 2)
    parent, real = os.getpid(), exp.fit_offline

    def fit(*args):
        if os.getpid() == parent:
            raise ValueError("own share failed")
        time.sleep(0.2)  # the child is still running when the parent raises
        return real(*args)

    monkeypatch.setattr(exp, "fit_offline", fit)
    with pytest.raises(ValueError, match="own share failed"):
        exp.run_offline_reference(config, dataset, schedule, seed)
    assert_no_child_left()


# ------------------------------------------------------ a failed reference

def test_a_failed_offline_reference_fails_only_its_seed(monkeypatch, tmp_path, capsys):
    real_reference, real_fit = exp.run_offline_reference, exp.fit_offline

    def diverges(*args):
        raise TrainingDivergedError("non-finite training loss: nan")

    def reference(config, dataset, schedule, seed):
        with monkeypatch.context() as m:
            if seed == 4:
                m.setattr(exp, "fit_offline", diverges)
            return real_reference(config, dataset, schedule, seed)

    monkeypatch.setattr(exp, "run_offline_reference", reference)
    methods = ("rsb", "nn", "offline")
    both = tmp_path / "both"
    config = ExperimentConfig(methods=methods, out_dir=str(both), **{**FAST, "seeds": (3, 4)})
    assert run_experiment(config) == 3
    assert exp.fit_offline is real_fit
    err = capsys.readouterr().err.splitlines()
    assert err == [f"FAILED {m}/seed4: TrainingDivergedError: non-finite training loss: nan"
                   for m in sorted(methods)]
    alone = tmp_path / "alone"
    assert run_experiment(ExperimentConfig(methods=methods, out_dir=str(alone), **FAST)) == 0
    assert sorted(p.name for p in both.iterdir()) == ["accuracy_seed3.csv", "summary.json"]
    assert (both / "accuracy_seed3.csv").read_bytes() == (alone / "accuracy_seed3.csv").read_bytes()
    summaries = [json.loads((d / "summary.json").read_text()) for d in (both, alone)]
    assert summaries[0]["omega_all"] == summaries[1]["omega_all"]
    assert summaries[0]["seeds"] == [3]


# ------------------------------------------------------- piped learner cells

CELL_METHODS = ("rsb", "sb", "cb0", "cb1", "nn")


def cell_records(config, dataset, schedule, seed, methods=CELL_METHODS):
    ones = [1.0] * len(schedule)
    return [exp.run_method(m, config, dataset, schedule, seed, ones, [{} for _ in ones])
            for m in methods]


@pytest.mark.parametrize("name", sorted(SHARE_CONFIGS))
def test_method_records_are_identical_on_any_cpu_count(monkeypatch, name):
    config, dataset, schedule, seed = share_inputs(name)
    forked, real = [], exp._fork
    monkeypatch.setattr(exp, "_fork", lambda work: forked.append(1) or real(work))
    by_cpus = {}
    for cpus in (1, 2, 3, 64):
        report_cpus(monkeypatch, cpus)
        forked.clear()
        by_cpus[cpus] = repr(cell_records(config, dataset, schedule, seed))
        # one learner child per cell beside a second CPU, none on one
        assert len(forked) == (0 if cpus == 1 else len(CELL_METHODS)), f"{cpus} CPUs"
        assert_no_child_left()
    assert by_cpus[2] == by_cpus[3] == by_cpus[64] == by_cpus[1]


def test_piped_evaluations_match_the_calling_process(monkeypatch):
    config, dataset, schedule, seed = share_inputs("tiny-drift")
    piped = exp._learn_in_child("rsb", config, dataset, schedule, seed)
    assert_no_child_left()
    in_process = exp._learn(exp._new_model("rsb", config, dataset, seed),
                            exp._cell_batches("rsb", config, dataset, schedule, seed),
                            schedule, dataset)
    assert repr(piped) == repr(in_process)
    assert len(piped) == len(schedule)


def test_a_learner_pipe_ends_only_at_a_batch_boundary():
    config, dataset, schedule, seed = share_inputs("tiny-drift")
    cell = exp._cell_batches("rsb", config, dataset, schedule, seed)
    sent = [(t, list(batches)) for (t, batches), _ in zip(cell, range(2))]
    first, second = (pickle.dumps(b, pickle.HIGHEST_PROTOCOL) for b in sent)

    def received(data):
        return exp._received_cell(io.BufferedReader(io.BytesIO(data)))

    def exact(batch):
        t, batches = batch
        return t, [(bx.dtype, bx.shape, bx.tobytes(), by.dtype, by.tobytes())
                   for bx, by in batches]

    assert [exact(b) for b in received(first + second)] == [exact(b) for b in sent]
    for cut in range(1, len(second)):
        cell = received(first + second[:cut])
        assert exact(next(cell)) == exact(sent[0])
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            next(cell)


# sha256 over every (bx, by) an rsb cell of tiny-drift, seed 1, trained on
# through fit_batch before its epoch loop became the minibatches generator
RSB_MINIBATCHES = "efdcad0b0994ecd541203e8a4fb7d5eb232cc84ce133bb19f549715df3b133ef"


def test_minibatches_yield_what_the_learner_trains_on(monkeypatch):
    config, dataset, schedule, seed = share_inputs("tiny-drift")
    yielded = hashlib.sha256()
    for _, batches in exp._cell_batches("rsb", config, dataset, schedule, seed):
        for bx, by in batches:
            assert bx.dtype == np.float64 and by.dtype == np.int64
            yielded.update(bx.tobytes())
            yielded.update(by.tobytes())
    trained = hashlib.sha256()
    real = MlpClassifier.train_minibatch

    def spy(self, X, y):
        trained.update(X.tobytes())
        trained.update(y.tobytes())
        return real(self, X, y)

    monkeypatch.setattr(MlpClassifier, "train_minibatch", spy)
    exp._learn(exp._new_model("rsb", config, dataset, seed),
               exp._cell_batches("rsb", config, dataset, schedule, seed), schedule, dataset)
    assert yielded.hexdigest() == trained.hexdigest() == RSB_MINIBATCHES


# a one-page pipe fills at once, so the calling process is still writing
# when its learner child stops reading
PIPE_SIZES = [exp._PIPE_BYTES, 4096]


@pytest.mark.parametrize("pipe_bytes", PIPE_SIZES)
def test_a_diverging_piped_learner_raises_as_in_process(monkeypatch, pipe_bytes):
    monkeypatch.setattr(exp, "_PIPE_BYTES", pipe_bytes)
    overrides, seed = SHARE_CONFIGS["tiny-drift"]
    config = ExperimentConfig(seeds=(seed,), **{**overrides, "learning_rate": 1e300})
    dataset, schedule = exp.build_inputs(config, seed)
    for method in ("rsb", "nn"):  # a cell with a centroid memory, and one with none
        errors = []
        for cpus in (1, 2):
            report_cpus(monkeypatch, cpus)
            with pytest.raises(Exception) as info:
                cell_records(config, dataset, schedule, seed, methods=(method,))
            errors.append((type(info.value), str(info.value)))
            assert_no_child_left()
        assert errors[0] == errors[1] == (TrainingDivergedError,
                                          "non-finite training loss: nan"), method


@pytest.mark.parametrize("owner, attr", [(RsbMemory, "ingest"), (learner, "sample_replay")])
def test_a_failure_of_the_calling_process_reaps_the_learner(monkeypatch, owner, attr):
    config, dataset, schedule, seed = share_inputs("tiny-drift")
    report_cpus(monkeypatch, 2)
    real, calls = getattr(owner, attr), []

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 40:
            raise NonFiniteFeatureError("feature values must be finite")
        return real(*args)

    monkeypatch.setattr(owner, attr, fails_later)
    with pytest.raises(NonFiniteFeatureError, match="must be finite"):
        cell_records(config, dataset, schedule, seed, methods=("rsb",))
    assert_no_child_left()


@pytest.mark.parametrize("pipe_bytes", PIPE_SIZES)
def test_a_killed_learner_child_is_named(monkeypatch, pipe_bytes):
    monkeypatch.setattr(exp, "_PIPE_BYTES", pipe_bytes)
    config, dataset, schedule, seed = share_inputs("tiny-drift")
    report_cpus(monkeypatch, 2)
    parent, real = os.getpid(), exp.evaluate_batch

    def evaluate(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(exp, "evaluate_batch", evaluate)
    for method in ("sb", "nn"):  # a cell with a centroid memory, and one with none
        with pytest.raises(RuntimeError, match=rf"^{method} learner in process \d+ sent no "
                                               rf"result: exit status {-signal.SIGKILL}$"):
            cell_records(config, dataset, schedule, seed, methods=(method,))
        assert_no_child_left()
