"""Experiment orchestration: run each method over a shared stream and report."""
from __future__ import annotations

import os
import pickle
import sys
import zlib
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path

import numpy as np

from .baselines import ClassBuffer, StaticCentroidMemory
from .evaluation import MetricsRecord, emit_report, evaluate_batch, omega_all
from .learner import (
    ClassifierSpec,
    MlpClassifier,
    TrainRecord,
    fit_offline,
    ingest_batch,
    minibatches,
    train_epochs,
)
from .memory import RsbConfig, RsbMemory
from .streams import (
    FeatureFileError,
    GaussianStreamSpec,
    ScheduleError,
    build_drift_schedule,
    build_stationary_schedule,
    eval_pool,
    generate_gaussian,
    load_features,
    load_schedule,
    next_batch,
    presented_masks,
    presented_rows,
    slice_rows,
    warmup_instances,
)

KNOWN_METHODS = ("rsb", "sb", "cb0", "cb1", "nn", "offline")
SCHEDULES = ("stationary", "drift")
# Bytes a learner pipe asks to hold (Linux's limit for unprivileged users).
# Most benchmark batches pickle to more than the 64 KiB default (up to about
# 128 KiB), so with it the calling process seldom waits for the child to read.
_PIPE_BYTES = 1 << 20


@dataclass
class ExperimentConfig:
    """Every run knob, declared once: command line flags, config-file keys and
    the memory, learner and synthetic-data specs are derived from the fields."""
    dataset: str = field(default="synthetic", metadata={"help": "synthetic or file:PATH"})
    schedule: str = field(default="stationary", metadata={"help": " or ".join(SCHEDULES)})
    schedule_file: str | None = None
    methods: tuple = field(default=KNOWN_METHODS,
                           metadata={"help": f"comma list from {','.join(KNOWN_METHODS)}"})
    seeds: tuple = field(default=(1,), metadata={"help": "comma list of integer seeds"})
    out_dir: str = "out"
    # reactive memory parameters
    c_max: int = 10
    c_min: int | None = None
    b_max: int = 100
    omega_max: int = 100
    n_s: int = 1000
    tau_s: float = 0.5
    alpha_r: float = 0.4
    beta: float = 4.0
    sigma_k: float = 2.0
    switch_fraction: float = 0.5
    per_centroid_maintenance: bool = field(default=False, metadata={
        "help": "tick one centroid each time its window reaches n_s updates; "
                "same switch/split/removal rules"})
    # class-buffer baseline parameters
    cb_b_max: int = 500
    cb_replay_per_label: int = 10
    # classifier parameters
    hidden_sizes: tuple = field(default=(128, 64, 32),
                                metadata={"help": "comma list of layer widths"})
    learning_rate: float = 1e-3
    epochs_per_batch: int = 10
    minibatch_size: int = 32
    # synthetic dataset parameters
    n_subconcepts: int = 10
    dim: int = 16
    std: float = 1.0
    separation: float = 8.0
    train_per: int = 1000
    test_per: int = 200
    drift_batches: int = 30

    def __post_init__(self):
        self.methods = tuple(self.methods)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.methods or not self.seeds:
            raise ValueError("need at least one method and one seed")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct and non-negative, got "
                             + ",".join(map(str, self.seeds)))
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        # each spec validates its own block of parameters
        self.spec(RsbConfig)
        _make_memory("cb0", self, None)
        if not self.dataset.startswith("file:"):  # a feature file brings its own data
            self.spec(GaussianStreamSpec)
        # the dataset sets the input dim, and GaussianStreamSpec or the
        # feature file checks it, so this checks the rest of the block
        self.spec(ClassifierSpec, input_dim=1)

    def spec(self, cls, **given):
        """Build ``cls`` from the fields it shares with this config, plus ``given``."""
        mine = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}
        return cls(**{**shared, **given})

    def canonical_text(self) -> str:
        # out_dir does not influence results, so it stays out of the config fingerprint
        items = sorted((k, v) for k, v in asdict(self).items() if k != "out_dir")
        return "\n".join(f"{k}={v!r}" for k, v in items)


def rng_for(seed: int, *names: str) -> np.random.Generator:
    """Independent named substream; adding streams never perturbs existing ones."""
    tags = [zlib.crc32(n.encode("utf-8")) for n in names]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *tags]))


def build_dataset(config: ExperimentConfig, seed: int):
    if config.dataset.startswith("file:"):
        return load_features(config.dataset[len("file:"):])
    return generate_gaussian(config.spec(GaussianStreamSpec, seed=seed))


def build_schedule(config: ExperimentConfig):
    if config.schedule_file:
        return load_schedule(config.schedule_file, config.n_subconcepts)
    if config.schedule == "drift":
        return build_drift_schedule(config.n_subconcepts, config.drift_batches)
    return build_stationary_schedule(config.n_subconcepts)


def build_inputs(config: ExperimentConfig, seed: int):
    """The dataset of one seed and the schedule; a file dataset sets the subconcept count."""
    dataset = build_dataset(config, seed)
    if config.dataset.startswith("file:"):
        if len(dataset.subconcept_ids) < 2:
            raise FeatureFileError(f"{config.dataset}: a stream needs at least 2 subconcepts")
        config = replace(config, n_subconcepts=len(dataset.subconcept_ids))
    schedule = build_schedule(config)
    for e in schedule.entries:  # a learner cannot train on an empty batch
        rows = dataset.train(e.subconcept_id)
        if not len(slice_rows(rows, e.slice_start, e.slice_end)):
            where = f"{config.schedule_file}: " if config.schedule_file else ""
            raise ScheduleError(f"{where}batch {e.batch_index}: slice {e.slice_start}.."
                                f"{e.slice_end} selects none of subconcept {e.subconcept_id}'s "
                                f"{len(rows)} training rows")
    return dataset, schedule


def _make_memory(method: str, config: ExperimentConfig, rng):
    if method == "rsb":
        return RsbMemory(config.spec(RsbConfig), rng)
    if method == "sb":
        return StaticCentroidMemory(config.spec(RsbConfig), rng)
    if method in ("cb0", "cb1"):
        try:
            return ClassBuffer(config.cb_b_max, 0.0 if method == "cb0" else 1.0, rng,
                               replay_per_label=config.cb_replay_per_label)
        except ValueError as exc:  # it names its parameter; the field is cb_<parameter>
            raise ValueError(f"cb_{exc}") from None
    return None


def offline_batches(config: ExperimentConfig, dataset, schedule, seed: int, batches):
    """(accuracy, per-subconcept accuracy) of the offline reference at each
    batch t in ``batches``, each retrained from scratch on the rows
    ``presented_rows`` gives for t. Each batch depends only on t.
    """
    spec = config.spec(ClassifierSpec, input_dim=dataset.dim)
    out = []
    for t in batches:
        X, y = presented_rows(schedule, dataset, t)
        model = fit_offline(spec, X, y, rng_for(seed, "offline", str(t)))
        out.append(evaluate_batch(model.predict_labels, eval_pool(schedule, dataset, t)))
    return out


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def offline_shares(dataset, schedule) -> list[list[int]]:
    """The schedule's batches split into one share per available CPU.

    Batches go longest-first by training rows, each to the least-loaded
    share; ties go to the lower batch and the lower share. The split
    depends only on the inputs and the CPU count, never on timing.
    """
    n = max(1, min(_cpus(), len(schedule)))
    rows = [sum(map(np.count_nonzero, presented_masks(schedule, dataset, t).values()))
            for t in range(len(schedule))]
    shares, load = [[] for _ in range(n)], [0] * n
    for t in sorted(range(len(rows)), key=lambda t: (-rows[t], t)):
        k = load.index(min(load))
        shares[k].append(t)
        load[k] += rows[t]
    return [sorted(share) for share in shares]


def _pickled_outcome(work) -> bytes:
    """``(True, work())`` or ``(False, exception)``, pickled. An exception
    that does not survive a pickle round trip travels as a RuntimeError
    carrying its repr."""
    try:
        return pickle.dumps((True, work()))
    except BaseException as exc:  # the parent decides what to raise
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
            return data
        except Exception:
            return pickle.dumps((False, RuntimeError(repr(exc))))


def _fork(work) -> tuple[int, int]:
    """Run ``work()`` in a forked child; return its pid and the read end of
    the pipe that carries its pickled outcome. The child never returns."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_pickled_outcome(work))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _join(pid: int, read_fd: int, job: str) -> tuple[bool, object]:
    """Read a forked child's outcome, then reap it; ``job`` names its work
    in the error of a child that died."""
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:  # a status of -N means signal N ended the child
        return False, RuntimeError(f"{job} in process {pid} sent no result: "
                                   f"exit status {code}")
    return pickle.loads(data)


def run_offline_reference(config: ExperimentConfig, dataset, schedule, seed: int):
    """Retrain from scratch after each batch on everything presented so far.

    The batches are split by ``offline_shares``. The calling process works
    the first share; every other share runs in a child made with
    ``os.fork``, which is always reaped before this returns or raises.
    Each batch is a pure function of its inputs, so the result does not
    depend on the number of CPUs.
    """
    own, *others = offline_shares(dataset, schedule)
    children = []
    try:
        for share in others:
            children.append(_fork(
                lambda share=share: offline_batches(config, dataset, schedule, seed, share)))
        results = dict(zip(own, offline_batches(config, dataset, schedule, seed, own)))
    finally:
        outcomes = [_join(pid, fd, "offline share") for pid, fd in children]
    for share, (ok, value) in zip(others, outcomes):
        if not ok:
            raise value
        results.update(zip(share, value))
    ordered = [results[t] for t in range(len(schedule))]
    return [a for a, _ in ordered], [ps for _, ps in ordered]


def _new_model(method: str, config: ExperimentConfig, dataset, seed: int) -> MlpClassifier:
    return MlpClassifier(config.spec(ClassifierSpec, input_dim=dataset.dim),
                         rng_for(seed, method, "init"))


def _cell_batches(method: str, config: ExperimentConfig, dataset, schedule, seed: int):
    """The stream side of a method cell, one batch at a time.

    For the warm-up (t = -1), if there is one, and then each batch t, the
    memory ingests the batch and ``(t, n_rows, minibatches)`` is yielded;
    the minibatches draw their replay as they are consumed. Nothing here
    reads the model.
    """
    sched_rng = rng_for(seed, "schedule")
    train_rng = rng_for(seed, method, "learner")
    memory = _make_memory(method, config, rng_for(seed, method, "memory"))
    spec = config.spec(ClassifierSpec, input_dim=dataset.dim)

    def ingested(t, instances):
        X, y = ingest_batch(instances, memory)
        return t, len(X), minibatches(X, y, memory, train_rng, spec)

    warm = warmup_instances(schedule, dataset)
    if warm:
        yield ingested(-1, warm)
    for t in range(len(schedule)):
        yield ingested(t, next_batch(schedule, dataset, t, sched_rng))


def _learn(model: MlpClassifier, cell, schedule, dataset):
    """Train the model on each batch ``cell`` yields, evaluating it after
    every batch but the warm-up; return the (accuracy, per-subconcept
    accuracy) of each batch and the TrainRecord of each, warm-up included."""
    evaluations, records = [], []
    for t, n_rows, batches in cell:
        records.append(TrainRecord.of(t, n_rows, *train_epochs(model, batches)))
        if t >= 0:
            evaluations.append(evaluate_batch(model.predict_labels,
                                              eval_pool(schedule, dataset, t)))
    return evaluations, records


def _received_cell(pipe):
    """What ``_learn_in_child`` sends: one pickled ``(t, n_rows, batches)``
    per batch until the pipe ends. The cell ends only at a batch boundary;
    a pipe cut inside a pickle raises from ``pickle.load``."""
    while pipe.peek(1):
        yield pickle.load(pipe)


def _learn_in_child(method: str, config: ExperimentConfig, dataset, schedule, seed: int):
    """``_learn`` with the model in a forked child that trains and evaluates
    what the calling process, which keeps every ingest and replay draw,
    sends it through a pipe. The child is reaped before this returns or
    raises; an error of the child is raised here as itself."""
    import fcntl  # POSIX only, like os.fork

    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above the system's limit
        pass

    def learn():
        os.close(write_fd)  # so that the parent's close reaches this child as EOF
        with open(read_fd, "rb") as pipe:
            return _learn(_new_model(method, config, dataset, seed), _received_cell(pipe),
                          schedule, dataset)

    try:
        pid, result_fd = _fork(learn)
    except BaseException:
        os.close(write_fd)
        raise
    finally:
        os.close(read_fd)
    try:
        # opened only now, so that the child inherits no Python buffer
        with open(write_fd, "wb") as pipe:
            for t, n_rows, batches in _cell_batches(method, config, dataset, schedule, seed):
                pickle.dump((t, n_rows, list(batches)), pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
    except BrokenPipeError:  # the child stopped reading; its outcome says why
        pass
    finally:
        ok, value = _join(pid, result_fd, f"{method} learner")
    if not ok:
        raise value
    return value


def run_method(method: str, config: ExperimentConfig, dataset, schedule, seed: int,
               offline_alphas, offline_per_sub) -> MetricsRecord:
    """One method's cell: the record of its accuracy after every batch.

    With a second CPU, the cell's learner runs in a forked child
    (``_learn_in_child``); with one, in the calling process. Both give the
    same bytes.
    """
    if method == "offline":
        return MetricsRecord("offline", seed, list(offline_alphas),
                             [dict(p) for p in offline_per_sub],
                             omega_all(offline_alphas, offline_alphas))
    if _cpus() >= 2:
        evaluations, _ = _learn_in_child(method, config, dataset, schedule, seed)
    else:
        evaluations, _ = _learn(_new_model(method, config, dataset, seed),
                                _cell_batches(method, config, dataset, schedule, seed),
                                schedule, dataset)
    alphas = [a for a, _ in evaluations]
    return MetricsRecord(method, seed, alphas, [ps for _, ps in evaluations],
                         omega_all(alphas, offline_alphas))


def run_seed(config: ExperimentConfig, seed: int):
    """All methods for one seed; returns (records, failures).

    Every cell needs the offline reference for its omega, so if the
    reference fails, each requested cell of this seed fails with its cause.
    """
    dataset, schedule = build_inputs(config, seed)
    try:
        offline_alphas, offline_per_sub = run_offline_reference(config, dataset, schedule, seed)
    except Exception as exc:  # a failed seed must not stop the next one
        cause = f"{type(exc).__name__}: {exc}"
        return [], {f"{method}/seed{seed}": cause for method in config.methods}
    records, failures = [], {}
    for method in config.methods:
        try:
            records.append(run_method(method, config, dataset, schedule, seed,
                                      offline_alphas, offline_per_sub))
        except Exception as exc:  # one failed cell must not poison the rest
            failures[f"{method}/seed{seed}"] = f"{type(exc).__name__}: {exc}"
    return records, failures


def run_experiment(config: ExperimentConfig) -> int:
    records, failures = [], {}
    for seed in config.seeds:
        recs, fails = run_seed(config, seed)
        records.extend(recs)
        failures.update(fails)
    for cell, msg in sorted(failures.items()):
        print(f"FAILED {cell}: {msg}", file=sys.stderr)
    if not records:
        return 1
    emit_report(records, Path(config.out_dir), config.canonical_text())
    return 3 if failures else 0
