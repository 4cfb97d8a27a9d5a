"""Workloads, metric tables and the measured pass over the public experiment API.

One pass mirrors ``experiment.run_seed`` from outside: the offline
reference, ``run_method`` for every method, then ``emit_report``. Each
call is timed, every record is checked, and the report files are hashed
so that repeated and traced passes can be compared byte for byte.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from driftreplay import experiment
from driftreplay.evaluation import emit_report
from driftreplay.experiment import (
    KNOWN_METHODS,
    ExperimentConfig,
    build_dataset,
    build_schedule,
    run_method,
    run_offline_reference,
)
from driftreplay.streams import warmup_instances

import spans

# Every workload streams the 30-batch drift schedule. The paper default of
# 1000 training rows per subconcept takes about 80 s per seed on a 2-core
# machine, too long to repeat within one run, so the data is scaled down
# to 50 training and 40 test rows per subconcept. The maintenance period
# shrinks with it: at the default n_s=1000 maintenance ticks once per
# stream and never removes a centroid; every 400 rows it ticks three times
# and switches, splits and removes centroids on every workload. Other
# memory, learner and schedule parameters keep their defaults.
SCALE = {"schedule": "drift", "train_per": 50, "test_per": 40, "n_s": 400}
WIDE = {"dim": 64, "n_subconcepts": 20, "c_max": 50}
BASELINE_METHODS = ("cb0", "cb1", "nn")
# The offline reference is as long as all other cells together and steadier
# than the short baseline cells, so untraced passes time it every
# OFFLINE_EVERY passes and reuse its result in between, which gives the
# other cells more samples in the same time.
OFFLINE_EVERY = 2
MIN_PASSES = 2  # each process times the offline reference at least once


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    methods: tuple = KNOWN_METHODS

    def config(self, seed: int, out_dir) -> ExperimentConfig:
        return ExperimentConfig(methods=self.methods, seeds=(seed,),
                                out_dir=str(out_dir), **self.overrides)


WORKLOADS = {w.name: w for w in (
    Workload("drift-default",
             "defaults at benchmark scale, six methods: learner-bound, the offline retrain is "
             "about half a pass and the learner about 45% of rsb",
             dict(SCALE)),
    Workload("wide-single-pass",
             "about 80 centroids, one epoch per batch: memory ingest is about 64% of rsb, "
             "replay sampling 9%, learner steps 13%",
             {**SCALE, **WIDE, "epochs_per_batch": 1}),
)}

# Configurations used only by the self-test. criterion-9 is the acceptance
# suite's byte-identity config (stationary schedule, seed 11). wide-replay
# is wide-single-pass with the default ten epochs per batch; its memory
# counts must equal wide-single-pass's.
SELF_TEST_WORKLOADS = {w.name: w for w in (
    Workload("wide-replay", "wide-single-pass with ten epochs per batch",
             {**SCALE, **WIDE}),
    Workload("criterion-9", "acceptance criterion 9 config",
             dict(n_subconcepts=3, dim=4, train_per=80, test_per=20,
                  hidden_sizes=(16,), epochs_per_batch=3),
             methods=("rsb", "nn", "offline")),
    Workload("tiny-drift", "all six methods on a tiny drift stream",
             dict(schedule="drift", n_subconcepts=4, dim=4, train_per=80, test_per=20,
                  n_s=200, hidden_sizes=(16,), epochs_per_batch=3)),
)}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Over ten seeds per workload, the spread (IQR over median) of a metric must
# stay within its bound. Accuracy bounds are about three times the largest
# seed-to-seed spread measured on either workload, capped at 0.25; times
# get the cap because the machine's speed drifts between runs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("offline_s", "s", "lower", 0.25),
    ("rsb_s", "s", "lower", 0.25),
    ("sb_s", "s", "lower", 0.25),
    ("baseline_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("acc.offline", "ratio", "higher", 0.1),
    ("acc.rsb", "ratio", "higher", 0.15),
    ("acc.sb", "ratio", "higher", 0.2),
    ("acc.cb0", "ratio", "higher", 0.1),
    ("acc.cb1", "ratio", "higher", 0.25),
    ("acc.nn", "ratio", "higher", 0.2),
    ("omega.rsb", "ratio", "higher", 0.25),
]

# Spans reported with inclusive seconds (.s); those with traced children
# also report self seconds (.self_s).
TIMED_SPANS = [
    "learner.step", "learner.loss_and_grads", "learner.adam_step", "learner.predict",
    "learner.fit_offline", "memory.ingest", "memory.find_nearest", "memory.maintenance",
    "memory.window.push", "memory.window.top_two_counts", "replay.sample", "replay.balance",
    "baselines.sb_ingest", "baselines.cb_ingest", "baselines.cb_sample",
    "streams.generate_gaussian", "streams.next_batch", "evaluation.evaluate_batch",
    "evaluation.emit_report",
]
SELF_TIMED_SPANS = [
    "learner.step", "learner.fit_offline", "memory.ingest", "memory.maintenance",
    "replay.sample", "baselines.sb_ingest", "evaluation.evaluate_batch",
]
COUNTS = [
    ("learner.step.n", "count"), ("learner.step.rows", "rows"),
    ("learner.predict.n", "count"), ("learner.fit_offline.rows", "rows"),
    ("memory.ingest.n", "count"),
    ("memory.find_nearest.n", "count"), ("memory.find_nearest.scanned", "count"),
    ("memory.maintenance.n", "count"),
    ("memory.events.created", "count"), ("memory.events.updated", "count"),
    ("memory.events.switched", "count"), ("memory.events.split", "count"),
    ("memory.events.removed", "count"), ("memory.centroids.final", "count"),
    ("memory.window.push.n", "count"), ("memory.window.top_two_counts.n", "count"),
    ("replay.sample.n", "count"), ("replay.sample.considered", "count"),
    ("replay.sample.drawn", "count"), ("replay.balance.n", "count"),
    ("replay.balance.added", "count"),
    ("baselines.sb_ingest.n", "count"), ("baselines.cb_ingest.n", "count"),
    ("baselines.cb_sample.n", "count"),
    ("streams.next_batch.n", "count"),
    ("evaluation.evaluate_batch.n", "count"), ("evaluation.evaluate_batch.rows", "rows"),
]
PER_LAYER = (
    [(f"{s}.s", "s", "lower") for s in TIMED_SPANS]
    + [(f"{s}.self_s", "s", "lower") for s in SELF_TIMED_SPANS]
    + [(name, unit, "lower") for name, unit in COUNTS]
    + [("replay.gate_pass_ratio", "ratio", "higher"), ("trace.wall_ratio", "ratio", "lower")]
)


REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def lookup(name: str) -> Workload:
    return WORKLOADS.get(name) or SELF_TEST_WORKLOADS[name]


def reference_status(workload: str, seed: int, digests: dict) -> str:
    """Compare report digests with the recorded byte-identity reference."""
    recorded = json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return "none recorded"
    return "match" if recorded == digests else "differ"


def setup(workload: Workload, seed: int):
    """Inputs of one seed: the dataset, the schedule and the warm-up sample."""
    config = workload.config(seed, "unused")
    dataset = build_dataset(config, seed)
    schedule = build_schedule(config)
    warm = warmup_instances(schedule, dataset)
    return dataset, schedule, warm


def check_record(record, n_batches: int) -> str | None:
    """Why a method's record is invalid, or None if it is valid."""
    alphas = list(record.alphas)
    if len(alphas) != n_batches:
        return f"{len(alphas)} accuracies for {n_batches} batches"
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in alphas):
        return "accuracy outside [0, 1] or not finite"
    if record.method == "offline" and not all(a > 0.0 for a in alphas):
        return "offline accuracy is not positive"
    if record.omega is None or not math.isfinite(record.omega):
        return "omega is missing or not finite"
    return None


@dataclass
class PassResult:
    # seconds of each batch segment per cell (offline, each method,
    # emit_report); a cell's segments sum to its time
    segments: dict = field(default_factory=dict)
    wall: float = 0.0
    accuracy: dict = field(default_factory=dict)   # method -> mean per-batch accuracy
    omega: dict = field(default_factory=dict)      # method -> normalized average accuracy
    digests: dict = field(default_factory=dict)    # report file name -> sha256
    failures: dict = field(default_factory=dict)   # method -> reason
    offline: tuple | None = None                   # offline reference result, if it ran
    attempted: int = 0
    failed: int = 0

    def to_json(self) -> dict:
        """Everything but the offline result, which stays in its process."""
        data = asdict(self)
        del data["offline"]
        return data


@contextmanager
def batch_marks(marks: list):
    """Append a timestamp whenever a cell starts a batch.

    Hooks the per-batch calls the experiment module looks up: next_batch
    in run_method and fit_offline in the offline reference. One clock read
    per batch; inputs and outputs pass through untouched.
    """
    saved = experiment.next_batch, experiment.fit_offline

    def marked(fn):
        def call(*args, **kwargs):
            marks.append(perf_counter())
            return fn(*args, **kwargs)
        return call

    experiment.next_batch, experiment.fit_offline = marked(saved[0]), marked(saved[1])
    try:
        yield
    finally:
        experiment.next_batch, experiment.fit_offline = saved


def run_pass(workload: Workload, seed: int, dataset, schedule, out_dir: Path,
             tracer: spans.Tracer | None = None, offline=None) -> PassResult:
    """Offline reference, every method and the report, each batch timed.

    ``offline`` is the result of an earlier pass's offline reference; when
    given, the reference is not run again and has no time in this pass.
    A method that raises or fails ``check_record`` counts all its batches
    as failed ops; one op is one method's fit plus evaluation on one batch.
    """
    config = workload.config(seed, out_dir)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    n = len(schedule)
    res = PassResult(attempted=n * len(config.methods))
    records = []
    marks = []

    def timed(cell, name, call):
        marks.clear()
        t0 = perf_counter()
        try:
            with span(name):
                return call()
        finally:
            edges = [t0, *marks, perf_counter()]
            res.segments[cell] = [b - a for a, b in zip(edges, edges[1:])]

    gc.collect()
    start = perf_counter()
    with batch_marks(marks):
        if "offline" in config.methods and offline is None:
            try:
                offline = timed("offline", "experiment.run_offline_reference",
                                lambda: run_offline_reference(config, dataset, schedule, seed))
            except Exception as exc:  # a failed cell is counted, not fatal
                res.failures["offline"] = f"{type(exc).__name__}: {exc}"
        res.offline = offline
        if offline is None:  # no offline method, or it failed: all-ones accuracies
            offline = ([1.0] * n, [{} for _ in range(n)])
        for method in config.methods:
            if method in res.failures:
                continue
            def call():
                return run_method(method, config, dataset, schedule, seed, *offline)
            try:
                # the offline record only repackages the reference, timed above
                record = call() if method == "offline" else timed(
                    method, "experiment.run_method", call)
            except Exception as exc:  # a failed cell is counted, not fatal
                res.failures[method] = f"{type(exc).__name__}: {exc}"
                continue
            records.append(record)
            problem = check_record(record, n)
            if problem:
                res.failures[method] = problem
            res.accuracy[method] = statistics.fmean(record.alphas)
            res.omega[method] = record.omega
    paths = []
    if records:  # emit_report refuses an empty run
        paths = timed("emit_report", "evaluation.emit_report",
                      lambda: emit_report(records, out_dir, config.canonical_text()))
    res.wall = perf_counter() - start
    res.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    res.failed = n * len(res.failures)
    return res


def cell_seconds(passes, cell: str) -> float:
    """Robust time of one cell: per-batch medians over passes, summed.

    Load from other tenants slows a few seconds at a time, so it hits
    different batches in different passes; the per-batch median drops it.
    """
    runs = [p.segments[cell] for p in passes if cell in p.segments]
    if not runs:
        return math.nan
    if len({len(r) for r in runs}) != 1:  # a failed cell stops early
        return statistics.median(sum(r) for r in runs)
    return sum(statistics.median(batch) for batch in zip(*runs))


def wall_seconds(passes) -> float:
    """Robust time of a whole pass: the sum of its cells' robust times."""
    cells = {cell for p in passes for cell in p.segments}
    return sum(cell_seconds(passes, cell) for cell in cells)


def end_to_end_metrics(workload: Workload, passes, setup_samples, peak_rss_mb) -> dict:
    """Every end-to-end metric the workload produces."""
    first = passes[0]
    methods = set(workload.methods)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_seconds(passes),
        "peak_rss_mb": peak_rss_mb,
    }
    for key in ("offline", "rsb", "sb"):
        if key in methods:
            values[f"{key}_s"] = cell_seconds(passes, key)
    if methods.issuperset(BASELINE_METHODS):
        values["baseline_s"] = sum(cell_seconds(passes, m) for m in BASELINE_METHODS)
    for method in workload.methods:
        if method in first.accuracy:
            values[f"acc.{method}"] = first.accuracy[method]
    if "rsb" in first.omega:
        values["omega.rsb"] = first.omega["rsb"]
    return values


def per_layer_metrics(tracers, traced_passes, untraced_passes) -> dict:
    """Medians of span seconds over traced passes, plus exact counts."""
    totals = [t.totals() for t in tracers]
    values = {}
    for name in TIMED_SPANS:
        values[f"{name}.s"] = statistics.median([inc[name] for inc, _ in totals])
    for name in SELF_TIMED_SPANS:
        values[f"{name}.self_s"] = statistics.median([own[name] for _, own in totals])
    counts = layer_counts(tracers[0])
    values.update(counts)
    gated = counts.get("replay.gated.considered", 0)
    values["replay.gate_pass_ratio"] = (
        counts.get("replay.gated.drawn", 0) / gated if gated else 0.0)
    values.pop("replay.gated.considered", None)
    values.pop("replay.gated.drawn", None)
    values["trace.wall_ratio"] = wall_seconds(traced_passes) / wall_seconds(untraced_passes)
    return values


def layer_counts(tracer: spans.Tracer) -> dict:
    counts = {name: tracer.counts.get(name, 0) for name, _ in COUNTS}
    counts["replay.gated.considered"] = tracer.counts.get("replay.gated.considered", 0)
    counts["replay.gated.drawn"] = tracer.counts.get("replay.gated.drawn", 0)
    mem = tracer.last_rsb_memory
    counts["memory.centroids.final"] = (
        sum(len(g) for g in mem.centroids.values()) if mem is not None else 0)
    return counts


def _repeat(step, until: float, t_start: float, at_least: int):
    """Run step at_least times, then again while the next run fits before until."""
    done = 0
    while True:
        t0 = perf_counter()
        step()
        done += 1
        now = perf_counter()
        if done >= at_least and now - t_start + (now - t0) > until:
            return


def warm_up(out_dir: Path):
    """One untimed pass of a tiny config: loads lazy imports and fills caches."""
    warm = SELF_TEST_WORKLOADS["criterion-9"]
    run_pass(warm, 11, *setup(warm, 11)[:2], out_dir / "warmup")


def timed_passes(workload: Workload, seed: int, seconds: float, out_dir: Path,
                 at_least: int = MIN_PASSES) -> list[PassResult]:
    """Untraced passes of one seed, repeated for about ``seconds``.

    Every OFFLINE_EVERY-th pass, starting with the first, runs the offline
    reference; the others reuse its result.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    warm_up(out_dir)
    dataset, schedule, _ = setup(workload, seed)
    passes = []

    def one_pass():
        reuse = passes[-1].offline if len(passes) % OFFLINE_EVERY else None
        passes.append(run_pass(workload, seed, dataset, schedule, out_dir / "report",
                               offline=reuse))

    _repeat(one_pass, seconds, perf_counter(), at_least)
    return passes


def _result(passes, values: dict, table, problems: list) -> tuple[dict, dict]:
    """The printed result object and the details every run logs."""
    if any(p.digests != passes[0].digests for p in passes):
        problems.append("report digests differ between passes")
    failed = sum(p.failed for p in passes)
    metrics = {row[0]: {"value": values[row[0]], "unit": row[1]}
               for row in table if row[0] in values}
    result = {"correct": not problems and failed == 0,
              "attempted": sum(p.attempted for p in passes),
              "failed": failed, "metrics": metrics}
    details = {"digests": passes[0].digests, "problems": problems,
               "failures": {m: r for p in passes for m, r in p.failures.items()}}
    return result, details


def summarise(workload: Workload, passes, setup_samples, peak_rss_mb: float):
    """End-to-end result of untraced passes, which may come from several processes."""
    values = end_to_end_metrics(workload, passes, setup_samples, peak_rss_mb)
    result, details = _result(passes, values, END_TO_END, [])
    details["passes"] = {"untraced": [{"wall": p.wall, "segments": p.segments}
                                      for p in passes], "traced": []}
    details["setup_samples_s"] = setup_samples
    return result, details


def measure_traced(workload: Workload, seed: int, seconds: float, out_dir: Path):
    """Per-layer result: untraced passes for half the time, then traced ones.

    Each traced pass runs the offline reference and builds its own inputs,
    so that set-up spans are recorded too.
    """
    t_start = perf_counter()
    untraced = timed_passes(workload, seed, seconds / 2, out_dir, at_least=1)
    traced, tracers = [], []

    def traced_pass():
        tracer = spans.Tracer()
        with spans.traced(tracer):
            with tracer.span("setup"):
                dataset, schedule, _ = setup(workload, seed)
            traced.append(run_pass(workload, seed, dataset, schedule, out_dir / "report",
                                   tracer))
        tracers.append(tracer)

    _repeat(traced_pass, seconds, t_start, 1)
    counts = [layer_counts(t) for t in tracers]
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("layer counts differ between traced passes")
    values = per_layer_metrics(tracers, traced, untraced)
    result, details = _result(untraced + traced, values, PER_LAYER, problems)
    tracers[-1].write_csv(out_dir / "spans.csv")
    details["passes"] = {"untraced": [{"wall": p.wall, "segments": p.segments}
                                      for p in untraced],
                         "traced": [{"wall": p.wall} for p in traced]}
    details["counts"] = counts[0]
    return result, details
