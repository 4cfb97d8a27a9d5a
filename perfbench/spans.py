"""Spans and counters recorded from outside the program.

Tracing wraps public callables at the name their caller looks up (a module
global or a class attribute), records one span per call with its parent,
and restores every original on exit. Spans stay in memory until the
benchmark writes them out; nothing here draws random numbers or changes
what the wrapped callables return.
"""
from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from driftreplay import baselines, experiment, learner, memory, replay


class Tracer:
    """Flat span log: parallel lists of name, start, end and parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_rsb_memory = None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def totals(self):
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, so it is never counted twice up the tree.
        """
        inclusive: Counter = Counter()
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        own: Counter = Counter()
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            inclusive[name] += dur
            own[name] += dur - child[idx]
        return inclusive, own

    def write_csv(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            for idx, name in enumerate(self.names):
                writer.writerow([idx, name, f"{self.starts[idx] - t0:.9f}",
                                 f"{self.ends[idx] - t0:.9f}", self.parents[idx]])


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def call(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result
    call.__wrapped__ = fn
    return call


def _count(key: str):
    def after(tracer, args, result):
        tracer.counts[key] += 1
    return after


def _after_step(tracer, args, result):
    tracer.counts["learner.step.n"] += 1
    tracer.counts["learner.step.rows"] += len(args[1])


def _after_fit_offline(tracer, args, result):
    tracer.counts["learner.fit_offline.rows"] += len(args[1])


def _after_rsb_ingest(tracer, args, result):
    tracer.counts["memory.ingest.n"] += 1
    for event in result:
        tracer.counts[f"memory.events.{event.kind}"] += 1
    tracer.last_rsb_memory = args[0]


def _after_sample(tracer, args, result):
    mem = args[0]
    c = tracer.counts
    c["replay.sample.n"] += 1
    c["replay.sample.drawn"] += len(result)
    if mem is None:
        return
    if isinstance(mem, baselines.ClassBuffer):  # one source per non-empty label
        considered = sum(1 for g in mem.buffers.values() if g)
    else:
        considered = sum(1 for cen in mem.all_centroids() if cen.buffer.items)
    c["replay.sample.considered"] += considered
    if mem.purity_gated:
        c["replay.gated.considered"] += considered
        c["replay.gated.drawn"] += len(result)


def _after_balance(tracer, args, result):
    tracer.counts["replay.balance.n"] += 1
    tracer.counts["replay.balance.added"] += len(result) - len(args[0])


def _after_next_batch(tracer, args, result):
    tracer.counts["streams.next_batch.n"] += 1


def _after_evaluate(tracer, args, result):
    tracer.counts["evaluation.evaluate_batch.n"] += 1
    tracer.counts["evaluation.evaluate_batch.rows"] += len(args[1])


def _find_nearest(tracer: Tracer, fn):
    """find_nearest takes an iterable of centroids; count how many it scans."""
    def call(centroids, x):
        centroids = list(centroids)
        tracer.counts["memory.find_nearest.n"] += 1
        tracer.counts["memory.find_nearest.scanned"] += len(centroids)
        idx = tracer.open("memory.find_nearest")
        try:
            return fn(centroids, x)
        finally:
            tracer.close(idx)
    call.__wrapped__ = fn
    return call


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    def at(owner, attr, name, after=None):
        return owner, attr, _wrap(tracer, name, getattr(owner, attr), after)

    mlp = learner.MlpClassifier
    window = memory.SlidingWindow
    return [
        at(mlp, "train_minibatch", "learner.step", _after_step),
        at(mlp, "loss_and_grads", "learner.loss_and_grads"),
        at(mlp, "adam_step", "learner.adam_step"),
        at(mlp, "predict_labels", "learner.predict", _count("learner.predict.n")),
        at(experiment, "fit_offline", "learner.fit_offline", _after_fit_offline),
        at(memory.RsbMemory, "ingest", "memory.ingest", _after_rsb_ingest),
        at(memory.RsbMemory, "maintenance", "memory.maintenance",
           _count("memory.maintenance.n")),
        (memory, "find_nearest", _find_nearest(tracer, memory.find_nearest)),
        at(window, "push", "memory.window.push", _count("memory.window.push.n")),
        at(window, "top_two_counts", "memory.window.top_two_counts",
           _count("memory.window.top_two_counts.n")),
        at(learner, "sample_replay", "replay.sample", _after_sample),
        at(learner, "oversample_balance", "replay.balance", _after_balance),
        at(baselines.StaticCentroidMemory, "ingest", "baselines.sb_ingest",
           _count("baselines.sb_ingest.n")),
        at(baselines.ClassBuffer, "ingest", "baselines.cb_ingest",
           _count("baselines.cb_ingest.n")),
        at(replay, "cb_sample", "baselines.cb_sample", _count("baselines.cb_sample.n")),
        at(experiment, "generate_gaussian", "streams.generate_gaussian"),
        at(experiment, "next_batch", "streams.next_batch", _after_next_batch),
        at(experiment, "evaluate_batch", "evaluation.evaluate_batch", _after_evaluate),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
