"""Experiment orchestration: run each method over a shared stream and report."""
from __future__ import annotations

import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .baselines import ClassBuffer, StaticCentroidMemory
from .evaluation import MetricsRecord, emit_report, evaluate_batch, omega_all
from .learner import ClassifierSpec, MlpClassifier, fit_batch, fit_offline
from .memory import LabeledInstance, RsbConfig, RsbMemory
from .streams import (
    GaussianStreamSpec,
    build_drift_schedule,
    build_stationary_schedule,
    eval_pool,
    generate_gaussian,
    load_features,
    load_schedule,
    next_batch,
    warmup_instances,
)

KNOWN_METHODS = ("rsb", "sb", "cb0", "cb1", "nn", "offline")
REPLAY_METHODS = ("rsb", "sb", "cb0", "cb1")


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"          # "synthetic" or "file:PATH"
    schedule: str = "stationary"        # "stationary" or "drift"
    schedule_file: str | None = None
    methods: tuple = KNOWN_METHODS
    seeds: tuple = (1,)
    out_dir: str = "out"
    jobs: int = 1
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
    per_centroid_maintenance: bool = False
    # class-buffer baseline parameters
    cb_b_max: int = 500
    cb_replay_per_label: int = 10
    # classifier parameters
    hidden_sizes: tuple = (128, 64, 32)
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
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        self.rsb_config()  # validates the memory parameter block

    def rsb_config(self) -> RsbConfig:
        return RsbConfig(
            c_max=self.c_max, c_min=self.c_min, b_max=self.b_max,
            omega_max=self.omega_max, n_s=self.n_s, tau_s=self.tau_s,
            alpha_r=self.alpha_r, beta=self.beta, sigma_k=self.sigma_k,
            switch_fraction=self.switch_fraction,
            per_centroid_maintenance=self.per_centroid_maintenance,
        )

    def canonical_text(self) -> str:
        # out_dir and jobs do not influence results, so they stay out of
        # the config fingerprint
        items = sorted((k, v) for k, v in asdict(self).items()
                       if k not in ("out_dir", "jobs"))
        return "\n".join(f"{k}={v!r}" for k, v in items)


def rng_for(seed: int, *names: str) -> np.random.Generator:
    """Independent named substream; adding streams never perturbs existing ones."""
    tags = [zlib.crc32(n.encode("utf-8")) for n in names]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *tags]))


def build_dataset(config: ExperimentConfig, seed: int):
    if config.dataset.startswith("file:"):
        return load_features(config.dataset[len("file:"):])
    spec = GaussianStreamSpec(
        n_subconcepts=config.n_subconcepts, dim=config.dim, std=config.std,
        separation=config.separation, train_per=config.train_per,
        test_per=config.test_per, seed=seed,
    )
    return generate_gaussian(spec)


def build_schedule(config: ExperimentConfig):
    if config.schedule_file:
        return load_schedule(config.schedule_file, config.n_subconcepts)
    if config.schedule == "stationary":
        return build_stationary_schedule(config.n_subconcepts)
    if config.schedule == "drift":
        return build_drift_schedule(config.n_subconcepts, config.drift_batches)
    raise ValueError(f"unknown schedule kind {config.schedule!r}")


def _make_memory(method: str, config: ExperimentConfig, rng):
    if method == "rsb":
        return RsbMemory(config.rsb_config(), rng)
    if method == "sb":
        return StaticCentroidMemory(config.rsb_config(), rng)
    if method in ("cb0", "cb1"):
        tau = 0.0 if method == "cb0" else 1.0
        return ClassBuffer(config.cb_b_max, tau, rng,
                           replay_per_label=config.cb_replay_per_label)
    return None


def _classifier_spec(config: ExperimentConfig, dim: int) -> ClassifierSpec:
    return ClassifierSpec(
        input_dim=dim, hidden_sizes=config.hidden_sizes,
        learning_rate=config.learning_rate,
        epochs_per_batch=config.epochs_per_batch,
        minibatch_size=config.minibatch_size,
    )


def run_offline_reference(config: ExperimentConfig, dataset, schedule, seed: int):
    """Retrain from scratch after each batch on everything presented so far.

    Re-presented data is deduplicated per subconcept and relabeled to the
    current ground truth before retraining.
    """
    spec = _classifier_spec(config, dataset.dim)
    masks = {sid: np.zeros(len(dataset.train(sid)), dtype=bool)
             for sid in dataset.subconcept_ids}
    for sid in schedule.warmup_subconcepts:
        n = len(dataset.train(sid))
        masks[sid][: math.floor(schedule.warmup_fraction * n)] = True
    alphas, per_sub = [], []
    for t in range(len(schedule)):
        e = schedule.entry(t)
        n = len(dataset.train(e.subconcept_id))
        lo = math.floor(e.slice_start * n)
        hi = math.floor(e.slice_end * n)
        masks[e.subconcept_id][lo:hi] = True
        label_map = schedule.current_label_map(t)
        instances = []
        for sid, label in label_map.items():
            block = dataset.train(sid)[masks[sid]]
            instances.extend(LabeledInstance(row, label, sid) for row in block)
        model = fit_offline(spec, instances, rng_for(seed, "offline", str(t)))
        a, ps = evaluate_batch(model.predict_labels, eval_pool(schedule, dataset, t))
        alphas.append(a)
        per_sub.append(ps)
    return alphas, per_sub


def run_method(method: str, config: ExperimentConfig, dataset, schedule, seed: int,
               offline_alphas, offline_per_sub) -> MetricsRecord:
    if method == "offline":
        return MetricsRecord("offline", seed, list(offline_alphas),
                             [dict(p) for p in offline_per_sub],
                             list(offline_alphas),
                             omega_all(offline_alphas, offline_alphas))
    sched_rng = rng_for(seed, "schedule")
    train_rng = rng_for(seed, method, "learner")
    memory = _make_memory(method, config, rng_for(seed, method, "memory"))
    model = MlpClassifier(_classifier_spec(config, dataset.dim),
                          rng_for(seed, method, "init"))
    replay_enabled = method in REPLAY_METHODS
    warm = warmup_instances(schedule, dataset)
    if warm:
        fit_batch(model, warm, memory, replay_enabled, train_rng, batch_index=-1)
    alphas, per_sub = [], []
    for t in range(len(schedule)):
        instances, pool = next_batch(schedule, dataset, t, sched_rng)
        fit_batch(model, instances, memory, replay_enabled, train_rng, batch_index=t)
        a, ps = evaluate_batch(model.predict_labels, pool)
        alphas.append(a)
        per_sub.append(ps)
    return MetricsRecord(method, seed, alphas, per_sub, list(offline_alphas),
                         omega_all(alphas, offline_alphas))


def run_seed(config: ExperimentConfig, seed: int):
    """All methods for one seed; returns (records, failures)."""
    dataset = build_dataset(config, seed)
    schedule = build_schedule(config)
    offline_alphas, offline_per_sub = run_offline_reference(config, dataset, schedule, seed)
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
    if config.jobs > 1 and len(config.seeds) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for recs, fails in pool.map(_run_seed_cell, [(config, s) for s in config.seeds]):
                records.extend(recs)
                failures.update(fails)
    else:
        for seed in config.seeds:
            recs, fails = run_seed(config, seed)
            records.extend(recs)
            failures.update(fails)
    if failures:
        import sys
        for cell, msg in sorted(failures.items()):
            print(f"FAILED {cell}: {msg}", file=sys.stderr)
    if records:
        emit_report(records, Path(config.out_dir), config.canonical_text())
    return 0 if records else 1


def _run_seed_cell(args):
    config, seed = args
    return run_seed(config, seed)
