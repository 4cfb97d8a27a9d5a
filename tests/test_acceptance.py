"""Acceptance suite: one verdict line per criterion.

Criteria 1-3 run the full benchmark at desk scale (3 seeds each), so this
module takes a few minutes. Everything else is fast and deterministic.
"""
import math
import statistics
import time

import numpy as np
import pytest

from driftreplay.baselines import ClassBuffer
from driftreplay.evaluation import omega_all
from driftreplay.experiment import ExperimentConfig, run_experiment, run_seed
from driftreplay.learner import ClassifierSpec, MlpClassifier, gradient_check
from driftreplay.memory import (
    LabeledInstance,
    ReactiveCentroid,
    RsbConfig,
    RsbMemory,
    SlidingWindow,
    apply_split,
    check_split,
    find_nearest,
)
from driftreplay.replay import sample_replay

SEEDS = (1, 2, 3)


def inst(x, y):
    return LabeledInstance(np.atleast_1d(np.asarray(x, dtype=np.float64)), y)


def verdict(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_benchmark(schedule, methods):
    config = ExperimentConfig(methods=methods, seeds=SEEDS, schedule=schedule,
                              out_dir="unused")
    records, timings = {}, {}
    for seed in SEEDS:
        t0 = time.monotonic()
        recs, failures = run_seed(config, seed)
        timings[seed] = time.monotonic() - t0
        assert failures == {}, failures
        for r in recs:
            records.setdefault(r.method, {})[seed] = r
    return records, timings


def medians(records):
    return {m: statistics.median(r.omega for r in by_seed.values())
            for m, by_seed in records.items()}


@pytest.fixture(scope="module")
def stationary_run():
    return run_benchmark("stationary", ("rsb", "sb", "nn", "offline"))


@pytest.fixture(scope="module")
def drift_run():
    return run_benchmark("drift", ("rsb", "sb", "cb0", "cb1", "nn", "offline"))


# ------------------------------------------------------------- criteria 1-3

def test_criterion_1_stationary_ordering(stationary_run):
    records, timings = stationary_run
    med = medians(records)
    slowest = max(timings.values())
    ok = (med["rsb"] >= 0.95 and med["sb"] >= 0.90 and med["nn"] <= 0.75
          and med["rsb"] >= med["sb"] and med["offline"] == 1.0
          and slowest < 120.0)
    verdict(1, ok, f"stationary medians rsb={med['rsb']:.4f} sb={med['sb']:.4f} "
                   f"nn={med['nn']:.4f} offline={med['offline']:.4f}, "
                   f"slowest seed {slowest:.1f}s (< 120s)")


def test_criterion_2_drift_ordering(drift_run):
    records, timings = drift_run
    med = medians(records)
    slowest = max(timings.values())
    ok = (med["rsb"] >= 0.90
          and med["rsb"] - med["sb"] >= 0.10
          and med["rsb"] - med["cb0"] >= 0.10
          and med["cb1"] >= med["sb"]
          and slowest < 300.0)
    verdict(2, ok, f"drift medians rsb={med['rsb']:.4f} sb={med['sb']:.4f} "
                   f"cb0={med['cb0']:.4f} cb1={med['cb1']:.4f}, "
                   f"slowest seed {slowest:.1f}s (< 300s)")


def test_criterion_3_per_class_recovery(drift_run):
    records, _ = drift_run
    details = []
    ok = True
    for seed in SEEDS:
        rsb = records["rsb"][seed].per_subconcept
        sb = records["sb"][seed].per_subconcept
        # the first drifting subconcept flips across batches 4-5
        recovered = max(rsb[6].get(0, 0.0), rsb[7].get(0, 0.0))
        sb_trace = [sb[t].get(0, 1.0) for t in range(6, 30)]
        streak = longest_run_below(sb_trace, 0.50)
        details.append(f"seed {seed}: rsb C0 recovery {recovered:.3f}, "
                       f"sb low-streak {streak}")
        ok = ok and recovered >= 0.90 and streak >= 5
    verdict(3, ok, "; ".join(details))


def longest_run_below(values, bound):
    best = run = 0
    for v in values:
        run = run + 1 if v <= bound else 0
        best = max(best, run)
    return best


# ------------------------------------------------------------- criterion 4

def test_criterion_4_switch_latency():
    mem = RsbMemory(RsbConfig(c_min=1, n_s=10**6), np.random.default_rng(0))
    mem.ingest(inst([0.0], 1))
    mem.ingest(inst([1000.0], 0))
    for x in (-1.0, 1.0, -1.0, 1.0):
        mem.ingest(inst([x], 1))
    target = mem.centroids[1][0]
    switched_at = None
    for i in range(1, 61):
        events = mem.ingest(inst([0.0], 0))
        if any(e.kind == "switched" for e in events):
            switched_at = i
            break
    pure = all(i.label == 0 for i in target.buffer.items)
    ok = switched_at == 50 and target.label == 0 and pure
    verdict(4, ok, f"relabeled after {switched_at} opposite-label instances "
                   f"(expected 50); post-switch buffer pure={pure}")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_purity_monte_carlo():
    mem = RsbMemory(RsbConfig(c_min=1, n_s=10**6), np.random.default_rng(0))
    for i in range(20):
        mem.ingest(inst([0.1 * i], 1))
    rng = np.random.default_rng(42)
    included = sum(len(sample_replay(mem, rng)) for _ in range(10_000))
    freq = included / 10_000
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(c.window.capacity)
    for _ in range(50):
        c.window.push(inst([0.0], 0))
        c.window.push(inst([0.0], 1))
    balanced_hits = sum(len(sample_replay(mem, rng)) for _ in range(10_000))
    ok = abs(freq - math.tanh(4.0)) < 0.01 and balanced_hits == 0
    verdict(5, ok, f"pure-centroid inclusion {freq:.4f} vs tanh(4)={math.tanh(4.0):.4f} "
                   f"(tol 0.01); balanced centroid sampled {balanced_hits} times")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_class_buffer_replacement():
    b_max = 100
    cb0 = ClassBuffer(b_max, tau=0.0, rng=np.random.default_rng(0))
    for i in range(10 * b_max):
        cb0.ingest(inst([float(i)], 1))
    first_kept = (sorted(float(i.features[0]) for i in cb0.buffers[1])
                  == [float(i) for i in range(b_max)])

    cb1 = ClassBuffer(b_max, tau=1.0, rng=np.random.default_rng(1))
    for i in range(2 * b_max):
        cb1.ingest(inst([float(i)], 1))
    cb1_rate = np.mean([cb1.ingest(inst([0.0], 1)) for _ in range(1000)])

    cbh = ClassBuffer(b_max, tau=0.5, rng=np.random.default_rng(2))
    for i in range(b_max):
        cbh.ingest(inst([float(i)], 1))
    half_rate = np.mean([cbh.ingest(inst([0.0], 1)) for _ in range(10_000)])

    ok = first_kept and cb1_rate == 1.0 and abs(half_rate - 0.5) < 0.02
    verdict(6, ok, f"cb0 keeps first {b_max} arrivals={first_kept}; "
                   f"cb1 rate={cb1_rate:.3f}; tau=0.5 rate={half_rate:.4f} (tol 0.02)")


# ------------------------------------------------------------- criterion 7

def test_criterion_7_omega_unit_suite():
    identity = omega_all([0.3, 0.9, 0.7], [0.3, 0.9, 0.7])
    half = omega_all([0.5, 1.0], [1.0, 1.0])
    raised = False
    try:
        omega_all([0.5, 0.5], [0.5, 0.0])
    except ValueError:
        raised = True
    ok = identity == 1.0 and half == 0.75 and raised
    verdict(7, ok, f"identity={identity}, (0.5,1.0)/(1.0,1.0)={half}, "
                   f"zero-offline raises={raised}")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_numerical_suite():
    worst_grad = 0.0
    for s in range(10):
        rng = np.random.default_rng(100 + s)
        d = int(rng.integers(2, 6))
        hidden = tuple(int(v) for v in rng.integers(2, 6, size=2))
        model = MlpClassifier(ClassifierSpec(input_dim=d, hidden_sizes=hidden), rng)
        model.b = [rng.normal(0.0, 0.1, size=b.shape) for b in model.b]
        X = rng.normal(size=(6, d))
        y = rng.integers(2, size=6)
        worst_grad = max(worst_grad, gradient_check(model, X, y))

    rng = np.random.default_rng(7)
    X = rng.normal(2.0, 1.5, size=(10_000, 3))
    c = ReactiveCentroid(0, inst(X[0], 1), 100, 100)
    for row in X[1:]:
        c.update_stats(row)
    ref_mean = X.mean(axis=0)
    ref_m2 = ((X - ref_mean) ** 2).sum(axis=0)
    welford_err = max(float(np.max(np.abs(c.mean - ref_mean) / np.abs(ref_mean))),
                      float(np.max(np.abs(c.m2 - ref_m2) / np.abs(ref_m2))))

    centroids = [ReactiveCentroid(i, inst(rng.normal(size=8), 1), 10, 10)
                 for i in range(20)]
    scan_ok = True
    for _ in range(100):
        x = rng.normal(size=8)
        dists = [np.linalg.norm(x - c.mean) for c in centroids]
        scan_ok = scan_ok and find_nearest(centroids, x) is centroids[int(np.argmin(dists))]

    ok = worst_grad < 1e-4 and welford_err < 1e-9 and scan_ok
    verdict(8, ok, f"max gradient rel err {worst_grad:.2e} (< 1e-4); "
                   f"running-stats rel err {welford_err:.2e} (< 1e-9); "
                   f"nearest matches exhaustive scan={scan_ok}")


# ------------------------------------------------------------- criterion 9

def test_criterion_9_byte_identical_reports(tmp_path):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        config = ExperimentConfig(methods=("rsb", "nn", "offline"), seeds=(11,),
                                  n_subconcepts=3, dim=4, train_per=80, test_per=20,
                                  hidden_sizes=(16,), epochs_per_batch=3,
                                  out_dir=str(out))
        assert run_experiment(config) == 0
        outputs.append(((out / "accuracy_seed11.csv").read_bytes(),
                        (out / "summary.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    verdict(9, ok, "repeated identical run produces byte-identical CSV and summary")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_split_and_removal_suite():
    # split: window with c1=60, c2=50 under tau_s=0.5
    mem = RsbMemory(RsbConfig(c_min=1, tau_s=0.5), np.random.default_rng(0))
    mem.ingest(inst([0.0], 1))
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(200)
    majors = [float(i) for i in range(60)]        # label 1 values 0..59
    minors = [float(100 + i) for i in range(50)]  # label 0 values 100..149
    for v in majors:
        c.window.push(inst([v], 1))
    for v in minors:
        c.window.push(inst([v], 0))
    split_fires = check_split(c, mem.config)
    kept, born = apply_split(mem, c)
    split_ok = (split_fires
                and kept.label == 1 and born.label == 0
                and float(kept.mean[0]) == float(np.mean(majors))
                and float(born.mean[0]) == float(np.mean(minors))
                and kept.count == 60 and born.count == 50
                and all(i.label == 1 for i in kept.buffer.items)
                and all(i.label == 0 for i in born.buffer.items))

    # removal: 10 registered (< tau_r = 40) with window traffic dies at the tick
    mem2 = RsbMemory(RsbConfig(c_min=2), np.random.default_rng(0))
    for x, y in (([0.0], 1), ([100.0], 1)):
        mem2.ingest(inst(x, y))
    doomed, keeper = mem2.centroids[1]
    doomed.in_grace_period = False
    doomed.registered_since_maintenance = 10
    doomed.window_updates_since_tick = 45
    keeper.in_grace_period = False
    keeper.registered_since_maintenance = 60
    keeper.window_updates_since_tick = 60
    events = mem2.maintenance()
    removal_ok = ([e.kind for e in events] == ["removed"]
                  and mem2.centroids[1] == [keeper])

    # a class's last centroid survives even when removal-eligible
    mem3 = RsbMemory(RsbConfig(c_min=1), np.random.default_rng(0))
    mem3.ingest(inst([0.0], 0))
    mem3.ingest(inst([100.0], 1))
    last = mem3.centroids[0][0]
    last.in_grace_period = False
    last.registered_since_maintenance = 10
    last.window_updates_since_tick = 45
    guard_ok = mem3.maintenance() == [] and mem3.centroids[0] == [last]

    ok = split_ok and removal_ok and guard_ok
    verdict(10, ok, f"split means exact={split_ok}; under-threshold centroid "
                    f"removed={removal_ok}; last centroid protected={guard_ok}")
