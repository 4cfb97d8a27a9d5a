"""Unit tests for replay sampling and class balancing."""
import math

import numpy as np
import pytest

from driftreplay.baselines import ClassBuffer
from driftreplay.memory import LabeledInstance, RsbConfig, RsbMemory, SlidingWindow
from driftreplay.replay import oversample_balance, purity, sample_replay


def inst(x, y):
    return LabeledInstance(np.atleast_1d(np.asarray(x, dtype=np.float64)), y)


# -------------------------------------------------------------------- purity

def test_purity_values():
    assert purity(50, 50, beta=4.0) == 0.0
    assert abs(purity(100, 0, beta=4.0) - math.tanh(4.0)) < 1e-12
    assert abs(math.tanh(4.0) - 0.999329) < 1e-6
    assert abs(purity(75, 25, beta=4.0) - math.tanh(2.0)) < 1e-12
    assert abs(math.tanh(2.0) - 0.964028) < 1e-6
    assert purity(0, 0, beta=4.0) == 0.0  # empty window is never sampled


def test_purity_rejects_bad_counts():
    with pytest.raises(ValueError):
        purity(10, 20, beta=4.0)
    with pytest.raises(ValueError):
        purity(10, -1, beta=4.0)


# ------------------------------------------------------------ sample_replay

def pure_memory():
    mem = RsbMemory(RsbConfig(c_min=1, n_s=10**6), np.random.default_rng(0))
    for i in range(20):
        mem.ingest(inst([0.1 * i], 1))
    return mem


def test_pure_centroid_inclusion_frequency():
    mem = pure_memory()
    rng = np.random.default_rng(42)
    included = sum(len(sample_replay(mem, rng)) for _ in range(10_000))
    assert abs(included / 10_000 - math.tanh(4.0)) < 0.01


def test_balanced_centroid_is_never_sampled():
    mem = pure_memory()
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(c.window.capacity)
    for i in range(50):
        c.window.push(inst([0.0], 0))
        c.window.push(inst([0.0], 1))
    rng = np.random.default_rng(7)
    assert all(len(sample_replay(mem, rng)) == 0 for _ in range(10_000))


def test_sampled_instances_come_from_the_buffer_with_current_label():
    mem = pure_memory()
    (c,) = mem.centroids[1]
    stored = {id(i) for i in c.buffer.items}
    rng = np.random.default_rng(3)
    for _ in range(200):
        batch = sample_replay(mem, rng)
        for i in batch:
            assert id(i) in stored
            assert i.label == c.label


def test_class_buffer_replay_draws_fixed_count_per_label():
    buf = ClassBuffer(100, tau=0.0, rng=np.random.default_rng(0), replay_per_label=10)
    for i in range(30):
        buf.ingest(inst([float(i)], 0))
        buf.ingest(inst([float(i)], 1))
    batch = sample_replay(buf, np.random.default_rng(1))
    assert len(batch) == 20
    assert sum(1 for i in batch if i.label == 0) == 10


def test_ungated_centroid_memory_always_samples():
    from driftreplay.baselines import StaticCentroidMemory
    mem = StaticCentroidMemory(RsbConfig(c_min=1, n_s=10**6), np.random.default_rng(0))
    for i in range(20):
        mem.ingest(inst([0.1 * i], 1))
    rng = np.random.default_rng(5)
    n_centroids = sum(1 for _ in mem.all_centroids())
    assert n_centroids >= 1
    assert all(len(sample_replay(mem, rng)) == n_centroids for _ in range(100))


# ------------------------------------------------------- oversample_balance

def test_oversample_duplicates_minority():
    batch = [inst([0.0], 1), inst([1.0], 1), inst([2.0], 1), inst([3.0], 0)]
    out = oversample_balance(batch, np.random.default_rng(0))
    labels = [i.label for i in out]
    assert labels.count(0) == labels.count(1) == 3
    # the duplicates are copies of the single minority instance
    assert all(float(i.features[0]) == 3.0 for i in out if i.label == 0)
    assert len(batch) == 4 and all(a is b for a, b in zip(out, batch))  # input first, unmutated


def test_oversample_leaves_balanced_and_degenerate_batches_alone():
    balanced = [inst([0.0], 1), inst([1.0], 1), inst([2.0], 0), inst([3.0], 0)]
    assert oversample_balance(balanced, np.random.default_rng(0)) is balanced
    empty = []
    assert oversample_balance(empty, np.random.default_rng(0)) is empty
    single = [inst([0.0], 1)]
    assert oversample_balance(single, np.random.default_rng(0)) is single
