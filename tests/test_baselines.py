"""Unit tests for the class-buffer and static-centroid baselines."""
import numpy as np
import pytest

from driftreplay.baselines import ClassBuffer, StaticCentroidMemory, cb_sample
from driftreplay.memory import LabeledInstance, RsbConfig, RsbMemory


def inst(x, y):
    return LabeledInstance(np.atleast_1d(np.asarray(x, dtype=np.float64)), y)


# ------------------------------------------------------------- class buffers

def test_class_buffer_validation():
    with pytest.raises(ValueError):
        ClassBuffer(0, 0.5)
    with pytest.raises(ValueError):
        ClassBuffer(10, 1.5)
    with pytest.raises(ValueError):
        ClassBuffer(10, -0.1)
    with pytest.raises(ValueError, match="replay_per_label must be positive"):
        ClassBuffer(10, 0.5, replay_per_label=0)


def test_cb0_keeps_exactly_the_first_arrivals():
    b_max = 50
    buf = ClassBuffer(b_max, tau=0.0, rng=np.random.default_rng(0))
    for i in range(10 * b_max):
        buf.ingest(inst([float(i)], 1))
    kept = sorted(float(i.features[0]) for i in buf.buffers[1])
    assert kept == [float(i) for i in range(b_max)]


def test_cb1_replaces_on_every_full_arrival():
    b_max = 20
    buf = ClassBuffer(b_max, tau=1.0, rng=np.random.default_rng(1))
    for i in range(b_max):
        assert buf.ingest(inst([float(i)], 0))
    for i in range(b_max, 5 * b_max):
        assert buf.ingest(inst([float(i)], 0))  # every arrival is stored
        assert len(buf.buffers[0]) == b_max


def test_cb_half_threshold_replacement_rate():
    b_max = 10
    buf = ClassBuffer(b_max, tau=0.5, rng=np.random.default_rng(2))
    for i in range(b_max):
        buf.ingest(inst([float(i)], 1))
    accepted = sum(buf.ingest(inst([0.0], 1)) for _ in range(10_000))
    assert abs(accepted / 10_000 - 0.5) < 0.02


def test_cb_buffers_are_per_label():
    buf = ClassBuffer(3, tau=0.0, rng=np.random.default_rng(0))
    for y in (0, 1, 0, 1, 0, 1, 0, 1):
        buf.ingest(inst([0.0], y))
    assert len(buf.buffers[0]) == 3
    assert len(buf.buffers[1]) == 3


def test_cb_sample_empty_and_singleton():
    buf = ClassBuffer(10, tau=0.0, rng=np.random.default_rng(0))
    rng = np.random.default_rng(3)
    assert cb_sample(buf, 3, rng) == []
    only = inst([7.0], 1)
    buf.ingest(only)
    out = cb_sample(buf, 3, rng)
    assert len(out) == 3 and all(o is only for o in out)
    with pytest.raises(ValueError):
        cb_sample(buf, 0, rng)


def test_cb_sample_per_label_counts_and_membership():
    buf = ClassBuffer(200, tau=0.0, rng=np.random.default_rng(0))
    for i in range(100):
        buf.ingest(inst([float(i)], 0))
        buf.ingest(inst([float(100 + i)], 1))
    out = cb_sample(buf, 50, np.random.default_rng(4))
    assert len(out) == 100
    assert sum(1 for o in out if o.label == 0) == 50
    assert sum(1 for o in out if o.label == 1) == 50
    stored = {id(i) for g in buf.buffers.values() for i in g}
    assert all(id(o) in stored for o in out)


# --------------------------------------------------------- static centroids

def test_sb_bootstrap_and_creation():
    mem = StaticCentroidMemory(RsbConfig(c_min=1), np.random.default_rng(0))
    e = mem.ingest(inst([0.0], 1))
    assert e.kind == "created"
    assert len(mem.centroids[1]) == 1


def test_sb_never_touches_opposite_label_centroids():
    mem = StaticCentroidMemory(RsbConfig(c_min=1), np.random.default_rng(0))
    mem.ingest(inst([0.0], 0))
    other = mem.centroids[0][0]
    count_before = other.count
    # label-1 instance right on top of the label-0 centroid
    e = mem.ingest(inst([0.0], 1))
    assert e.kind == "created"
    assert other.count == count_before
    assert len(other.window.entries) == 1
    assert other.label == 0


def test_sb_at_capacity_absorbs_into_nearest_own():
    cfg = RsbConfig(c_min=1, c_max=1)
    mem = StaticCentroidMemory(cfg, np.random.default_rng(0))
    mem.ingest(inst([0.0], 1))
    e = mem.ingest(inst([50.0], 1))  # out of bounds but class at c_max
    assert e.kind == "updated"
    assert len(mem.centroids[1]) == 1


def test_sb_matches_rsb_on_a_clean_stream():
    """Without flips or impure regions the reactive machinery never fires,
    so both memories walk identical centroid trajectories."""
    cfg = dict(c_min=5, c_max=5, n_s=10**6)
    sb = StaticCentroidMemory(RsbConfig(**cfg), np.random.default_rng(0))
    rsb = RsbMemory(RsbConfig(**cfg), np.random.default_rng(1))
    rng = np.random.default_rng(11)
    for _ in range(800):
        y = int(rng.integers(2))
        x = rng.normal(100.0 * y, 1.0, size=4)
        item = x.copy()
        sb.ingest(inst(item, y))
        rsb.ingest(inst(x, y))
    for label in (0, 1):
        sb_means = sorted(tuple(c.mean) for c in sb.centroids[label])
        rsb_means = sorted(tuple(c.mean) for c in rsb.centroids[label])
        assert len(sb_means) == len(rsb_means)
        for a, b in zip(sb_means, rsb_means):
            assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-9
