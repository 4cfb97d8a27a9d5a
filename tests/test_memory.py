"""Unit tests for the reactive centroid memory."""
import copy
import hashlib
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from driftreplay.baselines import StaticCentroidMemory
from driftreplay.memory import (
    DimensionMismatchError,
    EmptyMemoryError,
    IllegalStateError,
    LabeledInstance,
    MAX_FEATURE_ABS,
    NonFiniteFeatureError,
    ReactiveCentroid,
    RsbConfig,
    RsbMemory,
    SlidingWindow,
    CentroidBuffer,
    apply_split,
    as_features,
    check_split,
    check_switch,
    find_nearest,
    within_bounds,
)


def inst(x, y):
    return LabeledInstance(np.atleast_1d(np.asarray(x, dtype=np.float64)), y)


def make_memory(seed=0, **kwargs):
    return RsbMemory(RsbConfig(**kwargs), np.random.default_rng(seed))


def make_centroid(x, y, cid=0, b_max=100, omega_max=100):
    return ReactiveCentroid(cid, inst(x, y), b_max, omega_max)


# ---------------------------------------------------------------- validation

def test_as_features_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        as_features([[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        as_features([])
    with pytest.raises(NonFiniteFeatureError):
        as_features([1.0, np.nan])
    with pytest.raises(NonFiniteFeatureError):
        as_features([np.inf])
    with pytest.raises(NonFiniteFeatureError):
        as_features([0.0, -1.01 * MAX_FEATURE_ABS])


def test_huge_features_are_refused_before_they_overflow_the_stats():
    mem = make_memory(c_min=1)
    with pytest.raises(NonFiniteFeatureError):
        for x in (1e200, -1e200, 1e200):  # would leave m2 = inf
            mem.ingest(inst([x], 0))
    mem = make_memory(c_min=1)
    for x in (MAX_FEATURE_ABS, -MAX_FEATURE_ABS, MAX_FEATURE_ABS):
        mem.ingest(inst([x], 0))
    (c,) = mem.all_centroids()
    assert c.count == 3 and np.isfinite(c.m2).all() and np.isfinite(c.variance()).all()


def test_config_defaults_and_validation():
    cfg = RsbConfig()
    assert cfg.c_max == 10
    assert cfg.c_min == 5  # half of c_max
    assert cfg.b_max == 100
    assert cfg.omega_max == 100
    assert cfg.n_s == 1000
    assert cfg.tau_s == 0.5
    assert cfg.alpha_r == 0.4
    assert cfg.beta == 4.0
    assert cfg.tau_r == 40.0
    with pytest.raises(ValueError):
        RsbConfig(c_min=20, c_max=10)
    with pytest.raises(ValueError):
        RsbConfig(b_max=0)
    with pytest.raises(ValueError):
        RsbConfig(alpha_r=1.5)


def test_ingest_rejects_dimension_change():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0, 0.0], 1))
    with pytest.raises(DimensionMismatchError):
        mem.ingest(inst([0.0], 1))


# ------------------------------------------------------------ ingest basics

def test_bootstrap_creates_first_centroid():
    mem = make_memory(c_min=1)
    events = mem.ingest(inst([0.0], 1))
    assert [e.kind for e in events] == ["created"]
    (c,) = mem.centroids[1]
    assert c.label == 1
    assert c.count == 1
    assert len(c.buffer.items) == 1
    assert len(c.window.entries) == 1
    assert c.window.entries[0].label == 1


def test_same_label_update_moves_running_mean():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 1))
    events = mem.ingest(inst([0.1], 1))
    assert [e.kind for e in events] == ["updated"]
    (c,) = mem.centroids[1]
    assert c.count == 2
    assert np.allclose(c.mean, [0.05])
    assert len(c.buffer.items) == 2
    assert len(c.window.entries) == 2


def test_far_instance_near_opposite_class_creates_new_centroid():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 1))
    mem.ingest(inst([40.0], 0))
    # label-1 instance nearest to the label-0 centroid, outside its bounds
    events = mem.ingest(inst([50.0], 1))
    assert [e.kind for e in events] == ["created"]
    assert len(mem.centroids[1]) == 2


def test_far_same_label_instance_is_absorbed():
    # with only same-class centroids present the nearest one updates
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 1))
    events = mem.ingest(inst([50.0], 1))
    assert [e.kind for e in events] == ["updated"]
    assert len(mem.centroids[1]) == 1


# --------------------------------------------------------- running variance

def test_welford_matches_batch_recomputation():
    rng = np.random.default_rng(42)
    X = rng.normal(3.0, 2.5, size=(10_000, 4))
    c = make_centroid(X[0], 1)
    for row in X[1:]:
        c.update_stats(row)
    ref_mean = X.mean(axis=0)
    ref_m2 = ((X - ref_mean) ** 2).sum(axis=0)
    assert np.max(np.abs(c.mean - ref_mean) / np.abs(ref_mean)) < 1e-9
    assert np.max(np.abs(c.m2 - ref_m2) / np.abs(ref_m2)) < 1e-9
    assert c.count == len(X)


# -------------------------------------------------------------- find_nearest

def test_find_nearest_examples():
    a = make_centroid([0.0], 1, cid=0)
    b = make_centroid([10.0], 1, cid=1)
    assert find_nearest([a, b], np.array([1.0])) is a


def test_find_nearest_tie_goes_to_lowest_id():
    a = make_centroid([-1.0], 1, cid=3)
    b = make_centroid([1.0], 1, cid=7)
    assert find_nearest([b, a], np.array([0.0])) is a


def test_find_nearest_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    centroids = [make_centroid(rng.normal(size=8), 1, cid=i) for i in range(20)]
    for _ in range(100):
        x = rng.normal(size=8)
        dists = [np.linalg.norm(x - c.mean) for c in centroids]
        assert find_nearest(centroids, x) is centroids[int(np.argmin(dists))]


def loop_find_nearest(centroids, x):
    """The per-centroid scan find_nearest replaced, kept as its reference."""
    best = None
    best_d = math.inf
    for c in centroids:
        d = float(np.linalg.norm(x - c.mean))
        if d < best_d or (d == best_d and best is not None and c.id < best.id):
            best = c
            best_d = d
    return best


def shuffled_memory(rng, means):
    """Centroids at `means` with shuffled ids, listed in a shuffled order."""
    ids = rng.permutation(len(means))
    centroids = [make_centroid(m, 1, cid=int(i)) for m, i in zip(means, ids)]
    return [centroids[int(j)] for j in rng.permutation(len(centroids))]


def test_find_nearest_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(400):
        dim = int(rng.integers(1, 101))
        means = rng.normal(size=(int(rng.integers(1, 91)), dim)) * 10.0 ** rng.integers(-3, 4)
        centroids = shuffled_memory(rng, means)
        for x in (rng.normal(size=dim), means[int(rng.integers(len(means)))]):
            assert find_nearest(centroids, x) is loop_find_nearest(centroids, x)


def test_find_nearest_exact_ties_go_to_lowest_id():
    """Duplicated means tie anywhere; means mirrored through the origin tie at 0."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        dim = int(rng.integers(1, 101))
        base = rng.normal(size=(int(rng.integers(1, 45)), dim))
        for x, mirror in ((rng.normal(size=dim), 1.0), (np.zeros(dim), -1.0)):
            nearest = base[int(np.argmin(np.linalg.norm(base - x, axis=1)))]
            centroids = shuffled_memory(rng, np.vstack([base, nearest, mirror * nearest]))
            tied = [c for c in centroids if np.array_equal(abs(c.mean - x), abs(nearest - x))]
            assert len(tied) == 3
            best = find_nearest(centroids, x)
            assert best is min(tied, key=lambda c: c.id)
            assert best is loop_find_nearest(centroids, x)


def test_find_nearest_when_every_distance_overflows():
    a = make_centroid([1e200], 1, cid=4)
    b = make_centroid([2e200], 1, cid=2)
    with np.errstate(over="ignore"):
        assert find_nearest([a, b], np.array([-1e200])) is b


def test_find_nearest_skips_a_nan_mean_like_the_loop():
    nan = make_centroid([0.0, 0.0], 1, cid=0)
    nan.mean = np.array([np.nan, 0.0])
    far = make_centroid([5.0, 5.0], 1, cid=3)
    near = make_centroid([1.0, 0.0], 1, cid=7)
    x = np.array([0.0, 0.0])
    assert find_nearest([nan, far, near], x) is near is loop_find_nearest([nan, far, near], x)
    with pytest.raises(EmptyMemoryError):
        find_nearest([nan], x)


def test_find_nearest_on_no_centroids_raises():
    with pytest.raises(EmptyMemoryError):
        find_nearest(iter(()), np.array([0.0]))


# ------------------------------------------------------------- within_bounds

def unit_variance_centroid(mean=0.0):
    """1-D centroid with mean `mean` and per-dimension variance exactly 1."""
    c = make_centroid([mean - 1.0], 1)
    c.update_stats(np.array([mean + 1.0]))
    c.update_stats(np.array([mean - 1.0]))
    c.update_stats(np.array([mean + 1.0]))
    assert np.allclose(c.variance(), [1.0])
    assert np.allclose(c.mean, [mean])
    return c


def test_within_bounds_unit_variance():
    c = unit_variance_centroid()
    assert within_bounds(c, np.array([1.5]), sigma_k=2.0)
    assert not within_bounds(c, np.array([2.5]), sigma_k=2.0)


def test_within_bounds_zero_variance_floor():
    c = make_centroid([3.0], 1)
    assert c.count == 1
    assert within_bounds(c, np.array([3.0]), sigma_k=2.0)
    assert not within_bounds(c, np.array([3.1]), sigma_k=2.0)


# -------------------------------------------------------------------- switch

def windowed_centroid(label, counts):
    """Centroid with a window of `counts[l]` entries per label l, all at 0."""
    first_label = next(iter(counts))
    c = make_centroid([0.0], label)
    c.window = SlidingWindow(100)
    for l, n in counts.items():
        for _ in range(n):
            c.window.push(inst([0.0], l))
    return c


def test_check_switch_majority_threshold():
    cfg = RsbConfig()
    c = windowed_centroid(1, {0: 51, 1: 10})
    assert check_switch(c, cfg) == 0
    c = windowed_centroid(1, {0: 49, 1: 51})
    assert check_switch(c, cfg) is None  # majority equals current label
    c = windowed_centroid(1, {0: 30})
    assert check_switch(c, cfg) is None  # 30 < 50


def memory_with_window(x, entries, omega_max=100):
    """A memory whose only centroid (label 1, at x) holds `entries` ((x, y) pairs) in its window."""
    mem = make_memory(c_min=1, omega_max=omega_max)
    mem.ingest(inst(x, 1))
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(omega_max)
    for xe, y in entries:
        c.window.push(inst(xe, y))
    return mem, c


def test_apply_switch_rebuilds_from_window():
    mem, c = memory_with_window([9.0], (([0.0], 0), ([2.0], 0), ([9.0], 1)), omega_max=3)
    assert [e.kind for e in mem.maintenance()] == ["switched"]
    assert c.label == 0
    assert np.allclose(c.mean, [1.0])
    assert c.count == 2
    assert sorted(float(i.features[0]) for i in c.buffer.items) == [0.0, 2.0]
    assert all(i.label == 0 for i in c.buffer.items)


def test_apply_switch_purges_old_label_buffer():
    mem, c = memory_with_window([0.0], [([1.0], 0)] * 60)
    for _ in range(99):
        c.buffer.add(inst([0.0], 1), np.random.default_rng(0))
    assert len(c.buffer.items) == 100
    assert [e.kind for e in mem.maintenance()] == ["switched"]
    assert all(i.label == 0 for i in c.buffer.items)


def test_apply_switch_single_entry_window():
    mem, c = memory_with_window([0.0], [([5.0], 0)], omega_max=1)
    assert [e.kind for e in mem.maintenance()] == ["switched"]
    assert np.allclose(c.mean, [5.0])
    assert c.count == 1


def test_switch_latency_is_exactly_fifty_instances():
    mem = make_memory(c_min=1, c_max=10, n_s=10**6)
    mem.ingest(inst([0.0], 1))       # the centroid under test
    mem.ingest(inst([1000.0], 0))    # far-away opposite-class anchor
    for x in (-1.0, 1.0, -1.0, 1.0):  # give it variance so x=0 is in bounds
        mem.ingest(inst([x], 1))
    target = mem.centroids[1][0]
    for i in range(1, 50):
        events = mem.ingest(inst([0.0], 0))
        assert not any(e.kind == "switched" for e in events), f"early switch at {i}"
    assert target.label == 1
    events = mem.ingest(inst([0.0], 0))
    assert any(e.kind == "switched" for e in events)
    assert target.label == 0
    assert target in mem.centroids[0]
    assert all(i.label == 0 for i in target.buffer.items)


# --------------------------------------------------------------------- split

def test_check_split_arithmetic():
    cfg = RsbConfig(tau_s=0.5)
    assert check_split(windowed_centroid(0, {0: 60, 1: 50}), cfg)       # 0.2 < 0.5
    assert not check_split(windowed_centroid(0, {0: 90, 1: 10}), cfg)   # 8.0 >= 0.5
    assert not check_split(windowed_centroid(0, {0: 70}), cfg)          # pure window


def test_a_tick_never_splits_the_centroid_it_switched():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 1))
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(100)
    for label, n in ((0, 55), (1, 45)):
        for _ in range(n):
            c.window.push(inst([0.0], label))
    assert check_switch(c, mem.config) == 0 and check_split(c, mem.config)
    events = mem.maintenance()
    assert [e.kind for e in events] == ["switched"]
    assert list(mem.all_centroids()) == [c] and c.label == 0


def test_apply_split_grouped_means():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 1))
    (c,) = mem.centroids[1]
    c.window = SlidingWindow(100)
    for _ in range(6):
        c.window.push(inst([0.0], 1))
    for _ in range(5):
        c.window.push(inst([10.0], 0))
    kept, born = apply_split(mem, c)
    assert kept.label == 1 and born.label == 0
    assert np.allclose(kept.mean, [0.0]) and kept.count == 6
    assert np.allclose(born.mean, [10.0]) and born.count == 5
    assert all(i.label == 1 for i in kept.buffer.items)
    assert all(i.label == 0 for i in born.buffer.items)
    assert len(kept.window.entries) + len(born.window.entries) == 11
    assert born in mem.centroids[0]


# ------------------------------------------------------------------- removal

def removable_centroid(mem, label, x):
    """A post-grace centroid with low assignment but enough window traffic."""
    c = mem.centroids[label][0]
    c.in_grace_period = False
    c.registered_since_maintenance = 10
    c.window_updates_since_tick = 45
    return c


def test_removal_low_traffic_centroid_is_reaped():
    mem = make_memory(c_min=2)
    for x, y in (([0.0], 1), ([100.0], 1), ([50.0], 0), ([200.0], 0)):
        mem.ingest(inst(x, y))
    a, b = mem.centroids[1]
    a.in_grace_period = False
    a.registered_since_maintenance = 10
    a.window_updates_since_tick = 45
    b.in_grace_period = False
    b.registered_since_maintenance = 60
    b.window_updates_since_tick = 60
    events = mem.maintenance()
    assert [e.kind for e in events] == ["removed"]
    assert mem.centroids[1] == [b]
    assert b.registered_since_maintenance == b.window_updates_since_tick == 0  # survivor reset


def test_removal_boundary_is_strict():
    mem = make_memory(c_min=2)
    for x, y in (([0.0], 1), ([100.0], 1)):
        mem.ingest(inst(x, y))
    a, b = mem.centroids[1]
    for c in (a, b):
        c.in_grace_period = False
        c.window_updates_since_tick = 45
    a.registered_since_maintenance = 40  # exactly tau_r: retained
    b.registered_since_maintenance = 39
    events = mem.maintenance()
    assert [e.centroid_id for e in events if e.kind == "removed"] == [b.id]
    assert mem.centroids[1] == [a]


def test_grace_period_protects_fresh_centroids():
    mem = make_memory(c_min=2)
    for x, y in (([0.0], 1), ([100.0], 1)):
        mem.ingest(inst(x, y))
    a, b = mem.centroids[1]
    a.registered_since_maintenance = 5
    a.window_updates_since_tick = 45
    assert a.in_grace_period
    assert mem.maintenance() == []
    assert set(mem.centroids[1]) == {a, b}
    assert not a.in_grace_period  # grace expires after the first tick


def test_dormant_centroid_survives_without_traffic():
    mem = make_memory(c_min=2)
    for x, y in (([0.0], 1), ([100.0], 1)):
        mem.ingest(inst(x, y))
    a, b = mem.centroids[1]
    for c in (a, b):
        c.in_grace_period = False
        c.registered_since_maintenance = 0
        c.window_updates_since_tick = 0  # nothing routed near it this period
    assert mem.maintenance() == []
    assert set(mem.centroids[1]) == {a, b}


def test_last_centroid_of_a_class_is_never_removed():
    mem = make_memory(c_min=1)
    mem.ingest(inst([0.0], 0))
    mem.ingest(inst([100.0], 1))
    c = mem.centroids[0][0]
    c.in_grace_period = False
    c.registered_since_maintenance = 10
    c.window_updates_since_tick = 45
    assert mem.maintenance() == []
    assert mem.centroids[0] == [c]


def test_removal_end_to_end_through_ingestion():
    """A centroid that mostly sees opposite-label traffic dies at the tick."""
    mem = make_memory(c_min=2, n_s=100)
    # period 1: bootstrap four centroids and give A some spread
    mem.ingest(inst([0.0], 1))     # A
    mem.ingest(inst([100.0], 1))   # B
    mem.ingest(inst([50.0], 0))    # C
    mem.ingest(inst([200.0], 0))   # D
    a, b = mem.centroids[1]
    c, d = mem.centroids[0]
    for x in (-1.5, -0.75, 0.75, 1.5):
        mem.ingest(inst([x], 1))
    for _ in range(46):
        mem.ingest(inst([100.0], 1))
    for _ in range(23):
        mem.ingest(inst([50.0], 0))
    for _ in range(23):
        mem.ingest(inst([200.0], 0))  # tick 1 fires here; everyone in grace
    assert set(mem.centroids[1]) == {a, b}
    # period 2: A gets 10 assignments but 35 opposite-label window pushes
    for i in range(10):
        mem.ingest(inst([0.5 if i % 2 else -0.5], 1))
    for _ in range(35):
        mem.ingest(inst([0.0], 0))
    for _ in range(45):
        mem.ingest(inst([100.0], 1))
    events = []
    for _ in range(10):
        events.extend(mem.ingest(inst([50.0], 0)))  # tick 2 on the last one
    removed = [e for e in events if e.kind == "removed"]
    assert [e.centroid_id for e in removed] == [a.id]
    assert mem.centroids[1] == [b]
    assert set(mem.centroids[0]) == {c, d}  # dormant D survives


# ---------------------------------------------------------------- invariants

def group_sizes(mem):
    return {label: len(group) for label, group in mem.centroids.items()}


def assert_memory_invariants(mem, events=(), before=None):
    """Structural invariants of a centroid memory after any ingest.

    `before` holds the group sizes from before the ingest that emitted
    `events`; with it, only a switch or a split may push a label past c_max.
    """
    cfg = mem.config
    ids = []
    for label, group in mem.centroids.items():
        assert group, f"label {label} has an empty group"
        for c in group:
            assert c.label == label
            assert all(i.label == c.label for i in c.buffer.items)
            assert len(c.window.entries) <= cfg.omega_max
            assert c.window.counts == Counter(e.label for e in c.window.entries)
            top = [n for _, n in c.window.ranked()[:2]] + [0, 0]
            assert c.window.top_two_counts() == (top[0], top[1])
            assert len(c.buffer.items) <= cfg.b_max
            ids.append(c.id)
    assert len(ids) == len(set(ids))
    for e in events:
        if e.kind == "removed":
            assert len(mem.centroids.get(e.label, [])) >= 1
        if e.kind == "created" and e.info != "split" and before is not None:
            assert before.get(e.label, 0) < cfg.c_max


def assert_static_memory_invariants(mem, stream):
    """Ingest the stream into a StaticCentroidMemory and check after each ingest
    the shared invariants and its own: it only creates and updates, no
    centroid ever changes label, and no label holds more than c_max."""
    labels = {}
    for instance in stream:
        before = group_sizes(mem)
        event = mem.ingest(instance)
        assert event.kind in ("created", "updated")
        assert_memory_invariants(mem, [event], before)
        for c in mem.all_centroids():
            assert labels.setdefault(c.id, c.label) == c.label
        assert max(group_sizes(mem).values()) <= mem.config.c_max


def label_flip_stream(seed):
    """3000 draws from six unit-variance 2-D subconcepts 3.0 apart; one flips its label every 500."""
    rng = np.random.default_rng(seed)
    means = 3.0 * np.array([[k % 3, k // 3] for k in range(6)], dtype=np.float64)
    labels = [k % 2 for k in range(6)]
    for t in range(3000):
        if t and t % 500 == 0:
            j = int(rng.integers(6))
            labels[j] = 1 - labels[j]
        k = int(rng.integers(6))
        yield LabeledInstance(rng.normal(means[k], 1.0), labels[k], k)


@pytest.mark.parametrize("static", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_invariants_hold_on_label_flip_streams(seed, static):
    """The reactive memory (static=False) or the static one (static=True)."""
    knobs = dict(c_max=6, c_min=2, omega_max=30, b_max=20, n_s=60)
    if static:
        assert_static_memory_invariants(
            StaticCentroidMemory(RsbConfig(**knobs), np.random.default_rng(seed)),
            label_flip_stream(seed))
        return
    mem = make_memory(seed=seed, **knobs)
    kinds = set()
    for instance in label_flip_stream(seed):
        before = group_sizes(mem)
        events = mem.ingest(instance)
        assert_memory_invariants(mem, events, before)
        kinds.update(e.kind for e in events)
    assert {"switched", "split", "removed"} <= kinds


# -------------------------------------------------------- window and buffer

def test_window_is_fifo_with_capacity():
    w = SlidingWindow(3)
    for i in range(5):
        w.push(inst([float(i)], i % 2))
    assert len(w.entries) == 3
    assert [float(e.features[0]) for e in w.entries] == [2.0, 3.0, 4.0]


def test_window_top_two_and_majority():
    w = SlidingWindow(10)
    for y in (1, 1, 1, 0, 0):
        w.push(inst([0.0], y))
    assert w.top_two_counts() == (3, 2)
    assert w.ranked()[0][0] == 1
    w.push(inst([0.0], 0))
    assert w.ranked()[0][0] == 0  # tie breaks to the lower label


def test_window_label_counts_follow_pushes_and_evictions():
    rng = np.random.default_rng(13)
    w = SlidingWindow(7)
    for _ in range(60):
        w.push(inst([0.0], int(rng.integers(3))))
        assert w.counts == Counter(e.label for e in w.entries)
    w = SlidingWindow(7)
    assert w.counts == {} and w.ranked() == [] and w.top_two_counts() == (0, 0)
    for y in (2, 2, 0):
        w.push(inst([0.0], y))
    assert w.counts == Counter(e.label for e in w.entries)
    assert w.ranked() == [(2, 2), (0, 1)]


ROUND_TRIPS = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def flip_memory():
    mem = make_memory(seed=4, c_max=6, c_min=2, omega_max=30, b_max=20, n_s=60)
    stream = label_flip_stream(4)
    for _ in range(420):  # the stream's first flip comes at 500, inside the next 200
        mem.ingest(next(stream))
    return mem, stream


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_window_entries_copy_with_a_fresh_tally(trip):
    mem, _ = flip_memory()
    for c in mem.all_centroids():
        w = c.window
        twin = ROUND_TRIPS[trip](w)
        assert twin.entries.maxlen == w.entries.maxlen == twin.capacity == w.capacity
        assert [e.label for e in twin.entries] == [e.label for e in w.entries]
        assert twin.counts == Counter(e.label for e in twin.entries) == w.counts
        assert twin.entries is not w.entries and twin.counts is not w.counts
        before = dict(w.counts)
        for _ in range(w.capacity):  # evicts every copied entry from the twin only
            twin.push(inst([0.0], 7))
        assert twin.counts == {7: w.capacity} and w.counts == before


@pytest.mark.parametrize("trip", ["deepcopy", "pickle"])
def test_a_copied_memory_ingests_like_the_original(trip):
    mem, stream = flip_memory()
    twin = ROUND_TRIPS[trip](mem)
    for m in (mem, twin):
        for c in m.all_centroids():
            assert c.window.counts == Counter(e.label for e in c.window.entries)
    rest = [next(stream) for _ in range(200)]
    ours = [(e.kind, e.centroid_id, e.label) for i in rest for e in mem.ingest(i)]
    theirs = [(e.kind, e.centroid_id, e.label)
              for i in rest for e in twin.ingest(LabeledInstance(i.features.copy(), i.label))]
    assert ours == theirs
    assert {"switched", "split"} <= {kind for kind, _, _ in ours}
    assert_memory_invariants(twin)


def test_buffer_reservoir_respects_capacity():
    rng = np.random.default_rng(5)
    buf = CentroidBuffer(10)
    for i in range(1000):
        buf.add(inst([float(i)], 1), rng)
    assert len(buf.items) == 10
    assert buf.seen == 1000
    # every kept item was actually streamed
    assert all(0 <= i.features[0] < 1000 for i in buf.items)


def test_buffer_reservoir_is_uniform_enough():
    # mean of kept indices over many repetitions approaches the stream mean
    means = []
    for s in range(200):
        rng = np.random.default_rng(s)
        buf = CentroidBuffer(10)
        for i in range(500):
            buf.add(inst([float(i)], 1), rng)
        means.append(np.mean([i.features[0] for i in buf.items]))
    assert abs(np.mean(means) - 249.5) < 15.0


def test_rebuild_from_empty_is_illegal():
    c = make_centroid([0.0], 1)
    with pytest.raises(IllegalStateError):
        c.reseed([])


# --------------------------------------------------------------- determinism

def stream_events(seed):
    mem = make_memory(seed=seed, c_min=2, n_s=50)
    rng = np.random.default_rng(123)
    out = []
    for _ in range(400):
        y = int(rng.integers(2))
        x = rng.normal(10.0 * y, 1.0, size=3)
        out.extend((e.kind, e.centroid_id, e.label) for e in mem.ingest(inst(x, y)))
    return out


def test_ingestion_event_sequence_is_deterministic():
    assert stream_events(9) == stream_events(9)


def label_flip_digest():
    """sha256 over every event and final centroid of the label-flip streams, seeds 0-4."""
    h = hashlib.sha256()
    for seed in range(5):
        mem = make_memory(seed=seed, c_max=6, c_min=2, omega_max=30, b_max=20, n_s=60)
        for instance in label_flip_stream(seed):
            for e in mem.ingest(instance):
                h.update(repr((e.kind, e.centroid_id, e.label, e.info)).encode())
        for c in mem.all_centroids():
            h.update(c.mean.tobytes())
            h.update(repr((c.id, c.label, c.count)).encode())
    return h.hexdigest()


def test_label_flip_events_and_centroids_are_pinned():
    assert label_flip_digest() == (
        "5a28f75903da44cdf5413ca72b169e3281eb156a89813390ce9748e03bc41d6f")

