"""Reactive centroid memory for experience replay under concept drift.

Each centroid keeps a running mean/variance (Welford), a reservoir replay
buffer and a FIFO window of the most recent instances routed to it. The
window drives relabeling (switch), splitting and removal of stale clusters.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

VAR_FLOOR = 1e-9
# Largest accepted feature magnitude. Squared deviations stay below 4e200, so
# Welford and distance sums over any feasible count x dim stay finite.
MAX_FEATURE_ABS = 1e100


def require_positive(spec, *names):
    """Refuse the first of the named fields of ``spec`` that is not positive, by its name."""
    for name in names:
        if getattr(spec, name) <= 0:
            raise ValueError(f"{name} must be positive")


class DimensionMismatchError(ValueError):
    pass


class NonFiniteFeatureError(ValueError):
    pass


class EmptyMemoryError(LookupError):
    pass


class IllegalStateError(RuntimeError):
    pass


def as_features(values) -> np.ndarray:
    """Coerce to a 1-D float64 vector with every |value| <= MAX_FEATURE_ABS."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatchError(f"expected non-empty 1-D vector, got shape {x.shape}")
    if not np.abs(x).max() <= MAX_FEATURE_ABS:  # also false for NaN and inf
        raise NonFiniteFeatureError(f"feature values must be finite and within {MAX_FEATURE_ABS:g}")
    return x


@dataclass(slots=True)
class LabeledInstance:
    """A feature vector with its binary label.

    subconcept_id identifies the originating class for evaluation only;
    it is never visible to any learner.
    """
    features: np.ndarray
    label: int
    subconcept_id: int = -1


@dataclass(slots=True)
class MemoryEvent:
    kind: str  # created | updated | switched | split | removed
    centroid_id: int
    label: int
    info: str = ""


@dataclass
class RsbConfig:
    c_max: int = 10
    c_min: int | None = None  # defaults to c_max // 2
    b_max: int = 100
    omega_max: int = 100
    n_s: int = 1000
    tau_s: float = 0.5
    alpha_r: float = 0.4
    beta: float = 4.0
    sigma_k: float = 2.0
    switch_fraction: float = 0.5

    def __post_init__(self):
        if self.c_min is None:
            self.c_min = max(1, self.c_max // 2)
        if self.c_min <= 0 or self.c_max <= 0 or self.c_min > self.c_max:
            raise ValueError(f"need 0 < c_min <= c_max, got {self.c_min}, {self.c_max}")
        require_positive(self, "b_max", "omega_max", "n_s")
        if self.tau_s < 0:
            raise ValueError("tau_s must be non-negative")
        if not 0.0 <= self.alpha_r <= 1.0:
            raise ValueError("alpha_r must lie in [0, 1]")
        require_positive(self, "beta", "sigma_k")
        if not 0.0 < self.switch_fraction <= 1.0:
            raise ValueError("switch_fraction must lie in (0, 1]")

    @property
    def tau_r(self) -> float:
        return self.alpha_r * self.omega_max


class SlidingWindow:
    """Bounded FIFO of recent instances; eviction is strictly oldest-first.

    ``counts`` tallies the labels of ``entries`` (label -> count, no zero
    counts). ``push`` is the only mutator, so it keeps the tally in step.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self.entries = deque(maxlen=capacity)
        self.counts: dict[int, int] = {}

    def push(self, instance: LabeledInstance):
        if len(self.entries) == self.capacity:
            old = self.entries[0].label
            self.counts[old] -= 1
            if not self.counts[old]:
                del self.counts[old]
        self.entries.append(instance)
        self.counts[instance.label] = self.counts.get(instance.label, 0) + 1

    def ranked(self) -> list[tuple[int, int]]:
        """(label, count) pairs, most numerous first; ties go to the lower label."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def top_two_counts(self) -> tuple[int, int]:
        """Counts of the two most numerous labels; second is 0 if the window is pure."""
        counts = sorted(self.counts.values(), reverse=True) + [0, 0]
        return counts[0], counts[1]


class CentroidBuffer:
    """Bounded replay store filled by reservoir sampling over the centroid lifetime."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self.items: list[LabeledInstance] = []
        self.seen = 0

    def add(self, instance: LabeledInstance, rng: np.random.Generator):
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(instance)
        else:
            j = int(rng.integers(self.seen))
            if j < self.capacity:
                self.items[j] = instance

    def reset(self, items):
        self.items = list(items)[: self.capacity]
        self.seen = len(self.items)


class ReactiveCentroid:
    def __init__(self, cid: int, instance: LabeledInstance, b_max: int, omega_max: int):
        self.id = cid
        self.label = instance.label
        self.buffer = CentroidBuffer(b_max)
        self.reseed([instance])
        self.window = SlidingWindow(omega_max)
        self.window.push(instance)
        self.registered_since_maintenance = 1
        self.window_updates_since_tick = 1
        self.in_grace_period = True

    def variance(self) -> np.ndarray:
        return self.m2 / self.count

    def update_stats(self, x: np.ndarray):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def reseed(self, instances):
        """Recompute mean/m2/count over the instances and refill the buffer with them."""
        if not instances:
            raise IllegalStateError("cannot reseed a centroid from zero instances")
        X = np.stack([inst.features for inst in instances])
        self.count = len(instances)
        self.mean = X.mean(axis=0)
        self.m2 = ((X - self.mean) ** 2).sum(axis=0)
        self.buffer.reset(instances)


def find_nearest(centroids, x: np.ndarray) -> ReactiveCentroid:
    """Centroid with minimal Euclidean distance to x; ties go to the lowest id.

    One vectorized pass over the stacked means. ``sqrt(vecdot(D, D))`` runs
    the same dot as ``np.linalg.norm`` of each row, so the distances are
    the same floats bit for bit. Distances that all overflow to inf tie.
    A NaN distance (from a NaN mean) is skipped; if every one is NaN there
    is no nearest centroid.
    """
    cs = list(centroids)
    if not cs:
        raise EmptyMemoryError("no centroids to search")
    D = x - np.array([c.mean for c in cs])
    d = np.sqrt(np.vecdot(D, D))
    m = d.min()
    if math.isnan(m):
        if np.isnan(d).all():
            raise EmptyMemoryError("no centroid at a comparable distance")
        m = np.nanmin(d)
    return min((cs[i] for i in np.flatnonzero(d == m)), key=lambda c: c.id)


def within_bounds(c: ReactiveCentroid, x: np.ndarray, sigma_k: float) -> bool:
    """Containment test: distance to the mean against sigma_k total std.

    The radius is sigma_k * sqrt(sum of per-dimension variances) so that
    in-distribution points stay inside regardless of dimensionality
    (E[dist^2] from an isotropic cloud is the variance trace). Variances
    are floored to keep fresh single-instance centroids well defined.
    """
    var = np.maximum(c.variance(), VAR_FLOOR)
    radius = sigma_k * math.sqrt(float(var.sum()))
    return float(np.linalg.norm(x - c.mean)) <= radius


def check_switch(c: ReactiveCentroid, config: RsbConfig):
    """Window-majority label if it disagrees with the centroid and is frequent enough."""
    ranked = c.window.ranked()
    if not ranked:
        return None
    majority, count = ranked[0]
    needed = math.ceil(config.switch_fraction * config.omega_max)
    if majority != c.label and count >= needed:
        return majority
    return None


def check_split(c: ReactiveCentroid, config: RsbConfig) -> bool:
    c1, c2 = c.window.top_two_counts()
    if c2 == 0:
        return False
    return c1 / c2 - 1.0 < config.tau_s


class _CentroidMemory:
    """Shared bookkeeping for centroid-driven memories."""

    def __init__(self, config: RsbConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.centroids: dict[int, list[ReactiveCentroid]] = {}
        self.dim: int | None = None
        self._next_id = 0

    def all_centroids(self):
        for label in sorted(self.centroids):
            yield from self.centroids[label]

    def _validate(self, instance: LabeledInstance) -> np.ndarray:
        x = as_features(instance.features)
        if self.dim is None:
            self.dim = x.size
        elif x.size != self.dim:
            raise DimensionMismatchError(f"expected dim {self.dim}, got {x.size}")
        instance.features = x
        return x

    def _create(self, instance: LabeledInstance) -> ReactiveCentroid:
        c = ReactiveCentroid(self._next_id, instance, self.config.b_max, self.config.omega_max)
        self._next_id += 1
        self.centroids.setdefault(instance.label, []).append(c)
        return c

    def _move(self, c: ReactiveCentroid, label: int):
        """Relabel c and refile it at the end of its new label group."""
        group = self.centroids[c.label]
        group.remove(c)
        if not group:
            del self.centroids[c.label]
        c.label = label
        self.centroids.setdefault(label, []).append(c)

    def _assign(self, c: ReactiveCentroid, instance: LabeledInstance):
        c.update_stats(instance.features)
        c.buffer.add(instance, self.rng)
        c.window.push(instance)
        c.registered_since_maintenance += 1
        c.window_updates_since_tick += 1

    def _place(self, instance: LabeledInstance, x: np.ndarray) -> MemoryEvent:
        """Place an instance among its own label's centroids; return its event.
        Below c_min centroids the label gets a new one (bootstrap). Otherwise
        the instance joins the nearest if x is within its bounds or the label
        is at c_max, and starts a new one if not."""
        y = instance.label
        own = self.centroids.get(y, [])
        if len(own) < self.config.c_min:
            return MemoryEvent("created", self._create(instance).id, y, "bootstrap")
        c = find_nearest(own, x)
        if within_bounds(c, x, self.config.sigma_k) or len(own) >= self.config.c_max:
            self._assign(c, instance)
            return MemoryEvent("updated", c.id, y)
        return MemoryEvent("created", self._create(instance).id, y)


class RsbMemory(_CentroidMemory):
    """Reactive subspace memory: centroids switch, split and get removed as drift hits."""

    purity_gated = True

    def __init__(self, config: RsbConfig, rng: np.random.Generator | None = None):
        super().__init__(config, rng)
        self.stream_counter = 0  # instances ingested; maintenance runs every n_s of them

    def ingest(self, instance: LabeledInstance) -> list[MemoryEvent]:
        x = self._validate(instance)
        events: list[MemoryEvent] = []
        self.stream_counter += 1
        # past bootstrap, the nearest centroid of any label may take the instance
        cx = (find_nearest(self.all_centroids(), x)
              if len(self.centroids.get(instance.label, [])) >= self.config.c_min else None)
        if cx is not None and cx.label == instance.label:
            self._assign(cx, instance)
            events.append(MemoryEvent("updated", cx.id, cx.label))
        elif cx is not None and within_bounds(cx, x, self.config.sigma_k):
            cx.window.push(instance)
            cx.window_updates_since_tick += 1
            self._switch(cx, events)
        else:
            events.append(self._place(instance, x))
        if self.stream_counter % self.config.n_s == 0:
            events.extend(self.maintenance())
        return events

    def _switch(self, c: ReactiveCentroid, events: list[MemoryEvent]) -> bool:
        """Relabel c to its window majority if check_switch says so, and
        reseed it from the window entries of that label (the window stays)."""
        new_label = check_switch(c, self.config)
        if new_label is None:
            return False
        old = c.label
        self._move(c, new_label)
        c.reseed([inst for inst in c.window.entries if inst.label == new_label])
        events.append(MemoryEvent("switched", c.id, new_label, f"from {old}"))
        return True

    def maintenance(self) -> list[MemoryEvent]:
        """One tick over every centroid.

        Each centroid switches, or else splits if its window is impure.
        Then stale centroids are removed, keeping at least one per label,
        and the period counters of every survivor reset.
        """
        events: list[MemoryEvent] = []
        cfg = self.config
        for c in list(self.all_centroids()):
            if self._switch(c, events) or not check_split(c, cfg):
                continue
            kept, born = apply_split(self, c)
            events.append(MemoryEvent("split", kept.id, kept.label, f"spawned {born.id}"))
            events.append(MemoryEvent("created", born.id, born.label, "split"))
        for label in sorted(self.centroids):
            survivors = []
            pending = sorted(self.centroids[label], key=lambda c: c.id)
            for i, c in enumerate(pending):
                removable = (
                    not c.in_grace_period
                    and c.registered_since_maintenance < cfg.tau_r
                    and c.window_updates_since_tick >= cfg.tau_r
                )
                remaining = len(pending) - i - 1
                if removable and len(survivors) + remaining >= 1:
                    events.append(MemoryEvent("removed", c.id, c.label))
                else:
                    survivors.append(c)
            self.centroids[label] = survivors
        for c in self.all_centroids():
            c.registered_since_maintenance = 0
            c.window_updates_since_tick = 0
            c.in_grace_period = False
        return events


def apply_split(memory: _CentroidMemory, c: ReactiveCentroid):
    """Split an impure centroid into two single-label ones.

    The original keeps the window-majority label; a fresh centroid takes
    the runner-up label and is seeded (stats, buffer, window) from its
    window entries. The split may transiently push a class past c_max.
    """
    ranked = c.window.ranked()
    if len(ranked) < 2:
        raise IllegalStateError("split requires at least two labels in the window")
    major, minor = ([inst for inst in c.window.entries if inst.label == label]
                    for label, _ in ranked[:2])
    if c.label != major[0].label:
        memory._move(c, major[0].label)
    c.reseed(major)
    c.window = SlidingWindow(memory.config.omega_max)
    for inst in major:
        c.window.push(inst)

    born = memory._create(minor[0])
    for inst in minor[1:]:
        born.window.push(inst)
    born.reseed(minor)
    born.registered_since_maintenance = born.window_updates_since_tick = len(minor)
    return c, born
