"""Reference replay memories: threshold class buffers and non-reactive centroids."""
from __future__ import annotations

import numpy as np

from .memory import (
    LabeledInstance,
    MemoryEvent,
    RsbConfig,
    _CentroidMemory,
    find_nearest,
    within_bounds,
)


class ClassBuffer:
    """One bounded buffer per label with threshold-gated random replacement."""

    purity_gated = False

    def __init__(self, b_max: int, tau: float, rng: np.random.Generator | None = None,
                 replay_per_label: int = 10):
        if b_max <= 0:
            raise ValueError("b_max must be positive")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if replay_per_label <= 0:
            raise ValueError("replay_per_label must be positive")
        self.b_max = b_max
        self.tau = tau
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.replay_per_label = replay_per_label
        self.buffers: dict[int, list[LabeledInstance]] = {}

    def ingest(self, instance: LabeledInstance) -> bool:
        """Store if there is room; otherwise replace a random victim when r < tau."""
        group = self.buffers.setdefault(instance.label, [])
        if len(group) < self.b_max:
            group.append(instance)
            return True
        if float(self.rng.random()) < self.tau:
            group[int(self.rng.integers(len(group)))] = instance
            return True
        return False


def cb_sample(buffer: ClassBuffer, k: int, rng: np.random.Generator) -> list[LabeledInstance]:
    """k uniform draws with replacement per non-empty label."""
    if k <= 0:
        raise ValueError("k must be positive")
    out: list[LabeledInstance] = []
    for label in sorted(buffer.buffers):
        group = buffer.buffers[label]
        if not group:
            continue
        idx = rng.integers(len(group), size=k)
        out.extend(group[int(i)] for i in idx)
    return out


class StaticCentroidMemory(_CentroidMemory):
    """Centroid memory without reactivity: labels never change, nothing is removed.

    Shares the bootstrap, containment rule and reservoir buffers with the
    reactive memory so that comparisons isolate the reactivity alone.
    """

    purity_gated = False

    def ingest(self, instance: LabeledInstance) -> MemoryEvent:
        x = self._validate(instance)
        y = instance.label
        own = self.centroids.get(y, [])
        if len(own) < self.config.c_min:
            c = self._create(instance)
            return MemoryEvent("created", c.id, y, "bootstrap")
        c = find_nearest(own, x)
        if within_bounds(c, x, self.config.sigma_k) or len(own) >= self.config.c_max:
            self._assign(c, instance)
            return MemoryEvent("updated", c.id, c.label)
        c = self._create(instance)
        return MemoryEvent("created", c.id, y)
