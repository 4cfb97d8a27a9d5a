"""Replay batch assembly: purity-gated centroid sampling and class balancing."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import ClassBuffer, cb_sample
from .memory import LabeledInstance


@dataclass
class ReplayBatch:
    instances: list[LabeledInstance] = field(default_factory=list)
    provenance: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.instances)


def purity(c1: int, c2: int, beta: float) -> float:
    """Sampling gate in [0, 1): tanh(beta * (c1 - c2) / (c1 + c2)).

    An empty window yields 0 so such a centroid is never sampled.
    """
    if c2 < 0 or c1 < c2:
        raise ValueError(f"need c1 >= c2 >= 0, got {c1}, {c2}")
    total = c1 + c2
    if total == 0:
        return 0.0
    return math.tanh(beta * (c1 - c2) / total)


def sample_replay(memory, rng: np.random.Generator) -> ReplayBatch:
    """One attempted draw per centroid, gated by window purity.

    Class-buffer memories instead draw a fixed number of instances per
    label. Non-gated centroid memories always sample.
    """
    batch = ReplayBatch()
    if memory is None:
        return batch
    if isinstance(memory, ClassBuffer):
        for inst in cb_sample(memory, memory.replay_per_label, rng):
            batch.instances.append(inst)
            batch.provenance.append(inst.label)
        return batch
    beta = memory.config.beta
    for c in memory.all_centroids():
        if not c.buffer.items:
            continue
        if memory.purity_gated:
            c1, c2 = c.window.top_two_counts()
            if not purity(c1, c2, beta) > float(rng.random()):
                continue
        items = c.buffer.items  # single-label: _assign routing and the switch/split resets
        batch.instances.append(items[int(rng.integers(len(items)))])
        batch.provenance.append(c.id)
    return batch


def oversample_balance(batch: ReplayBatch, rng: np.random.Generator) -> ReplayBatch:
    """Duplicate minority-class instances until both classes appear equally often.

    Single-class and empty batches come back unchanged.
    """
    labels = sorted({inst.label for inst in batch.instances})
    if len(labels) < 2:
        return batch
    by_label = {l: [i for i, inst in enumerate(batch.instances) if inst.label == l] for l in labels}
    counts = {l: len(ix) for l, ix in by_label.items()}
    minority = min(labels, key=lambda l: (counts[l], l))
    majority = max(labels, key=lambda l: (counts[l], -l))
    need = counts[majority] - counts[minority]
    if need == 0:
        return batch
    instances = list(batch.instances)
    provenance = list(batch.provenance)
    pool = by_label[minority]
    for j in rng.integers(len(pool), size=need):
        src = pool[int(j)]
        instances.append(batch.instances[src])
        provenance.append(batch.provenance[src])
    return ReplayBatch(instances, provenance)
