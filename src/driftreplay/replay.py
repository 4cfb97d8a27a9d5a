"""Replay assembly: purity-gated centroid sampling and class balancing."""
from __future__ import annotations

import math

import numpy as np

from .baselines import ClassBuffer, cb_sample
from .memory import LabeledInstance


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


def sample_replay(memory, rng: np.random.Generator) -> list[LabeledInstance]:
    """One attempted draw per centroid, gated by window purity.

    Class-buffer memories instead draw a fixed number of instances per
    label. Non-gated centroid memories always sample.
    """
    if isinstance(memory, ClassBuffer):
        return cb_sample(memory, memory.replay_per_label, rng)
    beta = memory.config.beta
    gated = memory.purity_gated
    out: list[LabeledInstance] = []
    for c in memory.all_centroids():
        items = c.buffer.items  # single-label: _assign routing and the switch/split resets
        if not items:
            continue
        if gated:
            c1, c2 = c.window.top_two_counts()
            if not purity(c1, c2, beta) > rng.random():
                continue
        out.append(items[int(rng.integers(len(items)))])
    return out


def oversample_balance(instances: list[LabeledInstance],
                       rng: np.random.Generator) -> list[LabeledInstance]:
    """Duplicate minority-class instances until both classes appear equally often.

    Single-class, balanced and empty lists come back unchanged.
    """
    labels = sorted({inst.label for inst in instances})
    if len(labels) < 2:
        return instances
    by_label = {l: [inst for inst in instances if inst.label == l] for l in labels}
    minority = min(labels, key=lambda l: (len(by_label[l]), l))
    majority = max(labels, key=lambda l: (len(by_label[l]), -l))
    pool = by_label[minority]
    need = len(by_label[majority]) - len(pool)
    if need == 0:
        return instances
    return instances + [pool[int(j)] for j in rng.integers(len(pool), size=need)]
