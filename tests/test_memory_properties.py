"""Property-based checks of the centroid memory's structural invariants.

Hypothesis draws the memory's knobs and a label-flip stream; the
invariants of `test_memory.assert_memory_invariants` must hold after
every ingest, in both maintenance modes.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from driftreplay.memory import LabeledInstance, RsbConfig, RsbMemory
from test_memory import assert_memory_invariants, group_sizes

N_SUB = 6
STEPS = 300


@st.composite
def memory_configs(draw):
    c_max = draw(st.integers(1, 6))
    return dict(
        c_max=c_max,
        c_min=draw(st.integers(1, c_max)),
        omega_max=draw(st.integers(1, 30)),
        b_max=draw(st.integers(1, 20)),
        n_s=draw(st.integers(5, 60)),
        tau_s=draw(st.floats(0.0, 1.0)),
        sigma_k=draw(st.floats(0.5, 3.0)),
    )


def flip_stream(seed, flips):
    """STEPS draws from N_SUB unit-variance 2-D subconcepts 3.0 apart.

    `flips` maps a step to the subconcept whose label flips there.
    """
    rng = np.random.default_rng(seed)
    means = 3.0 * np.array([[k % 3, k // 3] for k in range(N_SUB)], dtype=np.float64)
    labels = [k % 2 for k in range(N_SUB)]
    for t in range(STEPS):
        if t in flips:
            labels[flips[t]] = 1 - labels[flips[t]]
        k = int(rng.integers(N_SUB))
        yield LabeledInstance(rng.normal(means[k], 1.0), labels[k], k)


@pytest.mark.parametrize("per_centroid", [False, True])
@settings(max_examples=25, deadline=None)
@given(knobs=memory_configs(), seed=st.integers(0, 2**32 - 1),
       flips=st.dictionaries(st.integers(1, STEPS - 1), st.integers(0, N_SUB - 1), max_size=12))
def test_invariants_hold_on_random_flip_streams(per_centroid, knobs, seed, flips):
    mem = RsbMemory(RsbConfig(per_centroid_maintenance=per_centroid, **knobs),
                    np.random.default_rng(seed))
    for instance in flip_stream(seed, flips):
        before = group_sizes(mem)
        events = mem.ingest(instance)
        assert_memory_invariants(mem, events, before)
