"""Unit tests for the claim verdict of tools/bench_pairs.py's summary."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pairs_of(parent, change, name="wall_s"):
    return [{"first": "parent", "parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


PARENT = [3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.1]  # Q1 3.025, Q3 3.175


def test_a_clear_gain_is_beyond_noise():
    change = [v - 0.3 for v in PARENT]
    change[0] = PARENT[0] + 0.1  # one lost pair still leaves nine of ten
    s = bench_pairs.summarise(pairs_of(PARENT, change), {"wall_s": "lower"})["wall_s"]
    assert s["change_wins"] == 9
    assert s["parent_iqr"] == pytest.approx(0.15)
    assert s["beyond_noise"] is True


def test_ties_count_for_neither_side():
    change = [v - 0.3 for v in PARENT]
    change[0] = PARENT[0]
    change[1] = PARENT[1]
    s = bench_pairs.summarise(pairs_of(PARENT, change), {"wall_s": "lower"})["wall_s"]
    assert s["change_wins"] == 8  # the two ties are not wins
    assert s["beyond_noise"] is False


def test_a_gap_inside_the_parent_spread_is_not_beyond_noise():
    change = [v - 0.1 for v in PARENT]  # wins every pair, but 0.1 < IQR 0.15
    s = bench_pairs.summarise(pairs_of(PARENT, change), {"wall_s": "lower"})["wall_s"]
    assert s["change_wins"] == 10
    assert s["beyond_noise"] is False


def test_higher_is_better_metrics_win_upward():
    better = {"acc": "higher"}
    up = bench_pairs.summarise(pairs_of(PARENT, [v + 0.3 for v in PARENT], "acc"), better)["acc"]
    assert up["change_wins"] == 10 and up["beyond_noise"] is True
    down = bench_pairs.summarise(pairs_of(PARENT, [v - 0.3 for v in PARENT], "acc"),
                                 better)["acc"]
    assert down["change_wins"] == 0 and down["beyond_noise"] is False


def test_a_loss_beyond_the_bound_is_flagged_in_either_direction():
    bounds = {"wall_s": 0.25, "acc": 0.1}
    better = {"wall_s": "lower", "acc": "higher"}

    def worse(name, change):
        return bench_pairs.summarise(pairs_of(PARENT, change, name), better,
                                     bounds)[name]["worse_beyond_bound"]

    assert worse("wall_s", [v * 1.2 for v in PARENT]) is False  # inside 25%
    assert worse("wall_s", [v * 1.3 for v in PARENT]) is True
    assert worse("wall_s", [v * 0.5 for v in PARENT]) is False  # a gain
    assert worse("acc", [v * 0.95 for v in PARENT]) is False
    assert worse("acc", [v * 0.85 for v in PARENT]) is True
    assert "worse_beyond_bound" not in bench_pairs.summarise(
        pairs_of(PARENT, PARENT), better)["wall_s"]  # no bound, no verdict
