"""Unit tests for accuracy evaluation and reporting."""
import csv
import json

import numpy as np
import pytest

from driftreplay.evaluation import MetricsRecord, emit_report, evaluate_batch, omega_all
from driftreplay.streams import EvalPool


def pool_from(groups):
    return EvalPool([(sid, np.asarray(X, dtype=np.float64), label)
                     for sid, X, label in groups])


# ---------------------------------------------------------------- accuracy

def test_perfect_predictor_scores_one():
    pool = pool_from([(0, np.zeros((5, 2)), 1), (1, np.ones((5, 2)), 0)])

    def oracle(X):
        return np.where(X[:, 0] == 0.0, 1, 0)

    overall, per_sub = evaluate_batch(oracle, pool)
    assert overall == 1.0
    assert per_sub == {0: 1.0, 1: 1.0}


def test_constant_predictor_on_balanced_pool():
    pool = pool_from([(0, np.zeros((10, 2)), 1), (1, np.ones((10, 2)), 0)])
    overall, per_sub = evaluate_batch(lambda X: np.ones(len(X), dtype=int), pool)
    assert overall == 0.5
    assert per_sub == {0: 1.0, 1: 0.0}


def test_per_subconcept_accuracies_average_to_overall():
    rng = np.random.default_rng(0)
    groups = [(sid, rng.normal(size=(rng.integers(5, 30), 3)), int(rng.integers(2)))
              for sid in range(6)]
    pool = pool_from(groups)
    overall, per_sub = evaluate_batch(
        lambda X: rng.integers(2, size=len(X)), pool)
    total = sum(len(X) for _, X, _ in pool.groups)
    weighted = sum(per_sub[sid] * len(X) for sid, X, _ in pool.groups) / total
    assert overall == pytest.approx(weighted)


def test_empty_pool_raises():
    with pytest.raises(ValueError):
        evaluate_batch(lambda X: np.zeros(len(X)), EvalPool([]))


# ---------------------------------------------------------------- omega_all

def test_omega_identity_is_one():
    assert omega_all([0.3, 0.9, 0.7], [0.3, 0.9, 0.7]) == 1.0


def test_omega_half_example():
    assert omega_all([0.5, 1.0], [1.0, 1.0]) == 0.75


def test_omega_rejects_bad_input():
    with pytest.raises(ValueError):
        omega_all([0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        omega_all([], [])
    with pytest.raises(ValueError, match=r"everywhere; it is not at batches 1$"):
        omega_all([0.5, 0.5], [0.5, 0.0])
    with pytest.raises(ValueError, match=r"it is not at batches 1, 3$"):
        omega_all([0.5] * 4, [0.5, -0.5, 0.5, np.nan])


def test_omega_invariant_under_paired_permutation():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 1.0, size=20)
    o = rng.uniform(0.5, 1.0, size=20)
    perm = rng.permutation(20)
    assert omega_all(a, o) == pytest.approx(omega_all(a[perm], o[perm]))


# ---------------------------------------------------------------- reporting

def sample_records(n_batches=30):
    rng = np.random.default_rng(2)
    records = []
    for method in ("aa", "bb"):
        alphas = list(rng.uniform(0.5, 1.0, size=n_batches))
        offline = list(rng.uniform(0.9, 1.0, size=n_batches))
        per_sub = [{0: float(rng.uniform()), 1: float(rng.uniform())}
                   for _ in range(n_batches)]
        records.append(MetricsRecord(method, 7, alphas, per_sub, omega_all(alphas, offline)))
    return records


def test_report_csv_round_trip(tmp_path):
    records = sample_records()
    emit_report(records, tmp_path, "cfg")
    path = tmp_path / "accuracy_seed7.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    overall = [r for r in rows if r["subconcept"] == ""]
    assert len(overall) == 2 * 30  # 30 overall rows per method
    for record in records:
        mine = [r for r in overall if r["method"] == record.method]
        assert [float(r["accuracy"]) for r in mine] == record.alphas
    sub_rows = [r for r in rows if r["subconcept"] != ""]
    assert len(sub_rows) == 2 * 30 * 2
    first = records[0]
    got = {(int(r["batch"]), int(r["subconcept"])): float(r["subconcept_accuracy"])
           for r in sub_rows if r["method"] == "aa"}
    for t in range(30):
        for sid in (0, 1):
            assert got[(t, sid)] == first.per_subconcept[t][sid]


def test_summary_schema(tmp_path):
    emit_report(sample_records(), tmp_path, "some config text")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"seeds", "config_sha256", "omega_all"}
    assert summary["seeds"] == [7]
    assert len(summary["config_sha256"]) == 64
    for method in ("aa", "bb"):
        entry = summary["omega_all"][method]
        assert set(entry) == {"per_seed", "median"}
        assert entry["median"] == entry["per_seed"]["7"]


def test_report_requires_records(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)
