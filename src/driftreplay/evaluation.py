"""Holdout accuracy, per-subconcept traces and the normalized average accuracy."""
from __future__ import annotations

import csv
import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class MetricsRecord:
    method: str
    seed: int
    alphas: list = field(default_factory=list)           # per-batch overall accuracy
    per_subconcept: list = field(default_factory=list)   # per-batch {sid: accuracy}
    omega: float | None = None


def evaluate_batch(predict_labels, pool):
    """Overall and per-subconcept accuracy over the cumulative test pool.

    predict_labels maps an (n, d) array to an array of n predicted labels.
    """
    if len(pool.groups) == 0 or len(pool) == 0:
        raise ValueError("evaluation pool is empty")
    correct = 0
    total = 0
    per_sub = {}
    for sid, X, label in pool.groups:
        preds = np.asarray(predict_labels(X))
        hits = int((preds == label).sum())
        per_sub[sid] = hits / len(X)
        correct += hits
        total += len(X)
    return correct / total, per_sub


def omega_all(alphas, offline_alphas) -> float:
    """Mean per-batch accuracy normalized by the offline reference."""
    a = np.asarray(alphas, dtype=np.float64)
    o = np.asarray(offline_alphas, dtype=np.float64)
    if a.size == 0 or a.size != o.size:
        raise ValueError("need equally sized, non-empty accuracy sequences")
    bad = np.flatnonzero(~(o > 0))
    if bad.size:
        raise ValueError("offline accuracy must be positive everywhere; it is not at batches "
                         + ", ".join(str(t) for t in bad))
    return float(np.mean(a / o))


def emit_report(records, out_dir, config_text: str = ""):
    """Write per-seed accuracy CSVs and a summary JSON; returns written paths."""
    if not records:
        raise ValueError("no records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    seeds = sorted({r.seed for r in records})
    for seed in seeds:
        path = out_dir / f"accuracy_seed{seed}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch", "method", "accuracy", "subconcept", "subconcept_accuracy"])
            for r in sorted((r for r in records if r.seed == seed), key=lambda r: r.method):
                for t, alpha in enumerate(r.alphas):
                    writer.writerow([t, r.method, repr(float(alpha)), "", ""])
                    for sid in sorted(r.per_subconcept[t]):
                        writer.writerow([t, r.method, repr(float(alpha)), sid,
                                         repr(float(r.per_subconcept[t][sid]))])
        written.append(path)

    by_method: dict[str, dict[int, float]] = {}
    for r in records:
        if r.omega is not None:
            by_method.setdefault(r.method, {})[r.seed] = r.omega
    summary = {
        "seeds": seeds,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "omega_all": {
            method: {
                "per_seed": {str(s): v for s, v in sorted(vals.items())},
                "median": statistics.median(vals.values()),
            }
            for method, vals in sorted(by_method.items())
        },
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(summary_path)
    return written
