"""Self-test of the benchmark (``run.py --self-test``), on small configurations.

Checks that BENCHMARK.json matches the metric tables, that every metric
is printed with a well-formed name and unit, that report digests repeat
and survive tracing, that a raising cell is counted as failed ops, and
that memory counts repeat exactly and do not depend on the learner.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

from driftreplay import baselines
from driftreplay.experiment import run_experiment

import harness
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out" / "self-test"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 1


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(spec) != sorted(["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]):
        problems.append(f"unexpected keys {sorted(spec)}")
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: w.why for name, w in harness.WORKLOADS.items()}:
        problems.append("workloads differ from harness.WORKLOADS")
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
            != harness.END_TO_END:
        problems.append("end_to_end differs from harness.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != harness.PER_LAYER:
        problems.append("per_layer differs from harness.PER_LAYER")
    rows = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [r["name"] for r in rows]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"bad unit {r['unit']!r}" for r in rows if "unit" in r and not UNIT.match(r["unit"])]
    problems += [f"why of {w['name']} too long or not one line" for w in spec["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    problems += [f"bound of {m['name']} above 0.25" for m in spec["end_to_end"] if m["bound"] > 0.25]
    return problems


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def check_criterion_9():
    """The harness reproduces run_experiment byte for byte, traced or not."""
    w = harness.SELF_TEST_WORKLOADS["criterion-9"]
    seed = 11
    problems = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        config = w.config(seed, tmp)
        if run_experiment(config) != 0:
            problems.append("run_experiment failed")
        expected = _digests(sorted(Path(tmp).iterdir()))
    dataset, schedule, _ = harness.setup(w, seed)
    plain = [harness.run_pass(w, seed, dataset, schedule, OUT / "c9") for _ in range(2)]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = harness.run_pass(w, seed, *harness.setup(w, seed)[:2], OUT / "c9", tracer)
    for label, res in (("first", plain[0]), ("second", plain[1]), ("traced", traced)):
        if res.digests != expected:
            problems.append(f"{label} pass digests differ from run_experiment")
        if res.failed:
            problems.append(f"{label} pass failed ops: {res.failures}")
    status = harness.reference_status(w.name, seed, expected)
    if status != "match":
        problems.append(f"criterion-9 digests vs reference.json: {status} ({expected})")
    return problems


def _check_result(result, table, expect_correct=True):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not expect_correct:
        problems.append(f"correct is {result['correct']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    units = {row[0]: row[1] for row in table}
    if list(result["metrics"]) != [row[0] for row in table]:
        missing = set(units) - set(result["metrics"])
        problems.append(f"metrics missing or out of order: {sorted(missing)}")
    for name, metric in result["metrics"].items():
        if metric.get("unit") != units.get(name):
            problems.append(f"{name} has unit {metric.get('unit')!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has value {value!r}")
    json.dumps(result)
    return problems


def check_full_runs(measure):
    """tiny-drift through the benchmark's worker processes and its traced run.

    Every metric must be positive: a zero count means its layer went
    unexercised, and a ratio against zero cannot bound a regression.
    """
    w = harness.SELF_TEST_WORKLOADS["tiny-drift"]
    problems = []
    plain, _ = measure(w.name, SEED, 0.5, OUT / "tiny-plain")
    problems += _check_result(plain, harness.END_TO_END)
    traced, details = harness.measure_traced(w, SEED, 0.5, OUT / "tiny-traced")
    problems += _check_result(traced, harness.PER_LAYER)
    problems += details["problems"]
    for label, result in (("end-to-end", plain), ("per-layer", traced)):
        problems += [f"{label} {n} is {m['value']}, not positive"
                     for n, m in result["metrics"].items() if not m["value"] > 0]
    return problems


def check_forced_failure():
    """A cell that raises counts all its batches in failed and clears correct."""
    w = harness.SELF_TEST_WORKLOADS["tiny-drift"]
    original = baselines.ClassBuffer.ingest

    def broken(self, instance):
        raise RuntimeError("forced failure")

    baselines.ClassBuffer.ingest = broken
    try:
        passes = harness.timed_passes(w, SEED, 0.1, OUT / "tiny-failing")
        result, details = harness.summarise(w, passes, [1.0], 1.0)
    finally:
        baselines.ClassBuffer.ingest = original
    n_batches = len(harness.setup(w, SEED)[1])
    survivors = [row for row in harness.END_TO_END if row[0] not in ("acc.cb0", "acc.cb1")]
    problems = _check_result(result, survivors, expect_correct=False)
    passes = result["attempted"] // (n_batches * len(w.methods))
    if result["failed"] != 2 * n_batches * passes:
        problems.append(f"failed is {result['failed']}, expected {2 * n_batches * passes}")
    if sorted(details["failures"]) != ["cb0", "cb1"]:
        problems.append(f"failed cells {sorted(details['failures'])}, expected cb0 and cb1")
    return problems


def _memory_counts(name):
    """Counts of two traced rsb-only passes of a workload, seed 1."""
    workload = dataclasses.replace(harness.lookup(name), methods=("rsb",))
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.traced(tracer):
            dataset, schedule, _ = harness.setup(workload, SEED)
            harness.run_pass(workload, SEED, dataset, schedule, OUT / name, tracer)
        counts.append(harness.layer_counts(tracer))
    return counts


def check_counts():
    """Counts repeat exactly; memory counts do not depend on learner epochs."""
    problems = []
    replay = _memory_counts("wide-replay")
    single = _memory_counts("wide-single-pass")
    for label, pair in (("wide-replay", replay), ("wide-single-pass", single)):
        if pair[0] != pair[1]:
            problems.append(f"{label} counts differ between identical passes")
    keys = ["memory.ingest.n"] + [k for k, _ in harness.COUNTS if k.startswith("memory.events.")]
    for key in keys:
        if replay[0][key] != single[0][key]:
            problems.append(f"{key}: {replay[0][key]} on wide-replay, "
                            f"{single[0][key]} on wide-single-pass")
    for kind in ("split", "removed"):
        if replay[0][f"memory.events.{kind}"] == 0:
            problems.append(f"wide-replay has no {kind} event, so that path went unchecked")
    return problems


def main(measure) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    checks = [
        ("BENCHMARK.json matches the metric tables", check_benchmark_json),
        ("criterion-9 digests repeat, survive tracing and match run_experiment",
         check_criterion_9),
        ("every metric printed with its unit", lambda: check_full_runs(measure)),
        ("a raising cell is counted in failed", check_forced_failure),
        ("counts repeat and memory counts ignore the learner", check_counts),
    ]
    failures = 0
    for title, check in checks:
        problems = check()
        print(f"{'FAIL' if problems else 'PASS'} {title}")
        for problem in problems:
            print(f"    {problem}")
        failures += bool(problems)
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"self-test: {len(checks) - failures} of {len(checks)} checks passed")
    return 1 if failures else 0
