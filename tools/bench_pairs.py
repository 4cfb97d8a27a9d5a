"""Paired before/after benchmark of two driftreplay checkouts.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_nearest_scan.json
    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_nearest_scan.json

For each of ten pairs and each workload of the change's ``BENCHMARK.json``
it runs ``python3 perfbench/run.py`` untraced on seed 2 in both checkouts,
one after the other, alternating which side goes first, so that a slow
stretch of the machine falls on both sides in turn. Each run lasts
perfbench's own run length. Then it runs one traced run per side and
workload. It writes ``BENCH_<slug>.json``
with the environment of each side (with ``src_lines``, the line count of
its ``src/driftreplay/*.py``), every per-pair value, the medians with
[Q1, Q3], how many pairs the change won, the per-layer metrics and the
report digests. Each run's wall and CPU seconds (its process and every
child it waited for) stand beside its operation counts, so a run the host
paused shows as wall time far above its CPU time. Each metric's summary says whether the change's gain is
beyond noise (``beyond_noise``, against ``parent_iqr``). An end-to-end
metric's summary also says whether it got worse by more than its
``bound`` in ``BENCHMARK.json`` (``worse_beyond_bound``), and whether the
runs spread too widely to tell (``unresolved``). Each workload's
``ratios`` divide each run's ``rsb_s``, ``sb_s`` and ``baseline_s`` by the
same run's ``offline_s`` and summarise them the same way, without a
bound: a host whose speed swings between runs moves both alike.

Each side is a checkout directory or, when the argument is not a
directory, a revision of the git repository in the working directory. A
revision is exported with ``git archive`` into a temporary directory, and
its full commit id is recorded as that side's ``git_commit``.

Both sides run with bytecode caches: each side gets its own fresh cache
directory (``PYTHONPYCACHEPREFIX``), compiled before the first run, so a
stale or missing ``__pycache__`` in either checkout cannot tilt
``setup_s``. The checkouts are only read, apart from what perfbench writes
to their ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SEED = 2  # the held-out seed
TIMEOUT_S = 900  # per perfbench run
RATIOS = ("rsb_s", "sb_s", "baseline_s")  # each over the same run's offline_s


def cpu_of_children() -> float:
    """User plus system seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(checkout: Path, env: dict, workload: str, trace: int) -> dict:
    """One perfbench run: its result, environment, digests and reference
    status, and its wall (``elapsed_s``) and CPU (``cpu_s``) seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace)]
    cpu, t0 = cpu_of_children(), time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    run = {"result": json.loads(lines[-1]), "digests": {}, "problems": [],
           "elapsed_s": time.monotonic() - t0, "cpu_s": cpu_of_children() - cpu}
    for line in lines[:-1]:
        head, _, rest = line.partition(": ")
        if head == "environment":
            run["environment"] = json.loads(rest)
        elif head.startswith("sha256 "):
            run["digests"][head[len("sha256 "):]] = rest
        elif head == "reference digests":
            run["reference_digests"] = rest
        elif head == "problem" or head.startswith("failed cell "):
            run["problems"].append(line)
    return run


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, ``src/driftreplay/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "driftreplay").glob("*.py"))


def export_revision(revision: str, into: Path) -> str:
    """Write ``git archive``'s tree of ``revision`` into the new directory
    ``into``; return the revision's full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list, better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median and [Q1, Q3], the relative change of
    the medians, the number of pairs in which the change was better, and
    whether that gain is beyond noise: the change wins at least nine tenths
    of all pairs (a tie counts for neither side) and its median is better
    than the parent's by more than the parent's Q3 - Q1. A metric with a
    bound (the end-to-end ones) also says whether it is ``worse_beyond_bound``:
    the change's median is worse than the parent's by more than that share
    of the parent's median; and whether it is ``unresolved``: the larger
    side's Q3 - Q1 exceeds that share of the parent's median, and not every
    change value is better than every parent value."""
    out = {}
    for name in pairs[0]["parent"]:
        if name not in better:
            continue
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1.0 if better[name] == "lower" else -1.0
        stats = {side: quartiles(values) for side, values in sides.items()}
        before, after = stats["parent"]["median"], stats["change"]["median"]
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            **stats,
            "relative_change": (after - before) / before if before else None,
            "change_wins": wins,
            "parent_iqr": iqr,
            "beyond_noise": 10 * wins >= 9 * len(pairs) and sign * (before - after) > iqr,
        }
        if bounds and name in bounds:
            spread = max(stats[side]["q3"] - stats[side]["q1"] for side in SIDES)
            better_than_all = all(sign * (c - p) < 0
                                  for c in sides["change"] for p in sides["parent"])
            out[name]["worse_beyond_bound"] = sign * (after - before) > bounds[name] * before
            out[name]["unresolved"] = spread > bounds[name] * before and not better_than_all
    return out


def offline_ratios(pairs: list) -> list:
    """``pairs`` with each run's ``RATIOS`` metrics divided by its own
    ``offline_s``, named ``<metric>/offline_s``; a run without them has none."""
    def of(run):
        return {f"{name}/offline_s": run[name] / run["offline_s"]
                for name in RATIOS if name in run and run.get("offline_s")}
    return [{"first": p["first"], **{side: of(p[side]) for side in SIDES}} for p in pairs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout or git revision")
    parser.add_argument("--change", required=True, help="change checkout or git revision")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<slug>.json to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts, commits = {}, {}
        for side in SIDES:
            given = getattr(args, side)
            if Path(given).is_dir():
                checkouts[side] = Path(given).resolve()
                continue
            checkouts[side] = Path(tmp) / "checkouts" / side
            try:
                commits[side] = export_revision(given, checkouts[side])
            except subprocess.CalledProcessError:
                parser.error(f"--{side} {given} is neither a directory nor a git revision")
        for side, path in checkouts.items():
            if not (path / "perfbench" / "run.py").is_file():
                parser.error(f"--{side} {path} holds no perfbench/run.py")
        lines = {side: src_lines(path) for side, path in checkouts.items()}
        table = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in table["workloads"]]
        better = {m["name"]: m["better"] for m in table["end_to_end"] + table["per_layer"]}
        bounds = {m["name"]: m["bound"] for m in table["end_to_end"]}
        # per-layer metrics that must be equal on both sides: every count and ratio
        # except the traced-over-untraced wall time
        exact = [m["name"] for m in table["per_layer"]
                 if m["unit"] != "s" and m["name"] != "trace.wall_ratio"]

        envs = {}
        for side, path in checkouts.items():
            envs[side] = {**os.environ, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache" / side)}
            envs[side].pop("PYTHONDONTWRITEBYTECODE", None)
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=path, env=envs[side], check=True)

        def one(side, workload, trace, label):
            run = run_bench(checkouts[side], envs[side], workload, trace)
            print(f"{label} {workload} {side}: {run['elapsed_s']:.0f} s, "
                  f"correct={run['result']['correct']}", file=sys.stderr, flush=True)
            return run

        runs = {w: [] for w in workloads}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = one(side, workload, 0, f"pair {i + 1}/{PAIRS}")
                runs[workload].append(pair)
        traced = {w: {side: one(side, w, 1, "traced") for side in SIDES} for w in workloads}

    report = {
        "slug": args.out.stem.removeprefix("BENCH_"),
        "protocol": {
            "pairs": PAIRS, "seed": SEED, "seconds_per_run": "perfbench's default",
            "order": "alternating: odd pairs run the parent first, even pairs the change",
            "bytecode": "cached, one fresh cache directory per side, compiled before run 1",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        },
        # an exported revision has no .git from which perfbench could read its commit
        "environment": {side: {**runs[workloads[0]][0][side]["environment"],
                               "src_lines": lines[side],
                               **({"git_commit": commits[side]} if side in commits else {})}
                        for side in SIDES},
        "workloads": {},
    }
    for workload in workloads:
        digests = {side: [json.loads(d) for d in sorted(
            {json.dumps(r["digests"], sort_keys=True)
             for r in [p[side] for p in runs[workload]] + [traced[workload][side]]})]
            for side in SIDES}
        layers = {side: {k: v["value"] for k, v in
                         traced[workload][side]["result"]["metrics"].items()} for side in SIDES}
        pairs = [{"first": p["first"],
                  **{side: {k: v["value"] for k, v in p[side]["result"]["metrics"].items()}
                     for side in SIDES}} for p in runs[workload]]
        ratios = offline_ratios(pairs)
        report["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarise(pairs, better, bounds),
            "ratios": {"pairs": ratios, "summary": summarise(
                ratios, {f"{name}/offline_s": "lower" for name in RATIOS})},
            "ops": {side: [{k: p[side]["result"][k] for k in ("correct", "attempted", "failed")}
                           for p in runs[workload]] for side in SIDES},
            "seconds": {side: [{k: p[side][k] for k in ("elapsed_s", "cpu_s")}
                               for p in runs[workload]] for side in SIDES},
            "digests": digests,
            "digests_equal": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
            "reference_digests": {side: traced[workload][side].get("reference_digests")
                                  for side in SIDES},
            "problems": {side: [q for p in runs[workload] for q in p[side]["problems"]]
                         + traced[workload][side]["problems"] for side in SIDES},
            "per_layer": layers,
            "per_layer_exact_differ": [k for k in exact
                                       if layers["parent"].get(k) != layers["change"].get(k)],
        }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
