"""driftreplay benchmark: time each method of one drift experiment seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drift-default --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-test

Each run builds the inputs of one seed, repeats the whole experiment pass
(offline reference, every method, reports) for about ``--seconds`` and
prints, as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
See perfbench/README.md for the workloads and what each metric means.
"""
import os

# BLAS threads are pinned before numpy loads: on 2 cores the default
# thread pool burns CPU without shortening wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Untraced runs split their time over WORKERS fresh processes, one after
# the other: fresh processes timing the same seed differ in speed by up to
# 20%, so one process would set the whole run's speed. SETUP_PER_WORKER
# set-up probes follow each worker.
WORKERS = 5
SETUP_PER_WORKER = 2
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 120


def _import_program():
    """Make the checkout's own driftreplay importable, or explain why not."""
    if not (SRC / "driftreplay" / "__init__.py").is_file():
        raise SystemExit(f"error: no driftreplay sources under {SRC}; "
                         "run from the root of a driftreplay checkout")
    sys.path.insert(0, str(SRC))
    import driftreplay
    if Path(driftreplay.__file__).resolve().parent != SRC / "driftreplay":
        raise SystemExit(f"error: imported driftreplay from {driftreplay.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(loadavg_1m: float) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "loadavg_1m_at_start": loadavg_1m,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def _probe_main(workload: str, seed: int):
    import harness
    harness.setup(harness.lookup(workload), seed)
    print("ready", flush=True)


def _worker_main(workload: str, seed: int, seconds: float, out: Path):
    import resource
    import harness
    passes = harness.timed_passes(harness.lookup(workload), seed, seconds, out.parent)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.write_text(json.dumps({"passes": [p.to_json() for p in passes],
                               "peak_rss_mb": peak_rss_mb}))


def measure(workload: str, seed: int, seconds: float, out_dir: Path):
    """End-to-end result of untraced passes in WORKERS processes run in turn.

    Each process gets an equal share of the time left. ``peak_rss_mb`` is
    the largest peak resident set size of the processes.
    """
    import harness
    t_start = perf_counter()
    passes, peaks, setup_samples = [], [], []
    for i in range(WORKERS):
        share = max(seconds - (perf_counter() - t_start), 0.0) / (WORKERS - i)
        out = out_dir / f"worker{i}" / "passes.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.unlink(missing_ok=True)
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(share), "--worker-out", str(out)],
                       cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        data = json.loads(out.read_text())
        passes += [harness.PassResult(**p) for p in data["passes"]]
        peaks.append(data["peak_rss_mb"])
        setup_samples += [probe_setup(workload, seed) for _ in range(SETUP_PER_WORKER)]
    return harness.summarise(harness.lookup(workload), passes, setup_samples, max(peaks))


def main(argv=None) -> int:
    loadavg = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself on tiny configs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.probe_setup:
        _probe_main(args.workload, args.seed)
        return 0
    if args.worker:
        _worker_main(args.workload, args.seed, args.seconds, args.worker_out)
        return 0
    if args.self_test:
        import selftest
        return selftest.main(measure)

    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = harness.WORKLOADS[args.workload]
    env = environment(loadavg)
    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, details = harness.measure_traced(workload, args.seed, args.seconds, out_dir)
    else:
        result, details = measure(workload.name, args.seed, args.seconds, out_dir)
    reference = harness.reference_status(workload.name, args.seed, details["digests"])
    log = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "reference_digests": reference, **details, "result": result}
    (out_dir / "run.json").write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, digest in sorted(details["digests"].items()):
        print(f"sha256 {name}: {digest}")
    print(f"reference digests: {reference}")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for cell, reason in sorted(details["failures"].items()):
        print(f"failed cell {cell}: {reason}")
    untraced = details["passes"]["untraced"]
    with_offline = sum("offline" in p["segments"] for p in untraced)
    print(f"passes: {len(untraced)} untraced ({with_offline} ran the offline reference), "
          f"{len(details['passes']['traced'])} traced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
