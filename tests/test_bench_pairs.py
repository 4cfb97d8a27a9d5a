"""Unit tests for tools/bench_pairs.py: its claim verdict and its checkouts."""
import importlib.util
import json
import os
import subprocess
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


WIDE = [2.0, 4.0, 3.0, 2.4, 3.6, 2.0, 4.0, 3.0, 2.4, 3.6]  # IQR 1.2, 40% of the median 3.0


@pytest.mark.parametrize("parent, change, unresolved", [
    (PARENT, [v * 1.1 for v in PARENT], False),  # both spreads inside the 25% bound
    (WIDE, [v * 0.9 for v in WIDE], True),  # the parent's spread is wider than the bound
    (PARENT, [v * 0.9 for v in WIDE], True),  # so is the change's, and it decides
    (WIDE, [v / 2.5 for v in WIDE], False),  # every change run beats every parent run
])
def test_a_spread_wider_than_the_bound_is_unresolved(parent, change, unresolved):
    s = bench_pairs.summarise(pairs_of(parent, change), {"wall_s": "lower"},
                              {"wall_s": 0.25})["wall_s"]
    assert s["unresolved"] is unresolved
    assert "unresolved" not in bench_pairs.summarise(
        pairs_of(parent, change), {"wall_s": "lower"})["wall_s"]  # no bound, no verdict


# a perfbench stand-in: one metric whose value the committed tree sets
FAKE_RUN = '''import json
print("environment: " + json.dumps({"git_commit": "unknown"}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": WALL, "unit": "s"}}}))
'''
FAKE_TABLE = {"workloads": [{"name": "w"}], "per_layer": [],
              "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def commit_fake_checkout(repo, wall):
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "src").mkdir(exist_ok=True)
    (repo / "src" / "empty.py").write_text("")
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN.replace("WALL", str(wall)))
    (repo / "BENCHMARK.json").write_text(json.dumps(FAKE_TABLE))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", f"wall {wall}"], check=True)
    return subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()


def test_git_revisions_are_exported_and_their_commits_recorded(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    first = commit_fake_checkout(repo, 2.0)
    second = commit_fake_checkout(repo, 1.0)
    monkeypatch.chdir(repo)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", first[:8], "--change", "HEAD", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["environment"]["parent"]["git_commit"] == first
    assert report["environment"]["change"]["git_commit"] == second
    summary = report["workloads"]["w"]["summary"]["wall_s"]
    assert summary["parent"]["median"] == 2.0 and summary["change"]["median"] == 1.0
    assert [sorted(run) for run in report["workloads"]["w"]["seconds"]["change"]] == [
        ["cpu_s", "elapsed_s"]] * 2
    # a directory side keeps what perfbench reads itself
    bench_pairs.main(["--parent", first, "--change", str(repo), "--out", str(out)])
    assert json.loads(out.read_text())["environment"]["change"]["git_commit"] == "unknown"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "no-such-rev", "--change", "HEAD", "--out", str(out)])
    assert exc.value.code == 2


def test_each_run_records_its_wall_and_cpu_seconds(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN.replace("WALL", "1.0"))
    run = bench_pairs.run_bench(tmp_path, dict(os.environ), "w", 0)
    assert run["result"]["correct"] is True
    assert run["elapsed_s"] > 0 and run["cpu_s"] > 0
