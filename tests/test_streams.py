"""Unit tests for schedules, synthetic data and stream emission."""
import math
import re

import numpy as np
import pytest

from driftreplay.memory import MAX_FEATURE_ABS
from driftreplay.streams import (
    DEFAULT_DRIFT_EPISODES,
    WARMUP_SUBCONCEPTS,
    FeatureFileError,
    FeatureRangeError,
    GaussianStreamSpec,
    ScheduleEntry,
    ScheduleError,
    StreamSchedule,
    SubconceptDataset,
    base_label,
    build_drift_schedule,
    build_stationary_schedule,
    eval_pool,
    generate_gaussian,
    load_features,
    load_schedule,
    next_batch,
    save_features,
    warmup_instances,
)


def tiny_dataset(n_sub=4, dim=3, train_per=40, test_per=10, seed=0):
    return generate_gaussian(GaussianStreamSpec(
        n_subconcepts=n_sub, dim=dim, train_per=train_per,
        test_per=test_per, seed=seed))


# ----------------------------------------------------------------- schedules

def test_base_labels_interleave():
    assert [base_label(k) for k in range(6)] == [1, 0, 1, 0, 1, 0]


def test_stationary_schedule_shape():
    sched = build_stationary_schedule(10)
    assert len(sched) == 10
    assert [e.label for e in sched.entries] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert all(e.kind == "intro" for e in sched.entries)
    # warmup classes emit only their remaining 90%
    assert sched.entries[0].slice_start == pytest.approx(0.1)
    assert sched.entries[2].slice_start == 0.0


def test_stationary_two_subconcepts():
    sched = build_stationary_schedule(2)
    assert len(sched) == 2
    assert not any(e.kind == "drift" for e in sched.entries)


def test_drift_schedule_episode_positions():
    sched = build_drift_schedule()
    drift_batches = sorted(e.batch_index for e in sched.entries if e.kind == "drift")
    assert drift_batches == [4, 5, 9, 10, 14, 15, 19, 20, 24, 25]
    assert len(sched) == 30
    by_batch = {e.batch_index: e for e in sched.entries}
    for start, sid in DEFAULT_DRIFT_EPISODES:
        assert by_batch[start].subconcept_id == sid
        assert by_batch[start].slice_start == 0.0 and by_batch[start].slice_end == 0.5
        assert by_batch[start + 1].subconcept_id == sid
        assert by_batch[start + 1].slice_start == 0.5 and by_batch[start + 1].slice_end == 1.0


def test_drift_flips_subconcept_zero_at_batch_four():
    sched = build_drift_schedule()
    for t in range(4):
        assert sched.current_label_map(t)[0] == 1
    for t in range(4, 30):
        assert sched.current_label_map(t)[0] == 0
    # non-drifting neighbour keeps its base label throughout
    assert all(sched.current_label_map(t)[1] == 0 for t in range(30))


def flip_counting_label_map(schedule, t):
    """The flip-counting timeline the per-batch label maps replaced, kept as
    their reference: a subconcept's label is its base label flipped once per
    label change at or before batch t, over every subconcept seen by then."""
    flips, current = {}, {}
    for e in schedule.entries:
        if e.label != current.get(e.subconcept_id, base_label(e.subconcept_id)):
            flips.setdefault(e.subconcept_id, []).append(e.batch_index)
        current[e.subconcept_id] = e.label
    seen = set(WARMUP_SUBCONCEPTS)
    seen.update(e.subconcept_id for e in schedule.entries if e.batch_index <= t)
    return {sid: (base_label(sid) + sum(fb <= t for fb in flips.get(sid, []))) % 2
            for sid in sorted(seen)}


def test_label_maps_match_the_flip_counting_timeline():
    for n in range(2, 25):
        for n_batches in (1, 2, 3, 5, 8, 13, 21, 30, 39, 60):
            for episodes in (None, ()):
                sched = build_drift_schedule(n, n_batches, drift_episodes=episodes)
                assert len(sched) == n_batches
                for t in range(n_batches):
                    assert sched.entry(t) is sched.entries[t]
                    want = flip_counting_label_map(sched, t)
                    assert list(sched.current_label_map(t).items()) == list(want.items())


def test_twice_flipped_subconcept_is_revisited_under_its_current_label():
    sched = build_drift_schedule(2, 12, drift_episodes=((2, 0), (5, 1), (8, 0)))
    assert [sched.current_label_map(t)[0] for t in (1, 2, 8)] == [1, 0, 1]
    assert sched.entry(10) == ScheduleEntry(10, 0, 1, "revisit")
    for t in range(12):
        assert list(sched.current_label_map(t).items()) == list(
            flip_counting_label_map(sched, t).items())


def test_schedule_rejects_a_gap_in_batch_indices():
    entries = [ScheduleEntry(0, 0, 1, "intro"), ScheduleEntry(2, 1, 0, "intro")]
    with pytest.raises(ScheduleError, match="batch index 2, expected 1"):
        StreamSchedule(entries)


def test_lookups_outside_the_schedule_raise_index_error():
    sched = build_drift_schedule(4, 6)
    with pytest.raises(IndexError):
        sched.entry(-1)
    with pytest.raises(IndexError):
        sched.entry(len(sched))
    with pytest.raises(IndexError):
        sched.current_label_map(-1)
    with pytest.raises(IndexError):
        sched.current_label_map(len(sched))


def test_drift_schedule_without_episodes_is_stationary_plus_revisits():
    sched = build_drift_schedule(10, 30, drift_episodes=[])
    assert len(sched) == 30
    assert not any(e.kind == "drift" for e in sched.entries)
    assert [e.kind for e in sched.entries[:10]] == ["intro"] * 10
    assert all(e.kind == "revisit" for e in sched.entries[10:])
    for e in sched.entries:
        assert e.label == base_label(e.subconcept_id)


def test_schedule_rejects_label_change_outside_drift():
    entries = [
        ScheduleEntry(0, 0, 1, "intro"),
        ScheduleEntry(1, 0, 0, "revisit"),  # silent flip
    ]
    with pytest.raises(ScheduleError):
        StreamSchedule(entries)


@pytest.mark.parametrize("n_batches", [0, -1])
def test_drift_schedule_without_batches_rejected(n_batches):
    with pytest.raises(ScheduleError, match="at least 1 batch"):
        build_drift_schedule(10, n_batches)


def test_overlapping_drift_episodes_rejected():
    with pytest.raises(ScheduleError):
        build_drift_schedule(10, 30, drift_episodes=[(4, 0), (5, 2)])


# ------------------------------------------------------------ gaussian data

def test_gaussian_generation_is_deterministic():
    a = tiny_dataset(seed=5)
    b = tiny_dataset(seed=5)
    for sid in a.subconcept_ids:
        assert np.array_equal(a.train(sid), b.train(sid))
        assert np.array_equal(a.test(sid), b.test(sid))


def test_gaussian_sample_means_are_close_to_spec_means():
    """Both partitions of a subconcept are drawn around one spec mean, so
    their sample means agree within five standard errors of the difference."""
    spec = GaussianStreamSpec(n_subconcepts=3, dim=4, std=2.0, train_per=10_000,
                              test_per=2_000, seed=9)
    data = generate_gaussian(spec)
    tol = 5.0 * spec.std * math.sqrt(1 / spec.train_per + 1 / spec.test_per)
    for sid in data.subconcept_ids:
        gap = data.train(sid).mean(axis=0) - data.test(sid).mean(axis=0)
        assert np.all(np.abs(gap) < tol)


def test_gaussian_minimum_separation_is_enforced():
    spec = GaussianStreamSpec(n_subconcepts=6, dim=5, separation=8.0,
                              train_per=5, test_per=5, seed=1)
    data = generate_gaussian(spec)
    means = [data.train(sid).mean(axis=0) for sid in data.subconcept_ids]
    # loose check on sample means: true means are >= 8 std apart
    dmin = min(np.linalg.norm(means[i] - means[j])
               for i in range(6) for j in range(i + 1, 6))
    assert dmin > 5.0


def test_six_sigma_clusters_are_nearest_mean_separable():
    # with two subconcepts the minimum separation is their one distance: 6 std
    spec = GaussianStreamSpec(n_subconcepts=2, dim=2, separation=6.0, train_per=5000,
                              test_per=5000, seed=2)
    data = generate_gaussian(spec)
    means = [data.train(sid).mean(axis=0) for sid in (0, 1)]
    correct = 0
    for sid in (0, 1):
        X = data.test(sid)
        d = np.stack([np.linalg.norm(X - m, axis=1) for m in means])
        correct += int((d.argmin(axis=0) == sid).sum())
    assert correct / 10_000 >= 0.99


@pytest.mark.parametrize("separation, std", [(1e101, 1.0), (1e95, 1e6), (1e300, 1e300)])
def test_gaussian_features_beyond_the_memory_bound_are_refused(separation, std):
    spec = GaussianStreamSpec(n_subconcepts=3, dim=4, separation=separation, std=std,
                              train_per=5, test_per=5, seed=1)
    bound = re.escape(f"beyond {MAX_FEATURE_ABS:g}")
    with pytest.raises(FeatureRangeError, match=f"separation=.* std=.* {bound}"):
        generate_gaussian(spec)


def test_dataset_validation():
    with pytest.raises(ValueError):
        SubconceptDataset(2, {})
    with pytest.raises(ValueError):
        SubconceptDataset(2, {0: (np.zeros((0, 2)), np.zeros((3, 2)))})
    with pytest.raises(ValueError):
        SubconceptDataset(2, {0: (np.zeros((3, 5)), np.zeros((3, 2)))})


# -------------------------------------------------------------- feature file

def test_feature_file_round_trip(tmp_path):
    data = tiny_dataset()
    path = tmp_path / "features.txt"
    save_features(data, path)
    back = load_features(path)
    assert back.dim == data.dim
    for sid in data.subconcept_ids:
        assert np.allclose(back.train(sid), data.train(sid))
        assert np.allclose(back.test(sid), data.test(sid))


def test_feature_file_arity_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim=2 subconcepts=1\n"
                    "0,train,1.0,2.0\n"
                    "0,test,1.0\n")
    with pytest.raises(FeatureFileError, match="line 3"):
        load_features(path)


def test_feature_file_golden_three_rows(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("dim=2 subconcepts=1\n"
                    "0,train,1.5,-2.0\n"
                    "0,train,0.25,3.0\n"
                    "0,test,-1.0,0.5\n")
    data = load_features(path)
    assert np.array_equal(data.train(0), [[1.5, -2.0], [0.25, 3.0]])
    assert np.array_equal(data.test(0), [[-1.0, 0.5]])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_feature_file_skips_blank_and_comment_lines(tmp_path, newline):
    path = tmp_path / "commented.txt"
    text = "# made by hand\ndim=2 subconcepts=1\n\n0,train,1.5,-2.0\n  # the holdout\n0,test,-1.0,0.5\n"
    path.write_bytes(text.replace("\n", newline).encode())
    data = load_features(path)
    assert np.array_equal(data.train(0), [[1.5, -2.0]])
    assert np.array_equal(data.test(0), [[-1.0, 0.5]])


def test_feature_file_header_and_split_errors(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("dims=2\n")
    with pytest.raises(FeatureFileError, match="line 1"):
        load_features(bad_header)
    bad_split = tmp_path / "s.txt"
    bad_split.write_text("dim=1 subconcepts=1\n0,dev,1.0\n")
    with pytest.raises(FeatureFileError, match="line 2"):
        load_features(bad_split)


def test_schedule_file_round_trip(tmp_path):
    sched = build_drift_schedule()
    path = tmp_path / "schedule.txt"
    path.write_text("".join(f"{e.batch_index},{e.subconcept_id},{e.label},{e.kind},"
                            f"{e.slice_start},{e.slice_end}\n" for e in sched.entries))
    back = load_schedule(path, 10)
    assert back.entries == sched.entries
    assert len(back) == len(sched)


def test_schedule_file_arity_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0,0,1,intro\n")
    with pytest.raises(ScheduleError, match="line 1"):
        load_schedule(path, 2)



@pytest.mark.parametrize("text, problem", [
    ("dim=2 subconcepts=1\n0,train,1.0,2.0\n0,test,nan,0.5\n", "line 3: non-finite"),
    ("dim=2 subconcepts=1\n0,train,inf,2.0\n0,test,1.0,0.5\n", "line 2: non-finite"),
    ("dim=2 subconcepts=1\n0,train,1.0,2.0\n0,test,0.5,1e200\n", "line 3: non-finite"),
    ("dim=1 subconcepts=2\n0,train,1.0\n0,test,1.0\n", "subconcept 1 lacks"),
    ("dim=0 subconcepts=1\n", "line 1: malformed header"),
    ("", "line 1: malformed header ''$"),
])
def test_feature_file_rejects_bad_values_and_missing_subconcepts(tmp_path, text, problem):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FeatureFileError, match=problem) as exc:
        load_features(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("second_line, problem", [
    ("1,1,0,outro,0.0,1.0", "line 2: unknown kind 'outro'"),
    ("1,1,0,intro,0.6,0.4", "line 2: slice 0.6..0.4"),
    ("1,1,0,intro,0.0,1.5", "line 2: slice 0.0..1.5"),
    ("1,1,0,intro,-0.1,1.0", "line 2: slice -0.1..1.0"),
    ("2,1,0,intro,0.0,1.0", "line 2: batch index 2, expected 1"),
    ("0,1,0,intro,0.0,1.0", "line 2: batch index 0, expected 1"),
    ("1,2,1,intro,0.0,1.0", "line 2: unknown subconcept 2"),
    ("1,-1,1,intro,0.0,1.0", "line 2: unknown subconcept -1"),
    ("1,1,2,drift,0.0,1.0", "line 2: label 2 is not 0 or 1"),
    ("1,1,1,intro,0.0,1.0", "label change outside a drift entry"),
])
def test_schedule_file_rejects_bad_entries(tmp_path, second_line, problem):
    path = tmp_path / "sched.txt"
    path.write_text(f"0,0,1,intro,0.1,1.0\n{second_line}\n")
    with pytest.raises(ScheduleError, match=problem) as exc:
        load_schedule(path, 2)
    assert str(path) in str(exc.value)


def test_schedule_file_needs_an_entry(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# nothing scheduled\n")
    with pytest.raises(ScheduleError, match="no schedule entries"):
        load_schedule(path, 2)

# ---------------------------------------------------------------- emission

def test_warmup_sizes():
    data = tiny_dataset(train_per=40)
    sched = build_stationary_schedule(4)
    warm = warmup_instances(sched, data)
    assert len(warm) == 2 * math.floor(0.1 * 40)
    assert {i.subconcept_id for i in warm} == {0, 1}
    assert all(i.label == base_label(i.subconcept_id) for i in warm)


def test_next_batch_is_shuffled_but_reproducible():
    data = tiny_dataset()
    sched = build_stationary_schedule(4)
    a = next_batch(sched, data, 2, np.random.default_rng(9))
    b = next_batch(sched, data, 2, np.random.default_rng(9))
    c = next_batch(sched, data, 2, np.random.default_rng(10))
    assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))
    assert not all(np.array_equal(x.features, y.features) for x, y in zip(a, c))
    assert all(i.label == base_label(2) for i in a)
    with pytest.raises(IndexError):
        next_batch(sched, data, 99, np.random.default_rng(0))


def test_stationary_emission_covers_every_training_row():
    data = tiny_dataset(train_per=40)
    sched = build_stationary_schedule(4)
    seen = {sid: [] for sid in data.subconcept_ids}
    for i in warmup_instances(sched, data):
        seen[i.subconcept_id].append(i.features)
    rng = np.random.default_rng(0)
    for t in range(len(sched)):
        for i in next_batch(sched, data, t, rng):
            seen[i.subconcept_id].append(i.features)
    for sid in data.subconcept_ids:
        got = np.array(sorted(map(tuple, seen[sid])))
        want = np.array(sorted(map(tuple, data.train(sid))))
        assert np.allclose(got, want)


def test_drift_batches_emit_halves():
    data = tiny_dataset(n_sub=10, train_per=40)
    sched = build_drift_schedule()
    rng = np.random.default_rng(0)
    first = next_batch(sched, data, 4, rng)
    second = next_batch(sched, data, 5, rng)
    assert len(first) == 20 and len(second) == 20
    assert all(i.label == 0 and i.subconcept_id == 0 for i in first + second)
    both = sorted(map(tuple, [i.features for i in first + second]))
    assert np.allclose(np.array(both), np.array(sorted(map(tuple, data.train(0)))))


def test_eval_pool_contents_and_labels():
    data = tiny_dataset(n_sub=10, train_per=40)
    stat = build_stationary_schedule(10)
    pool0 = eval_pool(stat, data, 0)
    assert sorted(sid for sid, _, _ in pool0.groups) == [0, 1]  # warmup classes count
    drift = build_drift_schedule()
    pool4 = eval_pool(drift, data, 4)
    labels = {sid: label for sid, _, label in pool4.groups}
    assert labels[0] == 0  # flipped during the episode
    assert labels[1] == 0 and labels[2] == 1  # base labels elsewhere


def test_eval_pool_grows_monotonically():
    data = tiny_dataset(n_sub=10, train_per=40)
    sched = build_drift_schedule()
    sizes = [len(eval_pool(sched, data, t)) for t in range(len(sched))]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 10 * 10  # every subconcept's full test partition
