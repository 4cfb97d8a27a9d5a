"""Benchmark stream construction: schedules, synthetic subconcepts, file ingestion.

A stream presents binary-labeled batches of "subconcepts" (original
classes). Stationary schedules introduce one subconcept per batch with
interleaved 0/1 labels; drifting schedules additionally flip the label of
previously seen subconcepts in two-batch episodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .memory import MAX_FEATURE_ABS, LabeledInstance

# The warm-up: the first fraction of these subconcepts' training rows,
# presented before batch 0 under their base labels.
WARMUP_SUBCONCEPTS = (0, 1)
WARMUP_FRACTION = 0.1

# Default drifting layout: episode start batch -> drifting subconcept.
DEFAULT_DRIFT_EPISODES = ((4, 0), (9, 2), (14, 4), (19, 6), (24, 8))
DEFAULT_DRIFT_BATCHES = 30
ENTRY_KINDS = ("intro", "drift", "revisit")


class ScheduleError(ValueError):
    pass


class FeatureFileError(ValueError):
    pass


class FeatureRangeError(ValueError):
    """Generated features beyond what the memory accepts."""


def base_label(subconcept_id: int) -> int:
    """Interleaved assignment: subconcept 0 is liked (1), 1 is disliked (0), ..."""
    return (subconcept_id + 1) % 2


class SubconceptDataset:
    """Per-subconcept train/test feature partitions."""

    def __init__(self, dim: int, parts: dict[int, tuple[np.ndarray, np.ndarray]]):
        if not parts:
            raise ValueError("dataset needs at least one subconcept")
        self.dim = dim
        self.parts = {}
        for sid, (train, test) in sorted(parts.items()):
            train = np.asarray(train, dtype=np.float64)
            test = np.asarray(test, dtype=np.float64)
            if train.size == 0 or test.size == 0:
                raise ValueError(f"subconcept {sid} must be non-empty in both partitions")
            if train.shape[1] != dim or test.shape[1] != dim:
                raise ValueError(f"subconcept {sid} has inconsistent dimensionality")
            self.parts[sid] = (train, test)

    @property
    def subconcept_ids(self):
        return sorted(self.parts)

    def train(self, sid: int) -> np.ndarray:
        return self.parts[sid][0]

    def test(self, sid: int) -> np.ndarray:
        return self.parts[sid][1]


@dataclass(frozen=True)
class ScheduleEntry:
    batch_index: int
    subconcept_id: int
    label: int
    kind: str  # one of ENTRY_KINDS
    slice_start: float = 0.0
    slice_end: float = 1.0


class StreamSchedule:
    """The batches of a stream and, per batch, the label of every subconcept
    seen so far (warm-up subconcepts included), in ascending id order."""

    def __init__(self, entries):
        self.entries = list(entries)
        current = {sid: base_label(sid) for sid in WARMUP_SUBCONCEPTS}
        self._label_maps: list[dict[int, int]] = []
        for t, e in enumerate(self.entries):
            if e.batch_index != t:
                raise ScheduleError(f"entry {t}: batch index {e.batch_index}, expected {t}")
            if (e.label != current.get(e.subconcept_id, base_label(e.subconcept_id))
                    and e.kind != "drift"):
                raise ScheduleError(f"batch {t}: label change outside a drift entry")
            current[e.subconcept_id] = e.label
            self._label_maps.append(dict(sorted(current.items())))

    def __len__(self):
        return len(self.entries)

    def entry(self, t: int) -> ScheduleEntry:
        return self.entries[self._index(t)]

    def current_label_map(self, t: int) -> dict[int, int]:
        return self._label_maps[self._index(t)]

    def _index(self, t: int) -> int:
        if not 0 <= t < len(self.entries):
            raise IndexError(f"no schedule entry for batch {t}")
        return t


def build_stationary_schedule(n_subconcepts: int) -> StreamSchedule:
    """One intro batch per subconcept with interleaved labels, no drift."""
    return build_drift_schedule(n_subconcepts, n_subconcepts, drift_episodes=())


def build_drift_schedule(n_subconcepts: int = 10, n_batches: int = DEFAULT_DRIFT_BATCHES,
                         drift_episodes=None) -> StreamSchedule:
    """Intros, two-batch drift episodes and round-robin revisits.

    Each episode permanently flips one previously introduced subconcept's
    label and re-presents its training data in two halves. Once every
    subconcept is introduced, filler batches revisit the non-drifting
    subconcepts with their current labels.
    """
    if n_subconcepts < 2:
        raise ScheduleError("need at least 2 subconcepts")
    if n_batches < 1:
        raise ScheduleError(f"need at least 1 batch, got {n_batches}")
    if drift_episodes is None:
        drift_episodes = [(s, c) for s, c in DEFAULT_DRIFT_EPISODES if c < n_subconcepts]
    episode_at = {}
    for start, sid in drift_episodes:
        if start in episode_at or (start + 1) in episode_at or (start - 1) in episode_at:
            raise ScheduleError("drift episodes overlap")
        episode_at[start] = sid
    drifting = {sid for _, sid in drift_episodes}
    cycle = [k for k in range(n_subconcepts) if k not in drifting] or list(range(n_subconcepts))

    entries = []
    labels: dict[int, int] = {}  # current label of each introduced subconcept
    cycle_pos = 0
    t = 0
    while t < n_batches:
        if t in episode_at:
            sid = episode_at[t]
            if sid not in labels:
                raise ScheduleError(f"batch {t}: drift references unseen subconcept {sid}")
            labels[sid] = 1 - labels[sid]
            entries.append(ScheduleEntry(t, sid, labels[sid], "drift", 0.0, 0.5))
            if t + 1 < n_batches:
                entries.append(ScheduleEntry(t + 1, sid, labels[sid], "drift", 0.5, 1.0))
            t += 2
        elif len(labels) < n_subconcepts:
            sid = len(labels)
            start = WARMUP_FRACTION if sid in WARMUP_SUBCONCEPTS else 0.0
            labels[sid] = base_label(sid)
            entries.append(ScheduleEntry(t, sid, labels[sid], "intro", start, 1.0))
            t += 1
        else:
            sid = cycle[cycle_pos % len(cycle)]
            cycle_pos += 1
            entries.append(ScheduleEntry(t, sid, labels[sid], "revisit", 0.0, 1.0))
            t += 1
    return StreamSchedule(entries)


@dataclass
class GaussianStreamSpec:
    n_subconcepts: int = 10
    dim: int = 16
    std: float = 1.0
    separation: float = 8.0  # minimum pairwise mean distance, in units of std
    train_per: int = 1000
    test_per: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_subconcepts < 2 or self.dim <= 0:
            raise ValueError("need >= 2 subconcepts and positive dim")
        if self.std <= 0 or self.separation <= 0:
            raise ValueError("std and separation must be positive")
        if self.train_per <= 0 or self.test_per <= 0:
            raise ValueError("train_per and test_per must be positive")


def generate_gaussian(spec: GaussianStreamSpec) -> SubconceptDataset:
    """Seeded isotropic Gaussian subconcepts with a guaranteed mean separation."""
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(size=(spec.n_subconcepts, spec.dim))
    dmin = min(
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(spec.n_subconcepts)
        for j in range(i + 1, spec.n_subconcepts)
    )
    means = means * (spec.separation * spec.std / dmin)
    parts = {}
    for sid in range(spec.n_subconcepts):
        train = rng.normal(means[sid], spec.std, size=(spec.train_per, spec.dim))
        test = rng.normal(means[sid], spec.std, size=(spec.test_per, spec.dim))
        if not np.all(np.abs(np.vstack((train, test))) <= MAX_FEATURE_ABS):
            raise FeatureRangeError(
                f"separation={spec.separation:g} and std={spec.std:g} give feature values "
                f"beyond {MAX_FEATURE_ABS:g}")
        parts[sid] = (train, test)
    return SubconceptDataset(spec.dim, parts)


def save_features(dataset: SubconceptDataset, path):
    """Headered delimited text: `dim=<d> subconcepts=<k>` then one row per instance."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={dataset.dim} subconcepts={len(dataset.parts)}\n")
        for sid in dataset.subconcept_ids:
            train, test = dataset.parts[sid]
            for split, block in (("train", train), ("test", test)):
                for row in block:
                    vals = ",".join(repr(float(v)) for v in row)
                    fh.write(f"{sid},{split},{vals}\n")


def input_lines(path, error: type[Exception]):
    """Each line of a UTF-8 input file that is not blank or a '#' comment,
    stripped, as ``(at, line)``, where ``at`` is ``<path>: line <N>:`` for
    errors to start with. An unreadable or non-UTF-8 file raises ``error``
    naming it, before any line is yielded."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno}: not UTF-8 text") from exc
    # the newlines of a text-mode file: \n, \r\n and \r
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield f"{path}: line {lineno}:", line


def load_features(path) -> SubconceptDataset:
    lines = input_lines(path, FeatureFileError)
    at, header = next(lines, (f"{path}: line 1:", ""))
    try:
        fields = dict(part.split("=") for part in header.split())
        dim = int(fields["dim"])
        n_sub = int(fields["subconcepts"])
        if dim <= 0 or n_sub <= 0:
            raise ValueError("dim and subconcepts must be positive")
    except (ValueError, KeyError) as exc:
        raise FeatureFileError(f"{at} malformed header {header!r}") from exc
    rows: dict[int, dict[str, list]] = {}
    for at, line in lines:
        pieces = line.split(",")
        if len(pieces) != dim + 2:
            raise FeatureFileError(f"{at} expected {dim + 2} fields, got {len(pieces)}")
        try:
            sid = int(pieces[0])
            split = pieces[1]
            vals = [float(v) for v in pieces[2:]]
        except ValueError as exc:
            raise FeatureFileError(f"{at} unparsable row") from exc
        if split not in ("train", "test"):
            raise FeatureFileError(f"{at} unknown split {split!r}")
        if sid < 0 or sid >= n_sub:
            raise FeatureFileError(f"{at} unknown subconcept {sid}")
        if not all(abs(v) <= MAX_FEATURE_ABS for v in vals):
            raise FeatureFileError(f"{at} non-finite feature value "
                                   f"or one beyond {MAX_FEATURE_ABS:g}")
        rows.setdefault(sid, {"train": [], "test": []})[split].append(vals)
    parts = {}
    for sid in range(n_sub):
        blocks = rows.get(sid)
        if blocks is None or not blocks["train"] or not blocks["test"]:
            raise FeatureFileError(f"{path}: subconcept {sid} lacks train or test rows")
        parts[sid] = (np.array(blocks["train"]), np.array(blocks["test"]))
    return SubconceptDataset(dim, parts)


def load_schedule(path, n_subconcepts: int) -> StreamSchedule:
    entries = []
    for at, line in input_lines(path, ScheduleError):
        pieces = line.split(",")
        if len(pieces) != 6:
            raise ScheduleError(f"{at} expected 6 fields")
        try:
            e = ScheduleEntry(int(pieces[0]), int(pieces[1]), int(pieces[2]),
                              pieces[3], float(pieces[4]), float(pieces[5]))
        except ValueError as exc:
            raise ScheduleError(f"{at} unparsable entry") from exc
        if e.batch_index != len(entries):
            raise ScheduleError(f"{at} batch index {e.batch_index}, expected {len(entries)}")
        if not 0 <= e.subconcept_id < n_subconcepts:
            raise ScheduleError(f"{at} unknown subconcept {e.subconcept_id}")
        if e.label not in (0, 1):
            raise ScheduleError(f"{at} label {e.label} is not 0 or 1")
        if e.kind not in ENTRY_KINDS:
            raise ScheduleError(f"{at} unknown kind {e.kind!r}")
        if not 0.0 <= e.slice_start < e.slice_end <= 1.0:
            raise ScheduleError(f"{at} slice {e.slice_start}..{e.slice_end} "
                                "breaks 0 <= start < end <= 1")
        entries.append(e)
    if not entries:
        raise ScheduleError(f"{path}: no schedule entries")
    try:
        return StreamSchedule(entries)
    except ScheduleError as exc:
        raise ScheduleError(f"{path}: {exc}") from None


def slice_rows(block: np.ndarray, start: float, end: float) -> np.ndarray:
    """The [start, end) fraction of a block's rows, as a view of the block."""
    n = len(block)
    return block[math.floor(start * n):math.floor(end * n)]


def warmup_instances(schedule: StreamSchedule, dataset: SubconceptDataset):
    """The initialization sample, the same for every schedule: the first
    fraction of the warm-up subconcepts' training rows."""
    out = []
    for sid in WARMUP_SUBCONCEPTS:
        block = slice_rows(dataset.train(sid), 0.0, WARMUP_FRACTION)
        out.extend(LabeledInstance(row.copy(), base_label(sid), sid) for row in block)
    return out


class EvalPool:
    """Holdout test data of every subconcept seen so far, under current labels."""

    def __init__(self, groups):
        self.groups = groups  # list of (sid, X_test, label)

    def __len__(self):
        return sum(len(X) for _, X, _ in self.groups)


def eval_pool(schedule: StreamSchedule, dataset: SubconceptDataset, t: int) -> EvalPool:
    return EvalPool([(sid, dataset.test(sid), label)
                     for sid, label in schedule.current_label_map(t).items()])


def presented_masks(schedule: StreamSchedule, dataset: SubconceptDataset,
                    t: int) -> dict[int, np.ndarray]:
    """Per subconcept seen up to batch t, a mask of its training rows
    presented by then: the warm-up slice and every entry's slice."""
    masks = {sid: np.zeros(len(dataset.train(sid)), dtype=bool)
             for sid in schedule.current_label_map(t)}
    # slice_rows returns a view, so these assignments mark rows in the masks
    for sid in WARMUP_SUBCONCEPTS:
        slice_rows(masks[sid], 0.0, WARMUP_FRACTION)[...] = True
    for e in schedule.entries[:t + 1]:
        slice_rows(masks[e.subconcept_id], e.slice_start, e.slice_end)[...] = True
    return masks


def presented_rows(schedule: StreamSchedule, dataset: SubconceptDataset, t: int):
    """(X, y): every training row presented up to batch t, each once, under
    its subconcept's current label, in ascending subconcept and row order."""
    masks = presented_masks(schedule, dataset, t)
    labels = schedule.current_label_map(t)
    X = np.concatenate([dataset.train(sid)[mask] for sid, mask in masks.items()])
    y = np.concatenate([np.full(np.count_nonzero(mask), labels[sid], dtype=np.int64)
                        for sid, mask in masks.items()])
    return X, y


def next_batch(schedule: StreamSchedule, dataset: SubconceptDataset, t: int,
               rng: np.random.Generator):
    """The training instances of batch t, shuffled."""
    e = schedule.entry(t)
    block = slice_rows(dataset.train(e.subconcept_id), e.slice_start, e.slice_end)
    order = rng.permutation(len(block))
    return [LabeledInstance(block[i].copy(), e.label, e.subconcept_id) for i in order]
