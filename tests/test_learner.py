"""Unit tests for the MLP classifier and its training loops."""
import numpy as np
import pytest

from driftreplay.learner import (
    ClassifierSpec,
    MlpClassifier,
    TrainingDivergedError,
    fit_batch,
    fit_offline,
    gradient_check,
    load_checkpoint,
    nearest_centroid_predict,
    save_checkpoint,
)
from driftreplay.memory import LabeledInstance, RsbConfig, RsbMemory


def inst(x, y):
    return LabeledInstance(np.atleast_1d(np.asarray(x, dtype=np.float64)), y)


def separable_batch(rng, n=200, d=8, gap=3.0):
    X0 = rng.normal(-gap, 1.0, size=(n // 2, d))
    X1 = rng.normal(gap, 1.0, size=(n // 2, d))
    return ([inst(r, 0) for r in X0] + [inst(r, 1) for r in X1],
            np.vstack([X0, X1]),
            np.array([0] * (n // 2) + [1] * (n // 2)))


SMALL = dict(hidden_sizes=(16, 8), epochs_per_batch=10)


# ------------------------------------------------------------------ forward

def test_probabilities_normalize():
    rng = np.random.default_rng(0)
    m = MlpClassifier(ClassifierSpec(input_dim=5, **SMALL), rng)
    p = m.predict_proba(rng.normal(size=(100, 5)))
    assert p.shape == (100, 2)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_zero_weights_give_even_odds():
    m = MlpClassifier(ClassifierSpec(input_dim=4, **SMALL), np.random.default_rng(0))
    m.W = [np.zeros_like(w) for w in m.W]
    label, (p0, p1) = m.predict(np.ones(4))
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)


def test_predict_rejects_wrong_dimension():
    m = MlpClassifier(ClassifierSpec(input_dim=4, **SMALL), np.random.default_rng(0))
    with pytest.raises(ValueError):
        m.predict_proba(np.zeros((3, 5)))


# ----------------------------------------------------------------- gradients

def test_gradients_match_finite_differences():
    worst = 0.0
    for s in range(10):
        rng = np.random.default_rng(100 + s)
        d = int(rng.integers(2, 6))
        hidden = tuple(int(v) for v in rng.integers(2, 6, size=2))
        m = MlpClassifier(ClassifierSpec(input_dim=d, hidden_sizes=hidden), rng)
        # nonzero biases keep every ReLU preactivation away from the kink
        m.b = [rng.normal(0.0, 0.1, size=b.shape) for b in m.b]
        X = rng.normal(size=(6, d))
        y = rng.integers(2, size=6)
        worst = max(worst, gradient_check(m, X, y))
    assert worst < 1e-4


def test_duplicate_instance_doubles_its_gradient_share():
    rng = np.random.default_rng(1)
    m = MlpClassifier(ClassifierSpec(input_dim=3, hidden_sizes=(4,)), rng)
    m.b = [rng.normal(0.0, 0.1, size=b.shape) for b in m.b]
    a = rng.normal(size=(1, 3))
    b = rng.normal(size=(1, 3))
    _, ga = m.loss_and_grads(a, np.array([0]))
    _, gb = m.loss_and_grads(b, np.array([1]))
    _, gall = m.loss_and_grads(np.vstack([a, b, b]), np.array([0, 1, 1]))
    for combined, one, two in zip(gall, ga, gb):
        assert np.allclose(combined, (one + 2.0 * two) / 3.0)


def test_zero_learning_rate_leaves_weights_unchanged():
    rng = np.random.default_rng(2)
    m = MlpClassifier(ClassifierSpec(input_dim=4, hidden_sizes=(8,), learning_rate=0.0), rng)
    before = [w.copy() for w in m.W] + [b.copy() for b in m.b]
    m.train_minibatch(rng.normal(size=(16, 4)), rng.integers(2, size=16))
    after = m.W + m.b
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_non_finite_loss_raises():
    m = MlpClassifier(ClassifierSpec(input_dim=2, hidden_sizes=(3,)), np.random.default_rng(0))
    m.W[0][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        m.train_minibatch(np.ones((2, 2)), np.array([0, 1]))


# ------------------------------------------------------------------ training

def test_training_separates_two_clusters():
    rng = np.random.default_rng(3)
    batch, X, y = separable_batch(rng)
    m = MlpClassifier(ClassifierSpec(input_dim=8, **SMALL), rng)
    fit_batch(m, batch, rng=rng)
    assert (m.predict_labels(X) == y).mean() >= 0.95


def test_epoch_losses_mostly_non_increasing():
    ok = 0
    for s in range(20):
        rng = np.random.default_rng(s)
        batch, _, _ = separable_batch(rng)
        m = MlpClassifier(ClassifierSpec(input_dim=8, **SMALL), rng)
        rec = fit_batch(m, batch, rng=rng)
        if np.all(np.diff(rec.epoch_losses) <= 1e-9):
            ok += 1
    assert ok >= 18


def test_empty_replay_source_matches_replay_disabled():
    # replay enabled but nothing to sample: identical trajectory step for step
    rng = np.random.default_rng(4)
    batch, _, _ = separable_batch(rng, n=64)
    spec = ClassifierSpec(input_dim=8, hidden_sizes=(8,), epochs_per_batch=3)
    m1 = MlpClassifier(spec, np.random.default_rng(9))
    m2 = MlpClassifier(spec, np.random.default_rng(9))
    fit_batch(m1, list(batch), memory=None, replay_enabled=False,
              rng=np.random.default_rng(5))
    fit_batch(m2, list(batch), memory=None, replay_enabled=True,
              rng=np.random.default_rng(5))
    assert all(np.array_equal(a, b) for a, b in zip(m1.W, m2.W))
    assert all(np.array_equal(a, b) for a, b in zip(m1.b, m2.b))


def test_replay_disabled_ignores_memory_contents():
    rng = np.random.default_rng(6)
    batch, _, _ = separable_batch(rng, n=64)
    spec = ClassifierSpec(input_dim=8, hidden_sizes=(8,), epochs_per_batch=3)
    m1 = MlpClassifier(spec, np.random.default_rng(9))
    m2 = MlpClassifier(spec, np.random.default_rng(9))
    mem = RsbMemory(RsbConfig(c_min=2, n_s=10**6), np.random.default_rng(0))
    fit_batch(m1, [inst(i.features.copy(), i.label) for i in batch],
              memory=None, replay_enabled=False, rng=np.random.default_rng(7))
    fit_batch(m2, [inst(i.features.copy(), i.label) for i in batch],
              memory=mem, replay_enabled=False, rng=np.random.default_rng(7))
    assert all(np.array_equal(a, b) for a, b in zip(m1.W, m2.W))
    assert sum(1 for _ in mem.all_centroids()) > 0  # memory still absorbed the batch


def test_fit_batch_counts_replay_consumption():
    rng = np.random.default_rng(8)
    batch, _, _ = separable_batch(rng, n=64)
    mem = RsbMemory(RsbConfig(c_min=2, n_s=10**6), np.random.default_rng(0))
    m = MlpClassifier(ClassifierSpec(input_dim=8, hidden_sizes=(8,), epochs_per_batch=2),
                      np.random.default_rng(0))
    rec = fit_batch(m, batch, memory=mem, replay_enabled=True, rng=rng)
    assert rec.instances_consumed == 64
    assert rec.replay_consumed > 0


def test_fit_batch_rejects_empty_batch():
    m = MlpClassifier(ClassifierSpec(input_dim=2, hidden_sizes=(3,)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        fit_batch(m, [])


# ------------------------------------------------------------------- offline

def test_fit_offline_learns_and_is_deterministic():
    rng = np.random.default_rng(10)
    batch, X, y = separable_batch(rng)
    spec = ClassifierSpec(input_dim=8, **SMALL)
    m1 = fit_offline(spec, batch, np.random.default_rng(3))
    m2 = fit_offline(spec, batch, np.random.default_rng(3))
    assert (m1.predict_labels(X) == y).mean() >= 0.95
    assert all(np.array_equal(a, b) for a, b in zip(m1.W, m2.W))
    with pytest.raises(ValueError):
        fit_offline(spec, [])


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = MlpClassifier(ClassifierSpec(input_dim=6, hidden_sizes=(5, 4)), rng)
    path = tmp_path / "model.bin"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == [6, 5, 4, 2]
    assert all(np.array_equal(a, b) for a, b in zip(m.W, loaded.W))
    assert all(np.array_equal(a, b) for a, b in zip(m.b, loaded.b))
    X = rng.normal(size=(10, 6))
    assert np.array_equal(m.predict_labels(X), loaded.predict_labels(X))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)


# --------------------------------------------------------- nearest centroid

def test_nearest_centroid_predict():
    mem = RsbMemory(RsbConfig(c_min=1, n_s=10**6), np.random.default_rng(0))
    mem.ingest(inst([0.0], 0))
    mem.ingest(inst([10.0], 1))
    assert nearest_centroid_predict(mem, [2.0]) == 0
    assert nearest_centroid_predict(mem, [9.0]) == 1


# ------------------------------------------------- flat layout and optimizer

def _reference_loss_and_grads(W, b, X, y):
    """Per-array loss and gradients, as written before the flat layout."""
    acts = [X]
    for i, (Wi, bi) in enumerate(zip(W, b)):
        z = acts[-1] @ Wi + bi
        acts.append(np.maximum(z, 0.0) if i < len(W) - 1 else z)
    z = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = X.shape[0]
    loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    gW, gb = [None] * len(W), [None] * len(b)
    for i in range(len(W) - 1, -1, -1):
        gW[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W[i].T) * (acts[i] > 0)
    return loss, gW + gb


def _reference_adam_step(params, grads, m, v, t, s):
    """Per-array Adam with its temporaries, as written before the flat layout."""
    for k, (p, g) in enumerate(zip(params, grads)):
        m[k] = s.beta1 * m[k] + (1 - s.beta1) * g
        v[k] = s.beta2 * v[k] + (1 - s.beta2) * g * g
        m_hat = m[k] / (1 - s.beta1 ** t)
        v_hat = v[k] / (1 - s.beta2 ** t)
        p -= s.learning_rate * m_hat / (np.sqrt(v_hat) + s.eps)


@pytest.mark.parametrize("input_dim,hidden", [(5, (7, 3)), (16, (128, 64, 32)), (3, (9,))])
def test_flat_optimizer_is_bit_identical_to_per_array_reference(input_dim, hidden):
    spec = ClassifierSpec(input_dim=input_dim, hidden_sizes=hidden, learning_rate=1e-2)
    m = MlpClassifier(spec, np.random.default_rng(input_dim))
    init = np.random.default_rng(input_dim)
    dims = [input_dim, *hidden, 2]
    W = [init.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
         for i in range(len(dims) - 1)]
    b = [np.zeros(d) for d in dims[1:]]
    params = W + b
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    assert all(np.array_equal(p, q) for p, q in zip(m.W + m.b, params))
    rng = np.random.default_rng(100 + input_dim)
    for t in range(1, 26):
        n = int(rng.integers(1, 60))
        X = rng.normal(size=(n, input_dim))
        y = rng.integers(2, size=n)
        loss, grads = m.loss_and_grads(X, y)
        ref_loss, ref_grads = _reference_loss_and_grads(W, b, X, y)
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
        m.adam_step()
        _reference_adam_step(params, ref_grads, mom, vel, t, spec)
        assert all(np.array_equal(p, q) for p, q in zip(m.W + m.b, params))


def test_gradients_are_views_of_one_reused_buffer():
    rng = np.random.default_rng(12)
    m = MlpClassifier(ClassifierSpec(input_dim=3, hidden_sizes=(4,)), rng)
    _, first = m.loss_and_grads(rng.normal(size=(5, 3)), rng.integers(2, size=5))
    kept = [g.copy() for g in first]
    _, second = m.loss_and_grads(rng.normal(size=(5, 3)), rng.integers(2, size=5))
    assert all(a is b for a, b in zip(first, second))
    assert not all(np.array_equal(a, b) for a, b in zip(kept, second))
    assert m.n_params() == sum(p.size for p in m.W + m.b) == 3 * 4 + 4 * 2 + 4 + 2


def test_duplicate_instance_share_with_snapshotted_gradients():
    rng = np.random.default_rng(1)
    m = MlpClassifier(ClassifierSpec(input_dim=3, hidden_sizes=(4,)), rng)
    for bias in m.b:
        bias[...] = rng.normal(0.0, 0.1, size=bias.shape)
    a = rng.normal(size=(1, 3))
    b = rng.normal(size=(1, 3))
    ga = [g.copy() for g in m.loss_and_grads(a, np.array([0]))[1]]
    gb = [g.copy() for g in m.loss_and_grads(b, np.array([1]))[1]]
    _, gall = m.loss_and_grads(np.vstack([a, b, b]), np.array([0, 1, 1]))
    assert not all(np.allclose(one, two) for one, two in zip(ga, gb))
    for combined, one, two in zip(gall, ga, gb):
        assert np.allclose(combined, (one + 2.0 * two) / 3.0)


def test_loaded_checkpoint_stays_trainable(tmp_path):
    rng = np.random.default_rng(13)
    m = MlpClassifier(ClassifierSpec(input_dim=4, hidden_sizes=(6,)), rng)
    path = tmp_path / "model.bin"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    before = loaded.W[0].copy()
    loaded.train_minibatch(rng.normal(size=(8, 4)), rng.integers(2, size=8))
    assert not np.array_equal(before, loaded.W[0])
    assert all(np.shares_memory(p, loaded._theta) for p in loaded.W + loaded.b)
    with open(path, "r+b") as fh:  # a truncated file is refused, not broadcast
        fh.truncate(path.stat().st_size - 8)
    with pytest.raises(ValueError):
        load_checkpoint(path)
