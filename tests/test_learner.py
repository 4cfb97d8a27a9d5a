"""Unit tests for the MLP classifier and its training loops."""
import numpy as np
import pytest

from driftreplay.learner import (
    ClassifierSpec,
    MlpClassifier,
    TrainingDivergedError,
    TrainRecord,
    fit_offline,
    gradient_check,
    ingest_batch,
    minibatches,
    train_epochs,
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
    p0, p1 = m.predict_proba(np.ones((1, 4)))[0]
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
    train_epochs(m, minibatches(*ingest_batch(batch), None, rng, m.spec))
    assert (m.predict_labels(X) == y).mean() >= 0.95


def test_epoch_losses_mostly_non_increasing():
    ok = 0
    for s in range(20):
        rng = np.random.default_rng(s)
        batch, _, _ = separable_batch(rng)
        m = MlpClassifier(ClassifierSpec(input_dim=8, **SMALL), rng)
        epoch_losses, _ = train_epochs(m, minibatches(*ingest_batch(batch), None, rng, m.spec))
        if np.all(np.diff(epoch_losses) <= 1e-9):
            ok += 1
    assert ok >= 18


def test_empty_replay_source_matches_replay_disabled(monkeypatch):
    # a memory that yields no replay trains exactly like no memory, step for step
    monkeypatch.setattr("driftreplay.learner.sample_replay", lambda memory, rng: [])
    rng = np.random.default_rng(4)
    batch, _, _ = separable_batch(rng, n=64)
    spec = ClassifierSpec(input_dim=8, hidden_sizes=(8,), epochs_per_batch=3)
    m1 = MlpClassifier(spec, np.random.default_rng(9))
    m2 = MlpClassifier(spec, np.random.default_rng(9))
    mem = RsbMemory(RsbConfig(c_min=2, n_s=10**6), np.random.default_rng(0))
    for model, memory in ((m1, None), (m2, mem)):
        X, y = ingest_batch([inst(i.features.copy(), i.label) for i in batch], memory)
        trained = train_epochs(model, minibatches(X, y, memory, np.random.default_rng(5), spec))
    assert all(np.array_equal(a, b) for a, b in zip(m1.W + m1.b, m2.W + m2.b))
    assert TrainRecord.of(0, len(X), *trained).replay_consumed == 0
    assert sum(1 for _ in mem.all_centroids()) > 0  # memory still absorbed the batch


def test_train_record_counts_replay_consumption():
    rng = np.random.default_rng(8)
    batch, _, _ = separable_batch(rng, n=64)
    mem = RsbMemory(RsbConfig(c_min=2, n_s=10**6), np.random.default_rng(0))
    m = MlpClassifier(ClassifierSpec(input_dim=8, hidden_sizes=(8,), epochs_per_batch=2),
                      np.random.default_rng(0))
    X, y = ingest_batch(batch, mem)
    rec = TrainRecord.of(0, len(X), *train_epochs(m, minibatches(X, y, mem, rng, m.spec)))
    assert rec.instances_consumed == 64
    assert rec.replay_consumed > 0


def test_ingest_batch_rejects_empty_batch():
    with pytest.raises(ValueError, match="batch must be non-empty"):
        ingest_batch([])


# ------------------------------------------------------------------- offline

def test_fit_offline_learns_and_is_deterministic():
    rng = np.random.default_rng(10)
    _, X, y = separable_batch(rng)
    spec = ClassifierSpec(input_dim=8, **SMALL)
    m1 = fit_offline(spec, X, y, np.random.default_rng(3))
    m2 = fit_offline(spec, X, y, np.random.default_rng(3))
    assert (m1.predict_labels(X) == y).mean() >= 0.95
    assert all(np.array_equal(a, b) for a, b in zip(m1.W, m2.W))
    with pytest.raises(ValueError):
        fit_offline(spec, np.empty((0, 8)), np.empty(0, dtype=np.int64),
                    np.random.default_rng(3))


def test_fit_offline_trains_as_a_stream_batch_does_on_a_fresh_model():
    # the same epoch loop on the same rows, drawing the same numbers in order
    batch, X, y = separable_batch(np.random.default_rng(11), n=70)
    spec = ClassifierSpec(input_dim=8, **SMALL)
    rng = np.random.default_rng(4)
    fresh = MlpClassifier(spec, rng)
    train_epochs(fresh, minibatches(*ingest_batch(batch), None, rng, spec))
    offline = fit_offline(spec, X, y, np.random.default_rng(4))
    assert offline._theta.tobytes() == fresh._theta.tobytes()


# ------------------------------------------------- flat layout and optimizer

def _reference_softmax(logits):
    """Row-wise softmax by axis reductions, as written before the two-column form."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _reference_loss_and_grads(W, b, X, y):
    """Per-array loss and gradients, as written before the flat layout."""
    acts = [X]
    for i, (Wi, bi) in enumerate(zip(W, b)):
        z = acts[-1] @ Wi + bi
        acts.append(np.maximum(z, 0.0) if i < len(W) - 1 else z)
    probs = _reference_softmax(acts[-1])
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
    rows = [1, 2, 7, 33, 50] + [int(rng.integers(1, 60)) for _ in range(20)]
    for t, n in enumerate(rows, start=1):
        X = rng.normal(size=(n, input_dim))
        y = rng.integers(2, size=n)
        loss, grads = m.loss_and_grads(X, y)
        ref_loss, ref_grads = _reference_loss_and_grads(W, b, X, y)
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
        m.adam_step()
        _reference_adam_step(params, ref_grads, mom, vel, t, spec)
        assert all(np.array_equal(p, q) for p, q in zip(m.W + m.b, params))


def _proba_matches_reference_softmax():
    """Whether predict_proba equals the reference softmax of the same logits,
    on random rows and on rows whose logits are +-inf or NaN."""
    m = MlpClassifier(ClassifierSpec(input_dim=2, hidden_sizes=()), np.random.default_rng(0))
    m.W[0][...] = [[2.0, 0.0], [0.0, 2.0]]
    big = 1e308  # doubled, it overflows to inf
    X = np.vstack([np.random.default_rng(1).normal(0.0, 30.0, size=(200, 2)),
                   [[big, big], [big, -big], [-big, big], [-big, -big], [big, 1.0],
                    [-big, 1.0], [np.inf, 1.0], [np.nan, 1.0], [1.0, np.nan], [0.0, 0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        logits = m._forward(X)[-1].copy()
        assert np.isposinf(logits).any() and np.isneginf(logits).any()
        assert np.isnan(logits).any()
        return np.array_equal(m.predict_proba(X), _reference_softmax(logits), equal_nan=True)


def test_predict_proba_is_bit_identical_to_the_reference_softmax():
    assert _proba_matches_reference_softmax()


def _softmax_by_reciprocal(z):
    z -= np.maximum(z[:, 0], z[:, 1])[:, None]
    np.exp(z, out=z)
    z *= (1.0 / (z[:, 0] + z[:, 1]))[:, None]
    return z


def _softmax_by_complement(z):
    z -= np.maximum(z[:, 0], z[:, 1])[:, None]
    np.exp(z, out=z)
    z[:, 0] /= z[:, 0] + z[:, 1]
    z[:, 1] = 1.0 - z[:, 0]
    return z


@pytest.mark.parametrize("mutant", [_softmax_by_reciprocal, _softmax_by_complement])
def test_a_softmax_computed_in_another_order_is_caught(monkeypatch, mutant):
    monkeypatch.setattr("driftreplay.learner._softmax", mutant)
    assert not _proba_matches_reference_softmax()


def test_gradients_are_views_of_one_reused_buffer():
    rng = np.random.default_rng(12)
    m = MlpClassifier(ClassifierSpec(input_dim=3, hidden_sizes=(4,)), rng)
    _, first = m.loss_and_grads(rng.normal(size=(5, 3)), rng.integers(2, size=5))
    kept = [g.copy() for g in first]
    _, second = m.loss_and_grads(rng.normal(size=(5, 3)), rng.integers(2, size=5))
    assert all(a is b for a, b in zip(first, second))
    assert not all(np.array_equal(a, b) for a, b in zip(kept, second))


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
