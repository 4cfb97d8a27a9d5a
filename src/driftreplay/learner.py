"""Incremental classifiers: a small MLP trained with Adam, plus helpers.

Everything runs on float64 numpy so analytic gradients can be validated
against central finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .replay import oversample_balance, sample_replay


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class ClassifierSpec:
    input_dim: int
    hidden_sizes: tuple = (128, 64, 32)
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs_per_batch: int = 10
    minibatch_size: int = 32

    def __post_init__(self):
        if self.input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if any(h <= 0 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        if self.epochs_per_batch <= 0 or self.minibatch_size <= 0:
            raise ValueError("epochs_per_batch and minibatch_size must be positive")


@dataclass
class TrainRecord:
    batch_index: int
    epoch_losses: list = field(default_factory=list)
    instances_consumed: int = 0
    replay_consumed: int = 0

    @classmethod
    def of(cls, batch_index: int, n_rows: int, epoch_losses: list, rows_trained: int):
        """The record of a batch of n_rows stream rows; each epoch presents
        each of them once, so every other row trained was replay."""
        return cls(batch_index, epoch_losses, n_rows, rows_trained - len(epoch_losses) * n_rows)


def _softmax(z):
    """Row-wise softmax, computed in place over the two-column logits z.

    A reduce starts from its first element, so the max and the sum of a
    two-element row are one ``maximum`` and one add of the columns: the
    same operations, bit for bit, NaN and inf included.
    """
    a, b = z[:, 0], z[:, 1]
    z -= np.maximum(a, b)[:, None]
    np.exp(z, out=z)
    z /= (a + b)[:, None]
    return z


class MlpClassifier:
    """Fully connected ReLU net with a 2-way softmax head, trained by Adam.

    Every weight and bias lives in one contiguous float64 vector, all W
    then all b, and ``W[i]``/``b[i]`` are reshaped views into it. Adam's
    moments and the gradient are matching flat vectors, so an update is a
    fixed number of in-place ufunc calls. Write weights through the views
    (``W[i][...] = ...``): an array bound in their place is not trained.
    """

    def __init__(self, spec: ClassifierSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        rng = rng if rng is not None else np.random.default_rng(0)
        dims = [spec.input_dim, *spec.hidden_sizes, 2]
        self.dims = dims
        self._shapes = ([(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
                        + [(d,) for d in dims[1:]])
        size = sum(math.prod(shape) for shape in self._shapes)
        self._theta = np.zeros(size)
        params = self._views(self._theta)
        self.W, self.b = params[:len(dims) - 1], params[len(dims) - 1:]
        for i, W in enumerate(self.W):
            W[...] = rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=W.shape)
        self._grad = np.zeros(size)
        self._grads = self._views(self._grad)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))
        self._t = 0

    def _views(self, flat):
        """Split a flat vector into views shaped like W then b."""
        views, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            views.append(flat[start:stop].reshape(shape))
            start = stop
        return views

    def _forward(self, X):
        acts = [X]
        last = len(self.W) - 1
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            z = acts[-1] @ W
            z += b
            if i < last:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def predict_proba(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.spec.input_dim:
            raise ValueError(f"expected input dim {self.spec.input_dim}, got {X.shape[1]}")
        return _softmax(self._forward(X)[-1])

    def predict_labels(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def loss_and_grads(self, X, y):
        """Mean cross-entropy and analytic gradients, ordered as W then b.

        The gradients are views of one buffer that the next call
        overwrites; copy them to keep them.
        """
        n = X.shape[0]
        acts = self._forward(X)
        delta = _softmax(acts[-1])
        picked = np.arange(0, 2 * n, 2) + y  # (row, y) in the flat two-column delta
        flat = delta.reshape(-1)
        loss = -float(np.add.reduce(np.log(flat[picked] + 1e-12)) / n)  # ndarray.mean's sum/n
        flat[picked] -= 1.0
        delta /= n
        n_layers = len(self.W)
        gW, gb = self._grads[:n_layers], self._grads[n_layers:]
        for i in range(n_layers - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=gW[i])
            np.add.reduce(delta, axis=0, out=gb[i])
            if i > 0:
                delta = delta @ self.W[i].T
                delta *= acts[i] > 0
        return loss, self._grads

    def adam_step(self):
        """Apply one Adam update from the gradients of the last loss_and_grads.

        Each element goes through the textbook per-array operations in the
        same order, so the result is bit-for-bit the same.
        """
        self._t += 1
        s = self.spec
        g, m, v = self._grad, self._m, self._v
        a, b = self._scratch
        np.multiply(m, s.beta1, out=m)  # m = beta1*m + (1-beta1)*g
        np.multiply(g, 1 - s.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, s.beta2, out=v)  # v = beta2*v + ((1-beta2)*g)*g
        np.multiply(g, 1 - s.beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, 1 - s.beta1 ** self._t, out=a)  # lr*m_hat / (sqrt(v_hat) + eps)
        np.multiply(a, s.learning_rate, out=a)
        np.divide(v, 1 - s.beta2 ** self._t, out=b)
        np.sqrt(b, out=b)
        np.add(b, s.eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(self._theta, a, out=self._theta)

    def train_minibatch(self, X, y) -> float:
        loss, _ = self.loss_and_grads(X, y)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite training loss: {loss}")
        self.adam_step()
        return loss


def _to_arrays(batch):
    X = np.array([inst.features for inst in batch])
    y = np.array([inst.label for inst in batch], dtype=np.int64)
    return X, y


def ingest_batch(batch, memory=None):
    """A stream batch as arrays (X, y), after the memory, if any, has
    absorbed every raw instance exactly once."""
    if not batch:
        raise ValueError("batch must be non-empty")
    if memory is not None:
        for inst in batch:
            memory.ingest(inst)
    return _to_arrays(batch)


def minibatches(X, y, memory, rng: np.random.Generator, spec: ClassifierSpec):
    """Yield (epoch, bx, by) for every minibatch of one batch's epochs.

    Each epoch shuffles the rows and steps through them in minibatches,
    each topped up with replay when there is a memory. Every random draw
    and every replay assembly happens here, in the order the minibatches
    come out; none depends on a model, so they can be trained elsewhere.
    """
    for epoch in range(spec.epochs_per_batch):
        order = rng.permutation(len(X))
        for start in range(0, len(X), spec.minibatch_size):
            idx = order[start:start + spec.minibatch_size]
            bx, by = X[idx], y[idx]
            if memory is not None:
                extra = oversample_balance(sample_replay(memory, rng), rng)
                if extra:
                    ex, ey = _to_arrays(extra)
                    bx = np.concatenate([bx, ex])
                    by = np.concatenate([by, ey])
            yield epoch, bx, by


def train_epochs(model: MlpClassifier, batches) -> tuple[list, int]:
    """Train on each (epoch, bx, by) of ``batches`` in order; return the
    mean minibatch loss of each epoch and the number of rows trained."""
    losses = {}
    rows = 0
    for epoch, bx, by in batches:
        losses.setdefault(epoch, []).append(model.train_minibatch(bx, by))
        rows += len(bx)
    return [float(np.mean(ls)) for ls in losses.values()], rows


def fit_offline(spec: ClassifierSpec, X, y, rng: np.random.Generator) -> MlpClassifier:
    """Train a fresh model from scratch on the rows X with labels y."""
    if not len(X):
        raise ValueError("need at least one row")
    model = MlpClassifier(spec, rng)
    train_epochs(model, minibatches(X, y, None, rng, spec))
    return model


def gradient_check(model: MlpClassifier, X, y, h: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference gradients."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    # loss_and_grads reuses its gradient buffer, so snapshot before perturbing
    grads = [g.copy() for g in model.loss_and_grads(X, y)[1]]
    params = model.W + model.b
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp, _ = model.loss_and_grads(X, y)
            flat[k] = orig - h
            lm, _ = model.loss_and_grads(X, y)
            flat[k] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(gflat[k]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst
