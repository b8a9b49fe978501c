"""Training loop for learned sparse sketches.

The sparsity pattern stays frozen; only slot values move.  ``sgd_train``
follows the closed-form gradient of the sketch-and-solve loss
(:func:`~sketchlab.sketching.sketch_loss_and_grad`), read off at the slot
positions: one loss-and-gradient call per matrix and batch.  The generic
:func:`finite_difference_sgd` estimates gradients by central differences;
``amg.train_prolongation`` trains with it, and the tests check
``sgd_train`` against it.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import fro_sq
from .sketching import SparseSketch, _dense, sketch_loss, sketch_loss_and_grad


@dataclass
class TrainConfig:
    """Hyperparameters for mini-batch SGD.

    ``fd_step`` is the central-difference step of
    :func:`finite_difference_sgd`; :func:`sgd_train` does not use it.
    """

    epochs: int
    step_size: float
    batch_size: int
    fd_step: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 < self.fd_step <= 1e-3):
            raise ValueError(f"fd_step must be in (0, 1e-3], got {self.fd_step}")


def make_dataset(matrices) -> list[np.ndarray]:
    """Validate and normalize a training set.

    All matrices must share one shape; each is rescaled to unit squared
    Frobenius norm.
    """
    mats = [np.array(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise ValueError("dataset must be nonempty")
    shape = mats[0].shape
    out = []
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape != shape:
            raise ValueError(
                f"matrix {i} has shape {m.shape}, expected {shape}"
            )
        if not np.isfinite(m).all():
            raise ValueError(f"matrix {i} contains non-finite entries")
        norm_sq = fro_sq(m)
        if norm_sq == 0.0:
            raise ValueError(f"matrix {i} is zero and cannot be normalized")
        out.append(m / np.sqrt(norm_sq))
    return out


def empirical_loss(sketch, data, k: int) -> float:
    """Mean sketch-and-solve loss over a nonempty dataset."""
    if not len(data):
        raise ValueError("dataset must be nonempty")
    return float(np.mean([sketch_loss(sketch, a, k) for a in data]))


def finite_difference_sgd(values, loss_fn, cfg: TrainConfig,
                          history: list | None = None) -> np.ndarray:
    """Generic gradient descent with central finite-difference gradients.

    ``loss_fn(values)`` evaluates the loss at a flat parameter vector; one
    step per epoch.  After each epoch the loss is appended to ``history``
    when given.  Aborts with a diagnostic if a loss evaluates non-finite.
    """
    vals = np.array(values, dtype=np.float64).ravel()
    h = cfg.fd_step
    for epoch in range(cfg.epochs):
        grad = np.empty_like(vals)
        for j in range(vals.size):
            orig = vals[j]
            vals[j] = orig + h
            up = loss_fn(vals)
            vals[j] = orig - h
            down = loss_fn(vals)
            vals[j] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, parameter {j}: "
                    f"up={up}, down={down}"
                )
            grad[j] = (up - down) / (2.0 * h)
        vals -= cfg.step_size * grad
        if history is not None:
            full = loss_fn(vals)
            if not np.isfinite(full):
                raise FloatingPointError(
                    f"non-finite loss after epoch {epoch}: {full}"
                )
            history.append(float(full))
    return vals


def sgd_train(pattern: SparseSketch, data, k: int, cfg: TrainConfig,
              history: list | None = None) -> SparseSketch:
    """Train the slot values of ``pattern`` by mini-batch SGD on the mean
    sketch-and-solve loss, with its closed-form gradient.

    Each step averages the per-matrix gradients at the slot positions over
    one batch of a fresh per-epoch shuffle.  The returned sketch has
    exactly the input pattern.  With a fixed config the whole trajectory is
    deterministic.  Per-epoch training losses are appended to ``history``
    when a list is passed.  Aborts with a diagnostic if a loss or a
    gradient evaluates non-finite.
    """
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(data))
    batch_size = min(cfg.batch_size, len(data))
    n_batches = (len(data) + batch_size - 1) // batch_size
    slots = (pattern.pattern, np.arange(pattern.n)[:, None])
    perms = [rng.permutation(order) for _ in range(max(cfg.epochs, 1))]
    vals = pattern.values.copy()
    for epoch in range(cfg.epochs):
        for b in range(n_batches):
            s_mat = pattern.with_values(vals).dense()
            idx = perms[epoch][b * batch_size:(b + 1) * batch_size]
            grad = np.zeros_like(vals)
            for i in idx:
                loss, g = sketch_loss_and_grad(s_mat, data[i], k)
                if not (np.isfinite(loss) and np.isfinite(g).all()):
                    raise FloatingPointError(
                        f"non-finite loss or gradient at epoch {epoch}, "
                        f"batch {b}, matrix {i}: loss={loss}"
                    )
                grad += g[slots]
            vals -= cfg.step_size * (grad / idx.size)
        if history is not None:
            full = empirical_loss(pattern.with_values(vals), data, k)
            if not np.isfinite(full):
                raise FloatingPointError(
                    f"non-finite loss after epoch {epoch}: {full}"
                )
            history.append(float(full))
    return pattern.with_values(vals)


def safeguard(learned: SparseSketch, oblivious: SparseSketch) -> SparseSketch:
    """Stack an oblivious sketch below a learned one.

    The result is an (m1+m2)-by-n sketch whose row space contains both row
    spaces, so its sketch-and-solve loss never exceeds either input's.
    Per-column sparsity becomes s1 + s2.
    """
    if learned.n != oblivious.n:
        raise ValueError(
            f"column counts differ: {learned.n} vs {oblivious.n}"
        )
    pattern = np.concatenate(
        [learned.pattern, oblivious.pattern + learned.m], axis=1
    )
    values = np.concatenate([learned.values, oblivious.values], axis=1)
    return SparseSketch(
        learned.m + oblivious.m, learned.n, learned.s + oblivious.s,
        pattern, values,
    )


def few_shot_loss(sketch, a: np.ndarray, k: int) -> float:
    """Surrogate training loss ``||U_k^T S^T S U - I0||_F^2``.

    ``U`` is the full n-by-n left factor of the SVD of ``a`` (orthonormal
    completion included) and ``I0`` is the order-``k`` identity padded on
    the right with zero columns.  Zero when the sketch rows coincide with
    the top-``k`` left singular vectors; equal to ``k`` for a zero sketch.
    """
    n = a.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    s_mat = _dense(sketch, a)
    u, _, _ = np.linalg.svd(a, full_matrices=True)
    i0 = np.zeros((k, n))
    i0[:, :k] = np.eye(k)
    m = u[:, :k].T @ s_mat.T @ s_mat @ u
    return fro_sq(m - i0)
