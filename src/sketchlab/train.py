"""Training loop for learned sparse sketches.

The sparsity pattern stays frozen; only slot values move.  ``sgd_train``
follows the closed-form gradient of the sketch-and-solve loss
(:func:`~sketchlab.sketching.sketch_loss_and_grad`), read off at the slot
positions: one loss-and-gradient call per batch, on the batch's matrices
stacked.  Its mini-batch loop also trains ``amg.train_prolongation`` on
the closed-form gradient of the cycle loss.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (_check_array, _check_fro_sq, _check_int, _check_positive,
                     _check_seed, _check_type, fro_sq)
from .sketching import SparseSketch, _check_loss_args, _loss, _loss_and_grad


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for mini-batch SGD, frozen once checked.

    ``fd_step`` is validated but read by nothing; the learn-sketch benchmark
    still passes it, until ROADMAP item 1b deletes it.  An int
    ``seed`` (or None) is the seed of each run's own generator, so an int
    reproduces the run; a ``numpy`` Generator is drawn from directly and
    advances, so each run with that config shuffles differently.
    """

    epochs: int
    step_size: float
    batch_size: int
    fd_step: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        _check_int("epochs", self.epochs, 0)
        _check_positive("step_size", self.step_size)
        _check_int("batch_size", self.batch_size, 1)
        _check_seed(self.seed)
        if not (0 < self.fd_step <= 1e-3):
            raise ValueError(f"fd_step must be in (0, 1e-3], got {self.fd_step}")


def _nonempty(data, name="dataset"):
    """``data`` itself, after checking that it holds at least one item."""
    if not len(data):
        raise ValueError(f"{name} must be nonempty")
    return data


def _stacked(data, name="dataset") -> np.ndarray:
    """``data`` as one (N, n, d) array of its own dtype (for the caller's
    array rule), after checking that it holds matrices of one shape."""
    if isinstance(data, np.ndarray):  # an array must be the stack itself
        if data.ndim != 3:
            raise ValueError(f"{name} must be an (N, n, d) stack, got ndim={data.ndim}")
        return _nonempty(data, name)
    mats = _nonempty([np.asarray(m) for m in data], name)
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape != shape:
            raise ValueError(f"matrix {i} has shape {m.shape}, expected {shape}")
    return np.stack(mats)


def make_dataset(matrices) -> np.ndarray:
    """Validate and normalize a training set into one (N, n, d) float64
    stack.

    All matrices must share one shape; each is rescaled to unit squared
    Frobenius norm; each passes the array rule as ``matrix i``.  The input
    is never modified.
    """
    if not isinstance(matrices, np.ndarray):
        matrices = [np.asarray(m) for m in matrices]
    data = _stacked(matrices, "matrices")
    for i, mat in enumerate(matrices):  # the items as given, before stacking
        _check_array(f"matrix {i}", mat)
        _check_fro_sq(f"matrix {i}", mat)
    data = np.asarray(data, dtype=np.float64)
    norm_sq = fro_sq(data)
    if not norm_sq.all():
        raise ValueError(f"matrix {np.flatnonzero(norm_sq == 0.0)[0]} is zero and "
                         f"cannot be normalized")
    return data / np.sqrt(norm_sq)[:, None, None]


def empirical_loss(sketch, data, k: int) -> float:
    """Mean sketch-and-solve loss over a nonempty dataset of matrices of
    one shape, from one stacked call."""
    data = _stacked(data)
    return float(np.mean(_loss(_check_loss_args(sketch, data, k), data, k)))


def _descend(vals, data, cfg: TrainConfig, batch_grads, mean_loss,
             history: list | None) -> np.ndarray:
    """Mini-batch descent shared by :func:`sgd_train` and
    ``amg.train_prolongation``: each epoch shuffles ``data`` afresh and
    steps once per batch ``idx`` against the mean gradient, from the
    batch's losses and summed gradient that ``batch_grads(vals, idx)``
    returns as arrays.  The shuffles come from
    ``np.random.default_rng(cfg.seed)``: an int seed gives the same
    trajectory on every call, while a Generator seed is that generator
    itself and advances with each call.  ``mean_loss(vals)`` is appended
    to ``history`` after each epoch when a list is passed.  Aborts with a
    diagnostic if a loss, or a value after a step, evaluates non-finite.
    """
    _check_type("cfg", cfg, TrainConfig)
    n = len(_nonempty(data))
    rng = np.random.default_rng(cfg.seed)
    vals = np.array(vals, dtype=np.float64)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            losses, grad = batch_grads(vals, idx)
            vals -= cfg.step_size * (grad / idx.size)
            if not (np.isfinite(losses).all() and np.isfinite(vals).all()):
                raise FloatingPointError(f"non-finite loss, gradient or step at epoch "
                                         f"{epoch}, items {idx.tolist()}: {losses}")
        if history is not None:
            history.append(float(mean_loss(vals)))
            if not np.isfinite(history[-1]):
                raise FloatingPointError(f"non-finite loss after epoch "
                                         f"{epoch}: {history[-1]}")
    return vals


def sgd_train(pattern: SparseSketch, data, k: int, cfg: TrainConfig,
              history: list | None = None) -> SparseSketch:
    """Train the slot values of ``pattern`` by mini-batch SGD on the mean
    sketch-and-solve loss, with its closed-form gradient at the slot
    positions, after one check at the loss family's door.  The result has
    the input pattern; its loop, ``history`` and aborts are :func:`_descend`'s.
    """
    _check_type("pattern", pattern, SparseSketch)
    data = _stacked(data)
    _check_loss_args(pattern, data, k)

    def dense(vals):
        return pattern._scatter(vals, np.zeros((pattern.m, pattern.n)))

    def batch_grads(vals, idx):
        losses, g = _loss_and_grad(dense(vals), data[idx], k)
        # summed before the gather: the gathered copy has the batch axis
        # innermost, which numpy sums pairwise, not item by item
        return losses, pattern._gather(g.sum(axis=0))

    return pattern.with_values(_descend(
        pattern.values, data, cfg, batch_grads,
        lambda v: np.mean(_loss(dense(v), data, k)), history))


def safeguard(learned: SparseSketch, oblivious: SparseSketch) -> SparseSketch:
    """Stack an oblivious sketch below a learned one.

    The result is an (m1+m2)-by-n sketch whose row space contains both row
    spaces, so its sketch-and-solve loss never exceeds either input's.
    Per-column sparsity becomes s1 + s2.
    """
    _check_type("learned", learned, SparseSketch)
    _check_type("oblivious", oblivious, SparseSketch)
    if learned.n != oblivious.n:
        raise ValueError(f"column counts differ: {learned.n} vs {oblivious.n}")
    pattern = np.concatenate([learned.pattern, oblivious.pattern + learned.m], axis=1)
    values = np.concatenate([learned.values, oblivious.values], axis=1)
    return SparseSketch(learned.m + oblivious.m, learned.n, learned.s + oblivious.s,
                        pattern, values)
