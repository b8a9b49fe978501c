"""Sparse sketching matrices and the sketch-and-solve low-rank pipeline.

A :class:`SparseSketch` is a frozen m-by-n matrix that owns read-only
copies of its sparsity pattern (``s`` nonzero slots per column) and slot
values; training returns its values in a new sketch, which shares the
pattern.  It owns the slot layout (slot (j, t) is the dense entry
(pattern[j, t], j)): its ``_scatter`` and ``_gather`` map stacks of slot
values to dense sketches and back, for training, the shattering verifier
and the tracer alike.

``sketch_lowrank`` implements the classic sketch-and-solve rank-``k``
approximation ``[AV]_k V^T``: sketch the input down to ``S @ A``, take its
SVD ``U Sigma V^T``, and solve the small problem in the sketched row space.
Its projection form and ``sketch_loss_and_grad`` form it too; ``sketch_loss``
takes the singular values of ``AV`` alone.  Each public loss checks (sketch,
A, k) once, at ``_check_loss_args``, then runs an unchecked kernel, as
training and the shattering verifier do; an ``SA`` beyond float range is a
``ValueError``.

The pipeline broadcasts: the sketch may be a ``SparseSketch``, an m-by-n
matrix or a stack ``(..., m, n)``, and ``A`` an n-by-d matrix or a stack
``(..., n, d)``.  A stack goes through each step in one numpy call, on the
masked factors of :func:`~sketchlab.linalg.svd`.  Where its matrices share
the ranks of SA and of AV cut to k, each gets the bits of its own 2-D
call; otherwise the masked columns change the shapes BLAS and LAPACK see,
and the values agree to rounding.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .linalg import (SvdResult, _check_array, _check_fro_sq, _check_int, _check_seed,
                     _kept, _own, _rank_k, _singular_values, fro_sq, svd)


@dataclass(frozen=True, eq=False)
class SparseSketch:
    """m-by-n sketching matrix with ``s`` nonzero slots per column.

    Parameters
    ----------
    m, n, s : int
        Row count, column count, and slots per column (1 <= s <= m).
    pattern : ndarray of int64, shape (n, s)
        For each column, the sorted distinct row indices of its slots.
    values : ndarray of float64, shape (n, s)
        Slot values aligned with ``pattern``; zeros are allowed and do not
        change the pattern.
    """

    m: int
    n: int
    s: int
    pattern: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("m", "n", "s"):
            _check_int(name, getattr(self, name), 1)
        if self.s > self.m:
            raise ValueError(f"need 1 <= s <= m, got s={self.s}, m={self.m}")
        pattern, values = np.asarray(self.pattern), np.asarray(self.values)
        if not (pattern.dtype.kind in "iu" or pattern.dtype.kind == "f"
                and (pattern == np.floor(pattern)).all()):  # NaN and bool fail too
            raise ValueError("pattern entries must be integers")
        _check_array("pattern", pattern, (self.n, self.s))
        _check_array("values", values, (self.n, self.s))
        # copies: a caller's later writes to its arrays must not reach the sketch
        _own(self, pattern=np.array(pattern, dtype=np.int64),
             values=np.array(values, dtype=np.float64))
        if self.pattern.min() < 0 or self.pattern.max() >= self.m:
            raise ValueError("pattern indices out of range [0, m)")
        if np.any(np.diff(self.pattern, axis=1) <= 0):
            raise ValueError("pattern rows must be sorted and distinct per column")

    def dense(self) -> np.ndarray:
        """Materialize the m-by-n matrix."""
        return self._scatter(self.values, np.zeros((self.m, self.n)))

    def _scatter(self, values, out):
        """Write slot values ``(..., n, s)`` into ``out`` ``(..., m, n)``,
        slot (j, t) at entry (pattern[j, t], j); returns ``out``.  Unchecked."""
        out[..., self.pattern, np.arange(self.n)[:, None]] = values
        return out

    def _gather(self, dense):
        """The slot entries of ``dense`` ``(..., m, n)`` as ``(..., n, s)``,
        the inverse of :meth:`_scatter`.  Unchecked."""
        return dense[..., self.pattern, np.arange(self.n)[:, None]]

    def with_values(self, values: np.ndarray) -> "SparseSketch":
        """New sketch with the given slot values, checked and copied; it
        shares this sketch's read-only, already checked pattern."""
        _check_array("values", values, (self.n, self.s))
        sketch = copy.copy(self)
        _own(sketch, values=np.array(values, dtype=np.float64))
        return sketch


def _check_loss_args(sketch, a: np.ndarray, k, shape=None) -> np.ndarray:
    """The loss family's one door: the array rule on the sketch and ``a`` (of
    ``shape``; by default any matrix or stack), the width, norm and k checks
    (none for ``k=None``); returns the dense float64 sketch for the kernels."""
    s_mat = sketch.dense() if hasattr(sketch, "dense") else sketch
    _check_array("sketch", s_mat, shape)
    s_mat = np.asarray(s_mat, float)
    _check_array("matrix", a, shape)
    if s_mat.shape[-1] != a.shape[-2]:
        raise ValueError(f"sketch has {s_mat.shape[-1]} columns but the matrix has "
                         f"{a.shape[-2]} rows")
    _check_fro_sq("matrix", a)
    if k is not None:
        _check_int("k", k)
        if not (1 <= k <= min(a.shape[-2:])):
            raise ValueError(f"k must satisfy 1 <= k <= min(A.shape), got k={k}")
    return s_mat


def random_sparse_sketch(m: int, n: int, s: int, seed) -> SparseSketch:
    """Sample an oblivious sparse sketch.

    Each column gets ``s`` slot positions drawn uniformly without
    replacement from the ``m`` rows, each filled with an independent
    uniform +-1 value.  ``seed`` may be an int >= 0, None or a ``numpy``
    Generator; a fixed int seed reproduces the sketch exactly.
    """
    for name, count in (("m", m), ("n", n), ("s", s)):
        _check_int(name, count)
    _check_seed(seed)
    if not (1 <= s <= m):
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    keys = rng.random((n, m))
    pattern = np.sort(np.argsort(keys, axis=1)[:, :s], axis=1)
    values = rng.choice([-1.0, 1.0], size=(n, s))
    return SparseSketch(m, n, s, pattern, values)


def _rowspace(s_mat: np.ndarray, a: np.ndarray) -> SvdResult:
    """The rank-trimmed SVD ``U Sigma V^T`` of ``SA``: ``V`` spans its row space."""
    try:
        with np.errstate(over="raise"):
            sa = s_mat @ a
    except FloatingPointError:
        raise ValueError("sketch @ matrix overflows: SA is beyond float range") from None
    return svd(sa)


def _loss(s_mat: np.ndarray, a: np.ndarray, k: int):
    v = _rowspace(s_mat, a).V
    av = a @ v
    dropped = _singular_values(av)  # less the top k that the rank rule keeps
    dropped[..., :k][_kept(dropped[..., :k])] = 0.0
    low = av @ v.swapaxes(-1, -2)  # then in place: for a stack, the largest array
    return fro_sq(np.subtract(a, low, out=low)) + fro_sq(dropped[..., None])


def _loss_and_grad(s_mat: np.ndarray, a: np.ndarray, k: int) -> tuple:
    u, sv_sa, v = _rowspace(s_mat, a)
    w, sv, z = svd(a @ v)
    w, sv, z = w[..., :k], sv[..., None, :k], z[..., :k]
    resid = a - ((w * sv) @ z.swapaxes(-1, -2)) @ v.swapaxes(-1, -2)
    # masked columns of u are zero; dividing by 1 keeps them so
    x = (u / np.where(sv_sa > 0.0, sv_sa, 1.0)[..., None, :]) @ z
    grad = -2.0 * (x * sv) @ ((w.swapaxes(-1, -2) @ resid) @ a.swapaxes(-1, -2))
    return fro_sq(resid), grad


def sketch_lowrank(a: np.ndarray, k: int, sketch) -> np.ndarray:
    """Sketch-and-solve rank-``k`` approximation of ``a``.

    Steps: take the SVD ``U S V^T`` of ``SA``, form ``A V``, and return
    ``[A V]_k V^T``; when ``SA`` vanishes, ``V`` is empty and the result
    is the zero matrix.  The output always has rank at most ``k``.
    """
    v = _rowspace(_check_loss_args(sketch, a, k), a).V
    return _rank_k(a @ v, k) @ v.swapaxes(-1, -2)


def sketch_lowrank_via_projection(a: np.ndarray, k: int, sketch) -> np.ndarray:
    """Equivalent form of :func:`sketch_lowrank`: ``[A P]_k`` where
    ``P = V V^T`` projects onto the row space of ``SA``."""
    v = _rowspace(_check_loss_args(sketch, a, k), a).V
    return _rank_k(a @ (v @ v.swapaxes(-1, -2)), k)


def sketch_loss(sketch, a: np.ndarray, k: int):
    """Squared-Frobenius error of the sketch-and-solve approximation: a
    float, or an array over the broadcast leading axes of a stack.

    It is ``||A - AVV^T||_F^2`` plus the squared singular values of ``AV``
    that the rank-``k`` cut drops, as ``A - AVV^T`` is orthogonal to the row
    space of ``SA``, which ``V`` spans.  For unit-norm inputs the value lies
    in [0, 1]; in general it never exceeds ``fro_sq(a)``.
    """
    return _loss(_check_loss_args(sketch, a, k), a, k)


def sketch_loss_and_grad(sketch, a: np.ndarray, k: int) -> tuple:
    """The loss of :func:`sketch_loss` and its gradient in the dense
    m-by-n sketch ``S`` (one gradient per matrix of a stack).

    With ``K = A A^T`` the loss is ``||A||_F^2`` minus the top ``k``
    eigenvalues of the pencil ``(S K^2 S^T, S K S^T)``.  The thin SVD
    ``U Sigma V^T`` of ``SA`` whitens the pencil into ``(AV)^T (AV)``.
    With ``W diag(sigma) Z^T`` the SVD of ``AV`` cut to its top
    ``min(k, rank)`` terms, ``X = U Sigma^{-1} Z`` and ``Y = X^T S``, the
    eigenvalue gradients sum to ``dL/dS = -2 X (Y K^2 - Lambda Y K)`` with
    ``Lambda = diag(sigma^2)``.  Since ``Y K = diag(sigma) W^T``, row i of
    the bracket, ``sigma_i w_i^T (K - sigma_i^2 I)``, equals
    ``sigma_i w_i^T R A^T`` for the loss residual ``R = A - [AV]_k V^T``;
    so neither ``K`` nor that cancelling difference is formed.

    The gradient is exact wherever the rank of ``SA`` is locally constant
    and ``sigma_k > sigma_{k+1}``.  Sketch rows with no part in ``SA``'s
    left singular space (empty rows among them) get zero.
    """
    return _loss_and_grad(_check_loss_args(sketch, a, k), a, k)


def rank1_closed_form_loss(a: np.ndarray, w: np.ndarray) -> float:
    """Closed-form sketch-and-solve loss for a single sketching vector and
    target rank 1.

    Equals ``fro_sq(a)`` when ``w^T A`` vanishes, and otherwise
    ``fro_sq(A - A t t^T / ||t||^2)`` with ``t = A^T w``.  Agrees with
    ``sketch_loss`` for the 1-row sketch ``w^T``, and raises its
    ``ValueError`` for a length of ``w`` that does not fit ``a`` and for a
    non-finite entry in either (naming ``w`` as ``w``).  ``a`` is one
    matrix: a stack is refused.
    """
    w = np.reshape(w, (1, -1))
    _check_array("w", w, (1, None))
    row = _check_loss_args(w, a, None, (None, None))[0]
    t = a.T @ row
    if not t.any():
        return fro_sq(a)
    t = t / np.abs(t).max()
    out = np.outer(a @ t, t) / fro_sq(t)
    return fro_sq(a - out)
