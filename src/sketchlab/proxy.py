"""Deterministic proxy for the sketch-and-solve loss.

The true loss truncates ``B = A P_rowspace(SA)`` to rank k through an SVD.
The proxy replaces the SVD with arithmetic-only machinery (deterministic
standard-basis starting blocks, block power refinement, and a best-of
selection over candidates); its projectors come from :mod:`.linalg`.  With
enough refinement steps the proxy over-estimates the true loss by at most
``epsilon`` and never under-estimates it.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import fro_sq, rowspace_projector
from .sketching import _dense

DEFAULT_Q_CONSTANT = 4.0

# Successive-span change below this, three times in a row, counts as
# converged.  The span metric k - ||Q_old^T Q_new||_F^2 cannot resolve
# 1e-26: its rounding floor is one ulp of k (2.2e-16 at k = 1), so an
# exact span reads 0 or a few 1e-16 depending on rounding, and only the
# reads at or below zero count.  Blocks with rank(SA) < k < n never
# stall, and rank(SA) = k blocks stuck one ulp above zero run all q steps
# (ROADMAP item 2 replaces this rule).
_SPAN_STALL_TOL = 1e-26


@dataclass
class ProxyConfig:
    """Accuracy and enumeration knobs for the proxy loss."""

    epsilon: float
    subset_cap: int = 1000
    q_constant: float = DEFAULT_Q_CONSTANT

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.subset_cap < 1:
            raise ValueError(f"subset_cap must be >= 1, got {self.subset_cap}")
        if self.q_constant <= 0:
            raise ValueError(f"q_constant must be > 0, got {self.q_constant}")


def q_iterations(epsilon: float, d: int, q_constant: float = DEFAULT_Q_CONSTANT) -> int:
    """Number of power-refinement steps: ceil(c/eps * ln(max(d,2)/eps)),
    at least 1."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    q = math.ceil(q_constant / epsilon * math.log(max(d, 2) / epsilon))
    return max(q, 1)


def greedy_pivot_columns(v_rows: np.ndarray) -> np.ndarray:
    """Pick ``k`` standard-basis columns by greedy residual projection.

    ``v_rows`` must be a k-by-d matrix with orthonormal rows, k < d.  At
    step i the column of largest residual norm is selected, then all
    columns are re-projected against the span of the selected originals.
    The selection matrix ``P`` (d-by-k, distinct standard-basis columns)
    satisfies ``sigma_min(v_rows @ P) >= 1/sqrt(d)``.
    """
    v = np.asarray(v_rows, dtype=np.float64)
    k, d = v.shape
    if k >= d:
        raise ValueError(f"need k < d, got k={k}, d={d}")
    if np.abs(v @ v.T - np.eye(k)).max() > 1e-8:
        raise ValueError("rows are not orthonormal to 1e-8")

    p = np.zeros((d, k))
    basis = np.zeros((k, 0))
    residual = v.copy()
    for i in range(k):
        j = int(np.argmax(np.sum(residual * residual, axis=0)))
        p[j, i] = 1.0
        w = v[:, j] - basis @ (basis.T @ v[:, j])
        basis = np.concatenate([basis, (w / np.linalg.norm(w))[:, None]], axis=1)
        residual = v - basis @ (basis.T @ v)
    return p


def candidate_bases(b: np.ndarray, k: int, cfg: ProxyConfig) -> np.ndarray:
    """Starting blocks for the power refinement, as a ``(C, d, k)`` stack.

    When the number of k-subsets of the d standard-basis vectors fits under
    ``cfg.subset_cap``, all C(d, k) of them are returned.  Otherwise a
    single block (C = 1) is chosen greedily from the top-k right singular
    rows of ``b``; it still keeps the refined loss within a factor 1 + d of
    optimal.
    """
    d = b.shape[1]
    if not (1 <= k < d):
        raise ValueError(f"need 1 <= k < d, got k={k}, d={d}")
    if math.comb(d, k) <= cfg.subset_cap:
        return np.eye(d)[:, list(combinations(range(d), k))].transpose(1, 0, 2)
    _, _, vh = np.linalg.svd(b, full_matrices=False)
    return greedy_pivot_columns(vh[:k])[None]


def power_refine(b: np.ndarray, p: np.ndarray, q: int) -> np.ndarray:
    """Refine the block ``B @ P`` by ``q`` steps of ``Z <- (B B^T) Z``.

    Returns a matrix with the column space of ``(B B^T)^q B P``.  For
    ``q = 0`` this is literally ``B @ P``; for ``q >= 1`` the iteration is
    run with per-step orthonormalization (raw products lose every
    subdominant direction to roundoff once its amplified ratio drops below
    machine precision) and stops early once the span stalls: a change
    ``k - ||Q_old^T Q_new||_F^2`` below ``_SPAN_STALL_TOL`` three steps in
    a row.  That change cannot fall below one ulp of k except by rounding
    to zero, so a block with rank(B) < k < n, or one stuck one ulp above
    zero, runs all q steps (ROADMAP item 2).  An all-zero block comes
    back as zeros without reaching the QR.

    ``p`` may also be a ``(C, d, k)`` stack of starting blocks; the result
    is then the stack of the blocks refined one by one.  Each step makes
    one stacked QR over the blocks still live, each block keeps its own
    stall count, and a block that stalls leaves the stack.  A single
    block (C = 1) takes the per-block loop, which costs less per step.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    z = b @ p
    if q == 0:
        return z
    if z.ndim == 2:
        return z if np.abs(z).max() == 0.0 else _refine_block(b, z, q)
    if len(z) == 1:
        return z if np.abs(z).max() == 0.0 else _refine_block(b, z[0], q)[None]

    n, k = z.shape[1:]
    k = min(n, k)  # the columns of a reduced QR
    out = np.zeros((len(z), n, k))
    live = np.flatnonzero(np.abs(z).max(axis=(1, 2)) != 0.0)
    if live.size == 0:
        return out
    qmat, _ = np.linalg.qr(z[live])
    stalled = np.zeros(live.size, dtype=np.int64)
    for _ in range(q):
        qnew, _ = np.linalg.qr(b @ (b.T @ qmat))
        overlap = (qmat.swapaxes(-1, -2) @ qnew).reshape(live.size, 1, k * k)
        # one dot product per block, the sum fro_sq takes in _refine_block,
        # so every block stops at the same step as it does there
        change = k - (overlap @ overlap.swapaxes(-1, -2))[:, 0, 0]
        qmat = qnew
        stalled = np.where(change < _SPAN_STALL_TOL, stalled + 1, 0)
        done = stalled >= 3
        if done.any():
            out[live[done]] = qmat[done]
            live, qmat, stalled = live[~done], qmat[~done], stalled[~done]
            if live.size == 0:
                break
    out[live] = qmat
    return out


def _refine_block(b: np.ndarray, z: np.ndarray, q: int) -> np.ndarray:
    """:func:`power_refine` on one nonzero block ``z = B @ P``."""
    qmat, _ = np.linalg.qr(z)
    stalled = 0
    for _ in range(q):
        qnew, _ = np.linalg.qr(b @ (b.T @ qmat))
        change = qmat.shape[1] - fro_sq(qmat.T @ qnew)
        qmat = qnew
        stalled = stalled + 1 if change < _SPAN_STALL_TOL else 0
        if stalled >= 3:
            break
    return qmat


def proxy_loss(sketch, a: np.ndarray, k: int, cfg: ProxyConfig) -> float:
    """Arithmetic-only over-estimate of the sketch-and-solve loss.

    Pipeline: project ``a`` onto the row space of ``SA``; refine every
    candidate starting block; keep the refined block whose column space
    captures ``B`` best; report the residual against ``a``.  The result
    exceeds the true loss by at most ``cfg.epsilon`` (and is never below
    it) when the candidate enumeration is exhaustive.
    """
    sa = _dense(sketch) @ a
    b = a @ rowspace_projector(sa)
    q = q_iterations(cfg.epsilon, a.shape[1], cfg.q_constant)

    best_loss = math.inf
    best_proj = None
    for z in power_refine(b, candidate_bases(b, k, cfg), q):
        proj = rowspace_projector(z.T)
        loss = fro_sq(b - proj @ b)
        if loss < best_loss:
            best_loss = loss
            best_proj = proj
    return fro_sq(a - best_proj @ b)
