"""Deterministic proxy for the sketch-and-solve loss.

The true loss truncates ``B = A P_rowspace(SA)`` to rank k through an SVD.
The proxy replaces the SVD with arithmetic-only machinery (deterministic
standard-basis starting blocks, block power refinement, and selection of
the refined block that captures the most energy of B); it starts from the
same validated row space of SA as the true loss.  With enough refinement
steps the proxy over-estimates the true loss by at most ``epsilon`` and
never under-estimates it.

Callers ask for one instance at several ``epsilon`` in a row, and a larger
``epsilon`` only lowers the refinement cap q.  So :func:`power_refine` keeps
the state of its last run and, when it is called again with the same ``B``
and starting blocks and a q no smaller than the steps already run, resumes
that run instead of repeating it; the result is bit-identical to a fresh
run.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import (_check_array, _check_fro_sq, _check_int, _check_positive,
                     _check_type, _orthonormal, fro_sq)
from .sketching import _check_loss_args, _rowspace

DEFAULT_Q_CONSTANT = 4.0

# A refinement step counts as stalled when the captured energy
# ||B^T Q||_F^2 ends at most this share of ||B||_F^2 (a few ulps of that
# sum) above the highest energy the block reached before; three stalled
# steps in a row stop the block.  The energy never falls in exact
# arithmetic; measuring from the highest value keeps rounding dips from
# counting as progress (a converged rank-1 block can cycle through three
# rounding states whose energy rises 6.5 eps ||B||_F^2 once per cycle, and
# would never stall against the previous step alone).  Any stop keeps the
# lower side of the bracket (a rank-k projector inside col(B) never beats
# the truncated SVD); a stalled block's energy deficit is at most
# floor / (1 - rho), rho = (sigma_{k+1} / sigma_k)^2, and at most the gap
# sigma_k^2 - sigma_{k+1}^2 as rho -> 1.  q stays the cap.
_ENERGY_STALL_RTOL = 4 * np.finfo(float).eps

# The state of power_refine's last run, (key, t, out, live, qmat, energy,
# stalled), or None: its key holds the shapes, dtype and bytes of b and p,
# t the steps run, and the rest the loop's variables after step t.  It is
# only ever replaced whole.
_last_run = None


@dataclass(frozen=True)
class ProxyConfig:
    """Accuracy and enumeration knobs for the proxy loss, frozen once checked."""

    epsilon: float
    subset_cap: int = 1000
    q_constant: float = DEFAULT_Q_CONSTANT

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        _check_int("subset_cap", self.subset_cap, 1)
        q_iterations(self.epsilon, 1, self.q_constant)  # q_constant, and epsilon for it

    def exhaustive(self, d: int, k: int) -> bool:
        """Whether all C(d, k) candidate subsets fit under ``subset_cap``;
        if not, one greedy block stands in, within a factor 1 + d only."""
        return math.comb(d, k) <= self.subset_cap


def q_iterations(epsilon: float, d: int, q_constant: float = DEFAULT_Q_CONSTANT) -> int:
    """Number of power-refinement steps: ceil(c/eps * ln(max(d,2)/eps)),
    at least 1; an ``epsilon`` for which that overflows is refused."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    _check_int("d", d, 1)
    _check_positive("q_constant", q_constant)
    q = float(q_constant) / float(epsilon) * math.log(max(d, 2) / float(epsilon))
    if q == math.inf:  # in Python floats: numpy scalars would warn on overflow
        raise ValueError(f"epsilon must give a finite step count, got {epsilon} "
                         f"with q_constant={q_constant}, d={d}")
    return max(math.ceil(q), 1)


def greedy_pivot_columns(v_rows: np.ndarray) -> np.ndarray:
    """Pick ``k`` standard-basis columns by greedy residual projection.

    ``v_rows`` must be a k-by-d matrix with orthonormal rows, k < d.  At
    step i the column of largest residual norm is selected, then all
    columns are re-projected against the span of the selected originals.
    The selection matrix ``P`` (d-by-k, distinct standard-basis columns)
    satisfies ``sigma_min(v_rows @ P) >= 1/sqrt(d)``.
    """
    _check_array("v_rows", v_rows, (None, None))
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
    ``cfg.subset_cap``, all C(d, k) of them are returned (at k = d, the
    identity alone; C(d, d) = 1 fits every cap).  Otherwise a
    single block (C = 1) is chosen greedily from the top-k right singular
    rows of ``b``; it still keeps the refined loss within a factor 1 + d of
    optimal.
    """
    _check_array("b", b, (None, None))
    d = b.shape[1]
    _check_int("k", k)
    if not (1 <= k <= d):
        raise ValueError(f"k must satisfy 1 <= k <= d, got k={k}, d={d}")
    if cfg.exhaustive(d, k):
        return np.eye(d)[:, list(combinations(range(d), k))].transpose(1, 0, 2)
    _, _, vh = np.linalg.svd(b, full_matrices=False)
    return greedy_pivot_columns(vh[:k])[None]


def power_refine(b: np.ndarray, p: np.ndarray, q: int) -> np.ndarray:
    """Refine each block of the ``(C, d, k)`` stack ``p`` by up to ``q >= 1``
    steps of ``Z <- (B B^T) Z`` from ``Z = B @ P``.

    Block c of the result spans the column space of ``(B B^T)^t B P_c``,
    t <= q.  The iteration runs with per-step orthonormalization (raw
    products lose every subdominant direction to roundoff once its
    amplified ratio drops below machine precision) and stops a block early
    once its captured energy ``||B^T Q||_F^2`` stalls: three steps in a row
    that end at most ``_ENERGY_STALL_RTOL * ||B||_F^2`` above the highest
    energy the block reached before.  The energy comes from the ``B^T Q``
    product the next step needs anyway, and the stall is tested before that
    step's orthonormalization.  Each step takes the Q of one stacked reduced
    QR over the blocks still live (``linalg._orthonormal``: the LAPACK calls
    of ``np.linalg.qr`` without forming R, bit for bit its Q), and a block
    that stalls leaves the stack.  An all-zero block comes back as zeros
    without reaching the QR.  So every returned block either has
    orthonormal columns (``Q^T Q = I``, ``min(n, k)`` of them for an n-row
    ``B``) or is all zero, and ``Q Q^T`` is its projector.

    The run is deterministic, so a run to a smaller q is a prefix of a run
    to a larger one.  A call with the same ``b`` and ``p`` (equal shapes,
    dtype and bytes) as the call just before it, and a ``q`` at least the
    steps that call ran, resumes from that call's state instead of starting
    again; its result is bit for bit that of a fresh run.  Any other call
    starts fresh.
    """
    _check_array("b", b, (None, None))
    _check_array("p", p, (None, b.shape[1], None))
    _check_int("q", q, 1)

    global _last_run
    b = np.asarray(b, dtype=np.float64)  # _orthonormal takes float64 only
    floor = _ENERGY_STALL_RTOL * _check_fro_sq("b", b)
    key = (b.shape, b.tobytes(), p.shape, p.dtype.str, p.tobytes())
    run = _last_run  # read once: another thread may replace it
    if run is not None and run[0] == key and q >= run[1]:
        _, t, out, live, qmat, energy, stalled = run
        out = out.copy()
    else:
        t = 0
        z = b @ p
        n, k = z.shape[1:]
        out = np.zeros((len(z), n, min(n, k)))  # the columns of a reduced QR
        live = np.flatnonzero(np.abs(z).max(axis=(1, 2), initial=0.0) != 0.0)
        qmat = _orthonormal(z[live]) if live.size else None  # a fresh copy
        energy = np.full(live.size, -np.inf)
        stalled = np.zeros(live.size, dtype=np.int64)
    while live.size and t < q:
        btq = b.T @ qmat
        e = fro_sq(btq)  # ||B^T Q||_F^2 per block
        stalled = np.where(e - energy <= floor, stalled + 1, 0)
        energy = np.maximum(energy, e)
        done = stalled >= 3
        if done.any():
            out[live[done]] = qmat[done]
            keep = ~done
            live, qmat, btq = live[keep], qmat[keep], btq[keep]
            energy, stalled = energy[keep], stalled[keep]
        t += 1
        if live.size:
            qmat = _orthonormal(b @ btq)
    # no stored array is ever written to: each step makes new ones
    _last_run = (key, t, out.copy(), live, qmat, energy, stalled)
    if live.size:
        out[live] = qmat
    return out


def proxy_loss(sketch, a: np.ndarray, k: int, cfg: ProxyConfig) -> float:
    """Arithmetic-only over-estimate of the sketch-and-solve loss.

    Pipeline: project ``a`` onto the row space of ``SA``, validated as for
    :func:`.sketching.sketch_loss`; refine every candidate starting block;
    keep the refined block ``Q`` that captures the most energy
    ``||B^T Q||_F^2`` (it is orthonormal or zero, so this is the least
    residual ``||B - Q Q^T B||_F^2``); report the residual against ``a``.
    The result exceeds the true loss by at most ``cfg.epsilon`` (and is
    never below it) when the candidate enumeration is exhaustive.
    """
    _check_type("cfg", cfg, ProxyConfig)
    v = _rowspace(_check_loss_args(sketch, a, k, (None, None)), a).V
    b = a @ (v @ v.T)
    q = q_iterations(cfg.epsilon, a.shape[1], cfg.q_constant)
    qs = power_refine(b, candidate_bases(b, k, cfg), q)
    best = qs[np.argmax(np.square(b.T @ qs).sum(axis=(1, 2)))]
    return fro_sq(a - best @ (best.T @ b))
