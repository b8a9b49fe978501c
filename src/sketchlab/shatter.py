"""Shattered instance families and empirical shattering verification.

Each family stores the gadget behind the lower bound as data: a base
sketch (the sketch of the empty subset) and one switch slot per member.
Setting a member's slot to 1 drives that member's loss to zero; members
whose slots stay at their base value keep a loss bounded away from zero.
The verifier walks subsets, switches their slots on, and checks the margin
condition around per-matrix thresholds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .sketching import SparseSketch, sketch_loss


@dataclass
class ShatterFamily:
    """An indexed family of unit-norm matrices with its witnessing gadget.

    ``base`` is the sketch of the empty subset and its row count ``base.m``
    is the target rank.  Member ``i`` is switched on by setting
    ``base.values[slots[i, 0], slots[i, 1]] = 1``.  ``thresholds`` holds one
    decision level per matrix: half the smallest loss under ``base``.
    """

    matrices: list
    base: SparseSketch
    slots: np.ndarray
    builder: str
    thresholds: np.ndarray = field(init=False)

    def __post_init__(self):
        self.slots = np.asarray(self.slots, dtype=np.int64).reshape(-1, 2)
        losses = [sketch_loss(self.base, a, self.base.m) for a in self.matrices]
        self.thresholds = np.full(len(self.matrices), min(losses) / 2.0)


def _family(base: SparseSketch, slots, width: int, builder: str) -> ShatterFamily:
    """Member ``(j, t)`` is ``base.dense().T`` with column ``base.pattern[j, t]``
    replaced by the unit vector ``e_j``, scaled to unit norm and zero-padded
    to ``width`` columns; switching slot ``(j, t)`` on drives its loss to
    zero."""
    k = base.m
    base_t = base.dense().T
    matrices = []
    for j, t in slots:
        a = np.zeros((base.n, width))
        a[:, :k] = base_t
        col = base.pattern[j, t]
        a[:, col] = 0.0
        a[j, col] = 1.0
        matrices.append(a / np.sqrt(k))
    return ShatterFamily(matrices, base, slots, builder)


def rank1_family(n: int, d: int) -> ShatterFamily:
    """Family of ``n`` rank-1 matrices, member ``i`` having a single unit
    entry at row i, column 0.  The base sketch is the zero row vector and
    member ``i``'s slot is its entry ``i``: indicator sketching vectors
    shatter the family with losses exactly 0 and 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    base = SparseSketch(1, n, 1, np.zeros((n, 1)), np.zeros((n, 1)))
    return _family(base, [(i, 0) for i in range(n)], d, "rank1-indicator")


def _block_gadget(n: int, k: int, s: int):
    """Base sketch and slots of the block family (see :func:`block_family`)."""
    if not (1 <= s <= k < n):
        raise ValueError(f"need 1 <= s <= k < n, got s={s}, k={k}, n={n}")
    if k % s != 0 or (n * s) % k != 0:
        raise ValueError(
            f"divisibility violated: need s | k and k | n*s, got n={n}, "
            f"k={k}, s={s}"
        )
    rows_per = n * s // k
    if rows_per <= s:
        raise ValueError(f"blocks of shape ({rows_per}, {s}) leave no swap rows")
    rows = np.arange(n)
    pattern = (rows // rows_per)[:, None] * s + np.arange(s)
    values = ((rows % rows_per)[:, None] == np.arange(s)).astype(np.float64)
    slots = [(b * rows_per + t, i) for b in range(k // s) for i in range(s)
             for t in range(s, rows_per)]
    return SparseSketch(k, n, s, pattern, values), slots


def dense_family(n: int, k: int, d: int | None = None) -> ShatterFamily:
    """Family of ``k (n - k)`` rank-k matrices with all singular values
    equal (1/sqrt(k) after normalization): :func:`block_family` with
    ``s = k``, columns zero-padded to ``d`` when given.

    Member ``(i, t)`` is the n-by-k matrix with columns ``e_0 .. e_{k-1}``
    except that column ``i`` is replaced by ``e_t`` (k <= t < n).
    """
    base, slots = _block_gadget(n, k, k)
    width = k if d is None else d
    if width < k:
        raise ValueError(f"d must be >= k, got d={width}, k={k}")
    return _family(base, slots, width, "dense-subset")


def block_family(n: int, k: int, s: int) -> ShatterFamily:
    """Block-diagonal variant with per-column sketch sparsity ``s``.

    The matrix splits into ``k/s`` diagonal blocks of shape
    ``(n s / k, s)``; every block carries the dense base pattern and one
    "critical" block carries a dense-family member.  Family size is
    ``(n - k) s``.  Requires ``s | k`` and ``k | n s``.
    """
    return _family(*_block_gadget(n, k, s), k, "block-subset")


def subset_sketch(family: ShatterFamily, subset) -> SparseSketch:
    """The base sketch with the slots of the given family positions set to
    1: loss is zero exactly on members of the subset and bounded below off
    it."""
    positions = list(subset)
    for p in positions:
        if not 0 <= p < len(family.slots):
            raise ValueError(f"family position {p} out of range")
    values = family.base.values.copy()
    rows, cols = family.slots[positions].T
    values[rows, cols] = 1.0
    return family.base.with_values(values)


def verify_shattering(family: ShatterFamily, subset_budget: int = 256,
                      gamma: float = 0.1, seed: int = 0) -> dict:
    """Check the margin condition over subsets of the family.

    For each tested subset ``I`` the sketch is built on the complement, so
    members of ``I`` must incur loss above ``r_i + gamma`` and the rest
    loss below ``r_i - gamma``.  All ``2^N`` subsets are enumerated when
    the family has at most 14 members; otherwise ``subset_budget`` (at
    least 1) random subsets are drawn from the given seed.

    Returns a JSON-ready report with per-family margins, including the
    smallest observed off-sketch loss compared against the ``1/k`` and
    ``1/sqrt(k)`` reference levels.  ``hit_loss_max`` is None when every
    checked subset holds all members, ``miss_loss_min`` when every one is
    empty.
    """
    n_members = len(family.matrices)
    k = family.base.m

    if n_members <= 14:
        masks = range(2 ** n_members)
    elif subset_budget < 1:
        raise ValueError(
            f"subset_budget must be >= 1 to sample subsets of {n_members} "
            f"members, got {subset_budget}"
        )
    else:
        rng = np.random.default_rng(seed)
        masks = [
            int.from_bytes(rng.bytes((n_members + 7) // 8), "little")
            % (2 ** n_members)
            for _ in range(subset_budget)
        ]

    all_pass = True
    min_margin = np.inf
    miss_loss_min = np.inf
    hit_loss_max = -np.inf
    checked = 0
    for mask in masks:
        complement = [i for i in range(n_members) if not mask >> i & 1]
        sk = subset_sketch(family, complement)
        checked += 1
        for i in range(n_members):
            loss = sketch_loss(sk, family.matrices[i], k)
            r = family.thresholds[i]
            if mask >> i & 1:
                margin = loss - (r + gamma)
                miss_loss_min = min(miss_loss_min, loss)
            else:
                margin = (r - gamma) - loss
                hit_loss_max = max(hit_loss_max, loss)
            min_margin = min(min_margin, margin)
            if margin <= 0:
                all_pass = False

    return {
        "family": family.builder,
        "N": n_members,
        "subsets_checked": checked,
        "gamma": gamma,
        "min_margin": float(min_margin),
        "all_pass": bool(all_pass),
        "hit_loss_max": float(hit_loss_max) if np.isfinite(hit_loss_max) else None,
        "miss_loss_min": float(miss_loss_min) if np.isfinite(miss_loss_min) else None,
        "one_over_k": 1.0 / k,
        "one_over_sqrt_k": 1.0 / math.sqrt(k),
    }
