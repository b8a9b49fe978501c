"""Shattered instance families and empirical shattering verification.

Each family pairs a set of normalized matrices with a builder rule that
maps any subset of the family to a sparse sketch achieving zero loss
exactly on that subset and a loss bounded away from zero off it.  The
verifier walks subsets, rebuilds the sketches, and checks the margin
condition around per-matrix thresholds.
"""

from dataclasses import dataclass

import numpy as np

from .sketching import SparseSketch, sketch_loss


@dataclass
class ShatterFamily:
    """An indexed family of unit-norm matrices with its sketch builder.

    ``params`` is ``(n, k, s)``; ``thresholds`` holds one decision level
    per matrix (half the measured loss gap); ``labels`` carries the
    structured index of each matrix.
    """

    matrices: list
    thresholds: np.ndarray
    labels: list
    builder: str
    params: tuple


def indicator_sketch(indices, n: int) -> np.ndarray:
    """Length-``n`` 0/1 vector with ones at the given indices."""
    w = np.zeros(n)
    for i in indices:
        if not (0 <= i < n):
            raise ValueError(f"index {i} out of range [0, {n})")
        w[i] = 1.0
    return w


def _probe_thresholds(family: ShatterFamily) -> None:
    """Set thresholds to half the smallest loss under the empty-subset
    sketch (every family member is then outside the sketched subset)."""
    k = family.params[1]
    probe = subset_sketch(family, ())
    losses = [sketch_loss(probe, a, k) for a in family.matrices]
    family.thresholds = np.full(len(family.matrices), min(losses) / 2.0)


def rank1_family(n: int, d: int) -> ShatterFamily:
    """Family of ``n`` rank-1 matrices, member ``i`` having a single unit
    entry at row i, column 0.  Indicator sketching vectors shatter it with
    losses exactly 0 and 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    matrices = []
    for i in range(n):
        a = np.zeros((n, d))
        a[i, 0] = 1.0
        matrices.append(a)
    family = ShatterFamily(matrices, np.zeros(n), list(range(n)),
                           "rank1-indicator", (n, 1, 1))
    _probe_thresholds(family)
    return family


def dense_family(n: int, k: int, d: int | None = None) -> ShatterFamily:
    """Family of ``k (n - k)`` rank-k matrices with all singular values
    equal (1/sqrt(k) after normalization).

    Member ``(i, t)`` is the n-by-k matrix with columns ``e_0 .. e_{k-1}``
    except that column ``i`` is replaced by ``e_t`` (k <= t < n).  Columns
    are zero-padded to ``d`` when given.
    """
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    width = k if d is None else d
    if width < k:
        raise ValueError(f"d must be >= k, got d={width}, k={k}")
    base = np.zeros((n, k))
    base[np.arange(k), np.arange(k)] = 1.0
    matrices, labels = [], []
    for i in range(k):
        for t in range(k, n):
            a = base.copy()
            a[:, i] = 0.0
            a[t, i] = 1.0
            padded = np.zeros((n, width))
            padded[:, :k] = a / np.sqrt(k)
            matrices.append(padded)
            labels.append((i, t))
    family = ShatterFamily(matrices, np.zeros(len(matrices)), labels,
                           "dense-subset", (n, k, k))
    _probe_thresholds(family)
    return family


def block_family(n: int, k: int, s: int) -> ShatterFamily:
    """Block-diagonal variant with per-column sketch sparsity ``s``.

    The matrix splits into ``k/s`` diagonal blocks of shape
    ``(n s / k, s)``; every block carries the dense base pattern and one
    "critical" block carries a dense-family member.  Family size is
    ``(n - k) s``.  Requires ``s | k`` and ``k | n s``.
    """
    if not (1 <= s <= k < n):
        raise ValueError(f"need 1 <= s <= k < n, got s={s}, k={k}, n={n}")
    if k % s != 0 or (n * s) % k != 0:
        raise ValueError(
            f"divisibility violated: need s | k and k | n*s, got n={n}, "
            f"k={k}, s={s}"
        )
    n_blocks = k // s
    rows_per = n * s // k
    if rows_per <= s:
        raise ValueError(f"blocks of shape ({rows_per}, {s}) leave no swap rows")

    block_base = np.zeros((rows_per, s))
    block_base[np.arange(s), np.arange(s)] = 1.0
    full_base = np.zeros((n, k))
    for b in range(n_blocks):
        full_base[b * rows_per:(b + 1) * rows_per, b * s:(b + 1) * s] = block_base

    matrices, labels = [], []
    for b in range(n_blocks):
        for i in range(s):
            for t in range(s, rows_per):
                a = full_base.copy()
                col = b * s + i
                a[:, col] = 0.0
                a[b * rows_per + t, col] = 1.0
                matrices.append(a / np.sqrt(k))
                labels.append((b, i, t))
    family = ShatterFamily(matrices, np.zeros(len(matrices)), labels,
                           "block-subset", (n, k, s))
    _probe_thresholds(family)
    return family


def subset_sketch(family: ShatterFamily, subset) -> SparseSketch:
    """Sketch realizing the given subset of family positions: loss is zero
    exactly on members of the subset and bounded below off it."""
    n, k, s = family.params
    positions = set(subset)
    for p in positions:
        if not (0 <= p < len(family.matrices)):
            raise ValueError(f"family position {p} out of range")
    chosen = {family.labels[p] for p in positions}

    if family.builder == "rank1-indicator":
        pattern = np.zeros((n, 1), dtype=np.int64)
        values = indicator_sketch(chosen, n).reshape(n, 1)
        return SparseSketch(1, n, 1, pattern, values)

    if family.builder == "dense-subset":
        pattern = np.tile(np.arange(k, dtype=np.int64), (n, 1))
        values = np.zeros((n, k))
        for j in range(k):
            values[j, j] = 1.0
        for (i, t) in chosen:
            values[t, i] = 1.0
        return SparseSketch(k, n, k, pattern, values)

    if family.builder == "block-subset":
        rows_per = n * s // k
        pattern = np.zeros((n, s), dtype=np.int64)
        values = np.zeros((n, s))
        for j in range(n):
            b = j // rows_per
            pattern[j] = np.arange(b * s, (b + 1) * s)
            local = j % rows_per
            if local < s:
                values[j, local] = 1.0
        for (b, i, t) in chosen:
            values[b * rows_per + t, i] = 1.0
        return SparseSketch(k, n, s, pattern, values)

    raise ValueError(f"unknown builder {family.builder!r}")


def verify_shattering(family: ShatterFamily, loss_fn=None,
                      subset_budget: int = 256, gamma: float = 0.1,
                      seed: int = 0) -> dict:
    """Check the margin condition over subsets of the family.

    For each tested subset ``I`` the sketch is built on the complement, so
    members of ``I`` must incur loss above ``r_i + gamma`` and the rest
    loss below ``r_i - gamma``.  All ``2^N`` subsets are enumerated when
    the family has at most 14 members; otherwise ``subset_budget`` random
    subsets are drawn from the given seed.

    Returns a JSON-ready report with per-family margins, including the
    smallest observed off-sketch loss compared against the ``1/k`` and
    ``1/sqrt(k)`` reference levels.
    """
    n_members = len(family.matrices)
    k = family.params[1]
    if loss_fn is None:
        def loss_fn(sk, a):
            return sketch_loss(sk, a, k)

    if n_members <= 14:
        masks = range(2 ** n_members)
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
            loss = loss_fn(sk, family.matrices[i])
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
        "hit_loss_max": float(hit_loss_max) if checked else None,
        "miss_loss_min": float(miss_loss_min) if np.isfinite(miss_loss_min) else None,
        "one_over_k": 1.0 / k,
        "one_over_sqrt_k": 1.0 / np.sqrt(k),
    }
