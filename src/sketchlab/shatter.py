"""Shattered instance families and empirical shattering verification.

Each family stores the gadget behind the lower bound as data: a base
sketch (the sketch of the empty subset) and one switch slot per member.
Setting a member's slot to 1 drives that member's loss to zero; members
whose slots stay at their base value keep a loss bounded away from zero.
The verifier walks subsets, switches their slots on in value space, as
:func:`subset_sketch` does, scatters the settings through the base
sketch's slot layout, and checks the margin condition around per-matrix
thresholds.  Since ``SA = sum_j S[:, j] A[j, :]``, a member's loss reads
only its local slots, those in the sketch columns where its matrix has a
nonzero row; the verifier computes one loss per member and distinct
setting of those slots, and every subset with that setting shares it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_int, _check_positive, _check_type, _own
from .sketching import SparseSketch, _check_loss_args, _loss, sketch_loss

# the elements of the sketch and member stacks (pairs per call times
# m n + n d) that one loss call of verify_shattering may hold; its
# A V and residual stacks grow with it (at most 8 MB each at the cap)
_STACK_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class ShatterFamily:
    """An indexed family of unit-norm matrices with its witnessing gadget.

    ``matrices`` is the (N, n, d) float64 stack of the N members.  ``base``
    is the sketch of the empty subset and its row count ``base.m`` is the
    target rank.  Member ``i`` is switched on by setting slot ``slots[i]``
    to 1, as :func:`subset_sketch` does.  ``thresholds`` holds one decision
    level per matrix: half the smallest loss under ``base``.
    """

    matrices: np.ndarray
    base: SparseSketch
    slots: np.ndarray
    builder: str
    thresholds: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_type("base", self.base, SparseSketch)
        # copies: a caller's later writes to its arrays must not reach the family
        matrices = np.array(self.matrices, dtype=np.float64)
        half = sketch_loss(self.base, matrices, self.base.m).min() / 2.0
        _own(self, matrices=matrices, thresholds=np.full(len(matrices), half),
             slots=np.array(self.slots, dtype=np.int64).reshape(-1, 2))


def _family(base: SparseSketch, slots, width: int, builder: str) -> ShatterFamily:
    """Member ``(j, t)`` is ``base.dense().T`` with column ``base.pattern[j, t]``
    replaced by the unit vector ``e_j``, scaled to unit norm and zero-padded
    to ``width`` columns; switching slot ``(j, t)`` on drives its loss to
    zero.  The members are built as one stack."""
    k = base.m
    j, t = np.asarray(slots, dtype=np.int64).reshape(-1, 2).T
    members, cols = np.arange(j.size), base.pattern[j, t]
    a = np.zeros((j.size, base.n, width))
    a[:, :, :k] = base.dense().T
    a[members, :, cols] = 0.0
    a[members, j, cols] = 1.0
    return ShatterFamily(a / np.sqrt(k), base, slots, builder)


def rank1_family(n: int, d: int) -> ShatterFamily:
    """Family of ``n`` rank-1 matrices, member ``i`` having a single unit
    entry at row i, column 0.  The base sketch is the zero row vector and
    member ``i``'s slot is its entry ``i``: indicator sketching vectors
    shatter the family with losses exactly 0 and 1."""
    _check_int("n", n, 1)
    _check_int("d", d, 1)
    base = SparseSketch(1, n, 1, np.zeros((n, 1)), np.zeros((n, 1)))
    return _family(base, [(i, 0) for i in range(n)], d, "rank1-indicator")


def _block_gadget(n: int, k: int, s: int):
    """Base sketch and slots of the block family (see :func:`block_family`)."""
    for name, count in (("n", n), ("k", k), ("s", s)):
        _check_int(name, count)
    if not (1 <= s <= k < n):
        raise ValueError(f"need 1 <= s <= k < n, got s={s}, k={k}, n={n}")
    if k % s != 0 or (n * s) % k != 0:
        raise ValueError(
            f"divisibility violated: need s | k and k | n*s, got n={n}, "
            f"k={k}, s={s}"
        )
    rows_per = n * s // k  # > s, since k < n
    rows = np.arange(n)
    pattern = (rows // rows_per)[:, None] * s + np.arange(s)
    values = ((rows % rows_per)[:, None] == np.arange(s)).astype(np.float64)
    slots = [(b * rows_per + t, i) for b in range(k // s) for i in range(s)
             for t in range(s, rows_per)]
    return SparseSketch(k, n, s, pattern, values), slots


def dense_family(n: int, k: int) -> ShatterFamily:
    """Family of ``k (n - k)`` rank-k matrices with all singular values
    equal (1/sqrt(k) after normalization): :func:`block_family` with
    ``s = k``.

    Member ``(i, t)`` is the n-by-k matrix with columns ``e_0 .. e_{k-1}``
    except that column ``i`` is replaced by ``e_t`` (k <= t < n).
    """
    return _family(*_block_gadget(n, k, k), k, "dense-subset")


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
    _check_type("family", family, ShatterFamily)
    positions = list(subset)
    for p in positions:
        _check_int("family position", p)
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
    least 1) random subsets are drawn from the given seed.  The sketches
    of all S checked subsets are held at once, as one (S, m, n) stack.

    Member ``i``'s loss reads only its local slots, the switch slots in
    the sketch columns where ``family.matrices[i]`` has a nonzero row,
    read off the data, so hand-built families are served too.  The
    (subset, member) pairs are grouped by the member and the setting of
    its local slots, and each group's loss comes from its first subset:
    a rank1 member takes at most 2 losses, a block one ``2^s`` and a
    dense one ``2^k``, while a member that touches every slot takes one
    per subset, as a loss per pair would.  Checked once, the groups' pairs
    go to the unchecked loss kernel as paired sketch and member stacks in
    chunks of at most ``_STACK_ELEMENTS`` elements (one pair when a pair
    alone holds more); a small family takes a single call.

    Returns a JSON-ready report with per-family margins, including the
    smallest observed off-sketch loss compared against the ``1/k`` and
    ``1/sqrt(k)`` reference levels.  ``hit_loss_max`` is None when every
    checked subset holds all members, ``miss_loss_min`` when every one is
    empty.
    """
    _check_type("family", family, ShatterFamily)
    _check_positive("gamma", gamma)
    _check_int("subset_budget", subset_budget, 1)
    _check_int("seed", seed, 0)
    base, k = family.base, family.base.m
    _check_loss_args(base, family.matrices, k)  # once; the chunks run unchecked
    n_members = len(family.matrices)

    # row s, column i: member i is in subset s, bit i of the subset's mask
    if n_members <= 14:
        inside = (np.arange(2 ** n_members)[:, None] >> np.arange(n_members)) & 1
    else:
        # the bytes of one rng.bytes call per subset, drawn in one call;
        # unpacking to n_members bits drops the high bits of the last
        # byte, so no mask passes through int64
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2 ** 32, size=(subset_budget, -(-n_members // 32)),
                             dtype=np.uint32)
        inside = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8),
                               axis=1, count=n_members, bitorder="little")
    inside = inside.astype(bool)
    checked = len(inside)
    # every subset's sketch is built on its complement: switch those slots
    # on in value space, as subset_sketch does, then scatter the stack
    values = np.repeat(base.values[None], checked, axis=0)
    subset, member = np.nonzero(~inside)
    j, t = family.slots[member].T
    values[subset, j, t] = 1.0
    sketches = base._scatter(values, np.zeros((checked, base.m, base.n)))
    # local[i, r]: slot r lies in a sketch column where member i has a
    # nonzero row.  Row i of pos lists member i's local slots first (on
    # marks them).  Key each (subset, member) pair by the member and its
    # local setting, fed in 31 bits at a time and ranked after each step
    # so the key stays within int64; a key's first pair stands for it.
    local = (family.matrices != 0).any(axis=2)[:, family.slots[:, 0]]
    pos = np.argsort(~local, axis=1, kind="stable")[:, :local.sum(axis=1).max()]
    on = np.take_along_axis(local, pos, axis=1)
    key = np.arange(n_members)
    for c in range(0, max(pos.shape[1], 1), 31):
        bits = inside[:, pos[:, c:c + 31]] & on[:, c:c + 31]
        code = key * 2 ** 31 + (bits << np.arange(bits.shape[2])).sum(axis=2)
        _, first, key = np.unique(code, return_index=True, return_inverse=True)
        key = key.reshape(code.shape)
    pair_subset, pair_member = np.divmod(first, n_members)
    # each chunk of (subset, member) pairs in one call: a loss per pair
    step = max(1, _STACK_ELEMENTS // (sketches[0].size + family.matrices[0].size))
    losses = np.concatenate([
        _loss(sketches[pair_subset[c:c + step]],
              family.matrices[pair_member[c:c + step]], k)
        for c in range(0, len(first), step)])[key]

    r = family.thresholds
    margins = np.where(inside, losses - (r + gamma), (r - gamma) - losses)
    return {
        "family": family.builder,
        "N": n_members,
        "subsets_checked": checked,
        "gamma": gamma,
        "min_margin": float(margins.min()),
        "all_pass": bool((margins > 0).all()),
        "hit_loss_max": float(losses[~inside].max()) if subset.size else None,
        "miss_loss_min": float(losses[inside].min()) if inside.any() else None,
        "one_over_k": 1.0 / k,
        "one_over_sqrt_k": 1.0 / math.sqrt(k),
    }
