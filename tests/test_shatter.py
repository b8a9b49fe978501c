import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from sketchlab import shatter
from sketchlab.cli import run_experiment
from sketchlab.linalg import fro_sq, svd
from sketchlab.shatter import (
    ShatterFamily,
    block_family,
    dense_family,
    rank1_family,
    subset_sketch,
    verify_shattering,
)
from sketchlab.sketching import SparseSketch, _loss, sketch_loss

from oracles import family_members_loop, verify_shattering_loop


@pytest.mark.parametrize("build, args, width", [
    (rank1_family, (5, 3), 3),
    (dense_family, (6, 2), 2),
    (dense_family, (7, 5), 5),
    (block_family, (10, 2, 1), 2),
    (block_family, (12, 4, 2), 4),
])
def test_members_equal_the_loop_built_members_entry_by_entry(build, args, width):
    fam = build(*args)
    members = np.stack(family_members_loop(fam.base, fam.slots, width))
    assert isinstance(fam.matrices, np.ndarray)
    assert fam.matrices.dtype == np.float64
    assert fam.matrices.shape == (len(fam.slots), fam.base.n, width)
    assert np.array_equal(fam.matrices, members)
    base_losses = [sketch_loss(fam.base, a, fam.base.m) for a in members]
    assert np.array_equal(fam.thresholds,
                          np.full(len(members), min(base_losses) / 2.0))


def test_rank1_family_structure():
    fam = rank1_family(5, 3)
    assert len(fam.matrices) == 5
    for a in fam.matrices:
        assert abs(fro_sq(a) - 1.0) <= 1e-9
        assert svd(a).singular_values.size == 1
    np.testing.assert_allclose(fam.thresholds, 0.5)


def test_family_is_frozen_and_owns_read_only_copies():
    fam = rank1_family(6, 3)
    matrices, base = fam.matrices.copy(), fam.base.with_values(fam.base.values)
    own = ShatterFamily(matrices, base, fam.slots, fam.builder)
    with pytest.raises(dataclasses.FrozenInstanceError):
        own.matrices = 3 * own.matrices
    with pytest.raises(dataclasses.FrozenInstanceError):
        own.thresholds = np.full(6, 4.5)
    for name in ("matrices", "slots", "thresholds"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(own, name)[0] = 0
    # later writes into the caller's arrays and base do not reach the family
    matrices *= 3.0
    base.values[:] = 1.0
    assert own.base is not base and not own.base.values.any()
    assert np.array_equal(own.matrices, fam.matrices)
    report = verify_shattering(own, gamma=0.1)
    assert report == verify_shattering(fam, gamma=0.1) and report["all_pass"]


def test_rank1_loss_dichotomy_is_exact():
    fam = rank1_family(5, 3)
    for subset in [{0}, {1, 3}, {0, 2, 4}, set(range(5))]:
        sk = subset_sketch(fam, subset)
        for i, a in enumerate(fam.matrices):
            loss = sketch_loss(sk, a, 1)
            if i in subset:
                assert abs(loss) <= 1e-10
            else:
                assert abs(loss - 1.0) <= 1e-10


def test_dense_family_structure():
    fam = dense_family(4, 2)
    assert len(fam.matrices) == 2 * (4 - 2)
    for a in fam.matrices:
        assert abs(fro_sq(a) - 1.0) <= 1e-9
        sv = svd(a).singular_values
        np.testing.assert_allclose(sv, np.full(2, 1.0 / np.sqrt(2)), atol=1e-12)


def test_dense_family_subset_dichotomy():
    fam = dense_family(4, 2)
    n_members = len(fam.matrices)
    for bits in itertools.product([0, 1], repeat=n_members):
        subset = {i for i, b in enumerate(bits) if b}
        sk = subset_sketch(fam, subset)
        for i, a in enumerate(fam.matrices):
            loss = sketch_loss(sk, a, 2)
            if i in subset:
                assert loss <= 1e-10
            else:
                assert loss >= 0.5 - 1e-10  # 1/k for k = 2


def test_block_family_with_s_equal_k_matches_dense():
    dense = dense_family(4, 2)
    block = block_family(4, 2, 2)
    assert len(dense.matrices) == len(block.matrices)
    for a, b in zip(dense.matrices, block.matrices):
        np.testing.assert_array_equal(a, b)
    for bits in itertools.product([0, 1], repeat=len(dense.matrices)):
        subset = [i for i, bit in enumerate(bits) if bit]
        np.testing.assert_array_equal(subset_sketch(dense, subset).dense(),
                                      subset_sketch(block, subset).dense())


@pytest.mark.parametrize("fam", [rank1_family(5, 3), dense_family(5, 2),
                                 block_family(8, 2, 1)],
                         ids=lambda fam: fam.builder)
def test_subset_sketch_switches_exactly_the_subset_slots(fam):
    assert len(fam.slots) == len(fam.matrices)
    rng = np.random.default_rng(1)
    for _ in range(10):
        subset = [i for i in range(len(fam.slots)) if rng.random() < 0.5]
        sk = subset_sketch(fam, subset)
        np.testing.assert_array_equal(sk.pattern, fam.base.pattern)
        changed = {tuple(p) for p in np.argwhere(sk.values != fam.base.values)}
        assert changed == {tuple(fam.slots[i]) for i in subset}
        assert all(sk.values[tuple(fam.slots[i])] == 1.0 for i in subset)


def test_subset_sketch_rejects_out_of_range_positions():
    fam = block_family(8, 2, 1)
    for bad in ([len(fam.matrices)], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            subset_sketch(fam, bad)


def test_subset_sketch_refuses_non_integer_positions():
    fam = block_family(8, 2, 1)
    for bad in ([1.0], [True], [0, 2.5]):
        with pytest.raises(ValueError, match="^family position must be an integer"):
            subset_sketch(fam, bad)
    assert subset_sketch(fam, np.array([1, 3])).s == 1


def test_block_family_size_and_sparsity():
    fam = block_family(8, 2, 1)
    assert len(fam.matrices) == (8 - 2) * 1
    sk = subset_sketch(fam, {0, 3})
    dense = sk.dense()
    assert dense.shape == (2, 8)
    assert np.count_nonzero(dense, axis=0).max() <= 1
    assert sk.s == 1


def test_block_family_divisibility_validation():
    with pytest.raises(ValueError):
        block_family(8, 4, 3)  # s does not divide k
    with pytest.raises(ValueError):
        block_family(7, 2, 1)  # k does not divide n*s


def test_block_family_subset_dichotomy():
    fam = block_family(8, 2, 1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        subset = {i for i in range(len(fam.matrices)) if rng.random() < 0.5}
        sk = subset_sketch(fam, subset)
        for i, a in enumerate(fam.matrices):
            loss = sketch_loss(sk, a, 2)
            if i in subset:
                assert loss <= 1e-10
            else:
                assert loss >= 0.5 - 1e-10


def test_empty_and_full_subset_sketches():
    fam = dense_family(5, 2)
    empty = subset_sketch(fam, ())
    full = subset_sketch(fam, range(len(fam.matrices)))
    for a in fam.matrices:
        assert sketch_loss(empty, a, 2) > 0.4
        assert sketch_loss(full, a, 2) <= 1e-10


def test_verify_shattering_rank1_all_subsets():
    fam = rank1_family(4, 2)
    report = verify_shattering(fam, gamma=0.4)
    assert report["all_pass"]
    assert report["subsets_checked"] == 16
    assert report["min_margin"] > 0
    assert report["family"] == "rank1-indicator"


def test_verify_shattering_dense_and_block():
    dense_report = verify_shattering(dense_family(4, 2), gamma=0.2)
    assert dense_report["all_pass"]
    assert dense_report["subsets_checked"] == 16
    assert dense_report["miss_loss_min"] == pytest.approx(0.5, abs=1e-9)
    block_report = verify_shattering(block_family(8, 2, 1), gamma=0.2)
    assert block_report["all_pass"]
    assert block_report["subsets_checked"] == 64


def test_verify_shattering_reports_failure():
    fam = rank1_family(3, 2)
    report = verify_shattering(fam, gamma=0.6)  # margin wider than the gap
    assert not report["all_pass"]


@pytest.mark.parametrize("gamma", [-1.0, 0.0, np.nan, np.inf])
def test_verify_shattering_refuses_a_gamma_not_finite_and_positive(gamma):
    # a negative gamma turns the margin test inside out: every subset passes
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        verify_shattering(rank1_family(3, 2), gamma=gamma)


def test_verify_shattering_rejects_an_empty_sampling_budget():
    # 16 members are sampled, not enumerated: no subset checked is no pass
    fam = rank1_family(16, 2)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="subset_budget must be >= 1"):
            verify_shattering(fam, subset_budget=budget)
    for budget in (2.5, True):
        with pytest.raises(ValueError, match="^subset_budget must be an integer"):
            verify_shattering(fam, subset_budget=budget)
    assert verify_shattering(fam, subset_budget=1)["subsets_checked"] == 1


def test_verify_shattering_reports_none_for_an_empty_side():
    # seed 16437 draws the full subset of 15 members, seed 55834 the empty one
    fam = rank1_family(15, 2)
    full = verify_shattering(fam, subset_budget=1, gamma=0.4, seed=16437)
    assert full["hit_loss_max"] is None and full["miss_loss_min"] == 1.0
    empty = verify_shattering(fam, subset_budget=1, gamma=0.4, seed=55834)
    assert empty["miss_loss_min"] is None and empty["hit_loss_max"] <= 1e-10
    for report in (full, empty):
        assert "Infinity" not in json.dumps(report)
        assert type(report["one_over_sqrt_k"]) is float


CASES = [
    # the verify-labs families: exhaustive at 8 members, sampled at 16
    (rank1_family(8, 3), 32, 0.4, 201),
    (dense_family(6, 2), 32, 0.2, 201),
    (block_family(10, 2, 1), 32, 0.2, 201),
    (rank1_family(16, 3), 32, 0.4, 201),
    (dense_family(10, 2), 32, 0.2, 22),
    (block_family(18, 2, 1), 32, 0.2, 3),
    # masks of 70 bits do not fit an int64
    (rank1_family(70, 2), 8, 0.1, 0),
]
_case_id = lambda v: f"{v.builder}-{len(v.slots)}" if hasattr(v, "builder") else None


@pytest.mark.parametrize("fam, budget, gamma, seed", CASES, ids=_case_id)
def test_verify_shattering_equals_the_per_pair_loop(fam, budget, gamma, seed):
    report = verify_shattering(fam, budget, gamma, seed)
    want = verify_shattering_loop(fam, budget, gamma, seed)
    assert report == want
    assert json.dumps(report) == json.dumps(want)


@pytest.mark.parametrize("per_call", [1, 3])
@pytest.mark.parametrize("fam, budget, gamma, seed", CASES, ids=_case_id)
def test_chunked_verify_shattering_equals_the_per_pair_loop(monkeypatch, per_call,
                                                            fam, budget, gamma, seed):
    # a cap of per_call member stacks' elements splits the (subset, member)
    # pairs over several loss kernel calls; under the default cap, as in the
    # test below, every one of these families takes a single call
    monkeypatch.setattr(shatter, "_STACK_ELEMENTS", per_call * fam.matrices.size)
    report = verify_shattering(fam, budget, gamma, seed)
    assert report == verify_shattering_loop(fam, budget, gamma, seed)


def _counted_pairs(monkeypatch):
    """Patch the verifier's loss kernel to record the pair count of each call."""
    calls = []

    def counted(sketches, matrices, k):
        calls.append(len(sketches))
        return _loss(sketches, matrices, k)

    monkeypatch.setattr(shatter, "_loss", counted)
    return calls


# a member's loss reads only the slots of its own sketch columns: two
# settings for a rank1 or block member, four for a dense member (k = 2),
# fewer when the sampled subsets do not reach them all
@pytest.mark.parametrize("fam, budget, gamma, seed, pairs",
                         [case + (pairs,) for case, pairs
                          in zip(CASES, [16, 32, 16, 32, 64, 32, 139])],
                         ids=[f"{_case_id(f)}-{b}-{g}-{s}" for f, b, g, s in CASES])
def test_families_under_the_cap_take_one_sketch_loss_call(monkeypatch, fam, budget,
                                                        gamma, seed, pairs):
    calls = _counted_pairs(monkeypatch)
    verify_shattering(fam, budget, gamma, seed)
    assert calls == [pairs]


def test_a_family_without_locality_takes_one_pair_per_subset_and_member(monkeypatch):
    # dense Gaussian members touch all 70 switch slots, so every member's
    # local setting is 70 bits wide and every (subset, member) pair its own
    rng = np.random.default_rng(5)
    a = rng.standard_normal((70, 70, 3))
    a /= np.sqrt((a ** 2).sum(axis=(1, 2)))[:, None, None]
    base = SparseSketch(1, 70, 1, np.zeros((70, 1)), np.zeros((70, 1)))
    fam = ShatterFamily(a, base, [(j, 0) for j in range(70)], "gaussian")
    calls = _counted_pairs(monkeypatch)
    report = verify_shattering(fam, 8, 0.1, 0)
    assert calls == [8 * 70]
    want = verify_shattering_loop(fam, 8, 0.1, 0)
    assert report == want
    assert json.dumps(report) == json.dumps(want)


@pytest.mark.parametrize("fam, chunks",
                         [(rank1_family(4, 3), 1), (dense_family(30, 7), 8)],
                         ids=["one-chunk", "eight-chunks"])
def test_verify_shattering_checks_its_member_stack_once(monkeypatch, array_checks,
                                                        fam, chunks):
    # once per call, not per chunk: the chunks run on the unchecked kernel
    calls = _counted_pairs(monkeypatch)
    verify_shattering(fam, 256, 0.05, 1)
    assert len(calls) == chunks
    assert array_checks.count("matrix") == 1


def test_a_family_over_the_stack_cap_keeps_its_memory_bounded(monkeypatch):
    # 161 members of 30x7 at 256 sampled subsets: about 18,000 distinct
    # (subset, member) pairs, whose sketch and member stacks would hold
    # about 30 MB each in one call; chunked, they take several calls
    fam = dense_family(30, 7)
    calls = _counted_pairs(monkeypatch)
    tracemalloc.start()
    try:
        report = verify_shattering(fam, 256, 0.05, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["all_pass"] and report["subsets_checked"] == 256
    assert len(calls) > 1
    assert peak < 48 * 2 ** 20


def test_shatter_verify_default_equals_the_per_pair_loop():
    metrics = run_experiment("shatter-verify", {}, seed=7)["metrics"]
    assert metrics == verify_shattering_loop(rank1_family(6, 4), 256, 0.1, 7)
