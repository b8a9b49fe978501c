import itertools
import json

import numpy as np
import pytest

from sketchlab.linalg import fro_sq, svd
from sketchlab.shatter import (
    block_family,
    dense_family,
    rank1_family,
    subset_sketch,
    verify_shattering,
)
from sketchlab.sketching import sketch_loss


def test_rank1_family_structure():
    fam = rank1_family(5, 3)
    assert len(fam.matrices) == 5
    for a in fam.matrices:
        assert abs(fro_sq(a) - 1.0) <= 1e-9
        assert svd(a).singular_values.size == 1
    np.testing.assert_allclose(fam.thresholds, 0.5)


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


def test_dense_family_column_padding():
    fam = dense_family(4, 2, d=5)
    assert fam.matrices[0].shape == (4, 5)
    assert np.abs(fam.matrices[0][:, 2:]).max() == 0.0


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


def test_verify_shattering_rejects_an_empty_sampling_budget():
    # 16 members are sampled, not enumerated: no subset checked is no pass
    fam = rank1_family(16, 2)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="subset_budget must be >= 1"):
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
