import numpy as np
import pytest
from scipy import stats

from sketchlab import gjdemos
from sketchlab.linalg import fro_sq, svd
from sketchlab.sketching import (
    SparseSketch,
    random_sparse_sketch,
    rank1_closed_form_loss,
    sketch_lowrank,
    sketch_lowrank_via_projection,
    sketch_loss,
)
from sketchlab.synth import random_instance, random_unit_matrix
from sketchlab.train import TrainConfig, empirical_loss, make_dataset, sgd_train


def test_sparse_sketch_validation():
    pattern = np.array([[0], [1]])
    values = np.ones((2, 1))
    SparseSketch(2, 2, 1, pattern, values)
    with pytest.raises(ValueError):
        SparseSketch(2, 2, 1, np.array([[0], [5]]), values)
    with pytest.raises(ValueError):
        SparseSketch(2, 2, 3, pattern, values)
    with pytest.raises(ValueError):
        SparseSketch(3, 2, 2, np.array([[1, 0], [0, 1]]), np.ones((2, 2)))


@pytest.mark.parametrize("m, n, s, pattern, match", [
    (2, 2, 1, [[0.5], [1.0]], "pattern entries must be integers"),
    (2, 2, 1, [[0.0], [np.nan]], "pattern entries must be integers"),
    (2, 2, 1, np.array([[False], [True]]), "pattern entries must be integers"),
    (2.0, 2, 1, [[0], [1]], "m must be an integer, got 2.0"),
    (2, True, 1, [[0]], "n must be an integer, got True"),
    (2, 2, np.float64(1), [[0], [1]], "s must be an integer"),
])
def test_sparse_sketch_refuses_what_it_would_truncate(m, n, s, pattern, match):
    with pytest.raises(ValueError, match=match):
        SparseSketch(m, n, s, pattern, np.ones((2, 1)))


def test_sparse_sketch_keeps_its_own_copies_of_pattern_and_values():
    pattern, values = np.array([[0], [1], [2], [0]]), np.ones((4, 1))
    sk = SparseSketch(3, 4, 1, pattern, values)
    a = random_unit_matrix(np.random.default_rng(3), 4, 3)
    before = sketch_loss(sk, a, 1)
    pattern[0, 0], values[0, 0] = 5, np.nan
    assert sketch_loss(sk, a, 1) == before


def test_sparse_sketch_takes_integral_float_and_numpy_integer_fields():
    sk = SparseSketch(np.int64(2), 3, 1, np.array([[1.0], [0.0], [1.0]]),
                      np.ones((3, 1)))
    assert sk.pattern.dtype == np.int64
    np.testing.assert_array_equal(sk.pattern, [[1], [0], [1]])


def test_dense_materialization():
    sk = SparseSketch(3, 2, 2, np.array([[0, 2], [1, 2]]),
                      np.array([[1.0, -1.0], [2.0, 0.0]]))
    expected = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(sk.dense(), expected)
    assert np.count_nonzero(sk.dense()) <= sk.s * sk.n


def test_scatter_and_gather_map_stacks_of_slot_values():
    sk = random_sparse_sketch(4, 7, 3, 11)
    stack = np.random.default_rng(12).standard_normal((2, 5, 7, 3))
    dense = sk._scatter(stack, np.zeros((2, 5, 4, 7)))
    want = np.stack([[sk.with_values(v).dense() for v in row] for row in stack])
    np.testing.assert_array_equal(dense, want)
    np.testing.assert_array_equal(sk._gather(dense), stack)
    # one matrix, and an object matrix as the tracer fills it
    np.testing.assert_array_equal(sk._gather(sk.dense()), sk.values)
    out = sk._scatter(sk.values.astype(object), np.full((4, 7), 0.0, dtype=object))
    np.testing.assert_array_equal(out.astype(float), sk.dense())


def test_sampler_full_pattern_when_s_equals_m():
    sk = random_sparse_sketch(3, 5, 3, 0)
    np.testing.assert_array_equal(sk.pattern, np.tile(np.arange(3), (5, 1)))


def test_sampler_deterministic_and_pm1():
    a = random_sparse_sketch(4, 9, 2, 123)
    b = random_sparse_sketch(4, 9, 2, 123)
    np.testing.assert_array_equal(a.pattern, b.pattern)
    np.testing.assert_array_equal(a.values, b.values)
    assert set(np.unique(a.values)) <= {-1.0, 1.0}


def test_sampler_rejects_bad_ranges():
    with pytest.raises(ValueError):
        random_sparse_sketch(4, 9, 5, 0)
    with pytest.raises(ValueError):
        random_sparse_sketch(10, 9, 1, 0)


def test_sampler_row_frequency_uniform():
    counts = np.zeros(4)
    for seed in range(30):
        sk = random_sparse_sketch(4, 100, 1, seed)
        for r in range(4):
            counts[r] += np.sum(sk.pattern[:, 0] == r)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_zero_valued_sketch_returns_zero_matrix():
    rng = np.random.default_rng(0)
    a = random_unit_matrix(rng, 6, 4)
    sk = random_sparse_sketch(3, 6, 1, 1).with_values(np.zeros((6, 1)))
    np.testing.assert_array_equal(sketch_lowrank(a, 2, sk), np.zeros_like(a))
    assert sketch_loss(sk, a, 2) == fro_sq(a)


def test_perfect_recovery_of_rank_k_matrix():
    rng = np.random.default_rng(1)
    k = 2
    a = rng.standard_normal((6, k)) @ rng.standard_normal((k, 5))
    sketch_rows = rng.standard_normal((k, 6))
    assert svd(sketch_rows @ a).singular_values.size == k
    out = sketch_lowrank(a, k, sketch_rows)
    assert fro_sq(a - out) <= 1e-10


def test_output_rank_at_most_k():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, sk, k = random_instance(rng)
        out = sketch_lowrank(a, k, sk)
        assert svd(out).singular_values.size <= k


def test_direct_and_projection_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, sk, k = random_instance(rng)
        l_direct = sketch_loss(sk, a, k)
        l_proj = fro_sq(a - sketch_lowrank_via_projection(a, k, sk))
        assert abs(l_direct - l_proj) <= 1e-8


def test_projection_route_full_row_rank_no_truncation():
    # when the sketched matrix has full row rank m = k, the rank-k
    # truncation of the projected matrix is vacuous
    rng = np.random.default_rng(4)
    k = 3
    a = random_unit_matrix(rng, 7, 5)
    sketch_rows = rng.standard_normal((k, 7))
    from sketchlab.charpoly import projection_rowspace

    proj = projection_rowspace(sketch_rows @ a)
    out = sketch_lowrank_via_projection(a, k, sketch_rows)
    np.testing.assert_allclose(out, a @ proj, atol=1e-9)


def test_loss_bounds_and_definition():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, sk, k = random_instance(rng)
        loss = sketch_loss(sk, a, k)
        assert -1e-12 <= loss <= fro_sq(a) + 1e-12
        assert abs(loss - fro_sq(a - sketch_lowrank(a, k, sk))) < 1e-15


def test_loss_monotone_in_added_rows():
    rng = np.random.default_rng(6)
    for _ in range(40):
        a, sk, k = random_instance(rng)
        extra = random_sparse_sketch(2, sk.n, 1, rng)
        stacked = np.concatenate([sk.dense(), extra.dense()], axis=0)
        assert sketch_loss(stacked, a, k) <= sketch_loss(sk, a, k) + 1e-8


def test_rank1_closed_form_branches():
    rng = np.random.default_rng(7)
    # rank-1 input with a non-orthogonal sketching vector: zero loss
    a = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    a /= np.sqrt(fro_sq(a))
    w = a[:, 0] + 0.1 * rng.standard_normal(5)
    assert rank1_closed_form_loss(a, w) <= 1e-10
    # sketching vector orthogonal to the column space: full loss
    a2 = np.zeros((4, 3))
    a2[1:, :] = rng.standard_normal((3, 3))
    assert rank1_closed_form_loss(a2, np.array([1.0, 0, 0, 0])) == fro_sq(a2)


def test_rank1_closed_form_matches_pipeline():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        a = random_unit_matrix(rng, n, d)
        w = rng.standard_normal(n)
        closed = rank1_closed_form_loss(a, w)
        pipeline = sketch_loss(w.reshape(1, -1), a, 1)
        assert abs(closed - pipeline) <= 1e-8


@pytest.mark.parametrize("a, w, closed, piped", [
    (np.ones((3, 2)), [1.0, np.nan, 0.0], "w contains non-finite",
     "sketch contains non-finite"),
    (np.ones((3, 2)), [1.0, np.inf, 0.0], "w contains non-finite",
     "sketch contains non-finite"),
    (np.array([[1.0, np.nan], [1.0, 1.0], [1.0, 1.0]]), [1.0, 0.0, 0.0],
     "matrix contains non-finite", "matrix contains non-finite"),
    (np.ones((3, 2)), [1.0, 0.0], "sketch has 2 columns but the matrix has 3 rows",
     "sketch has 2 columns but the matrix has 3 rows"),
    (np.ones(3), [1.0, 0.0, 0.0], r"matrix must have shape \(None, None\), got \(3,\)",
     "matrix must have ndim >= 2, got ndim=1"),
], ids=["w-nan", "w-inf", "a-nan", "length", "a-1d"])
def test_rank1_closed_form_refuses_what_sketch_loss_refuses(a, w, closed, piped):
    with pytest.raises(ValueError, match=closed):
        rank1_closed_form_loss(a, w)
    with pytest.raises(ValueError, match=piped):
        sketch_loss(np.reshape(w, (1, -1)), a, 1)


def test_rank1_closed_form_refuses_a_stack_by_name():
    # its formula is for one matrix; sketch_loss takes the stack
    with pytest.raises(ValueError, match=r"^matrix must have shape \(None, None\), "
                                         r"got \(2, 3, 4\)$"):
        rank1_closed_form_loss(np.ones((2, 3, 4)), np.ones(3))


@pytest.mark.parametrize("epochs", [1, 3])
def test_sgd_train_checks_its_dataset_once(array_checks, epochs):
    rng = np.random.default_rng(28)
    data = make_dataset([rng.standard_normal((6, 4)) for _ in range(8)])
    history = []
    sgd_train(random_sparse_sketch(3, 6, 1, 0), data, 2, TrainConfig(epochs, 0.1, 2),
              history=history)
    assert len(history) == epochs
    assert array_checks.count("matrix") == 1


def test_empirical_loss_and_the_traced_pipeline_check_once(array_checks):
    rng = np.random.default_rng(29)
    a = random_unit_matrix(rng, 3, 3)
    sk = random_sparse_sketch(2, 3, 1, 0)
    empirical_loss(sk, [a, a, a], 1)
    assert array_checks.count("matrix") == 1
    array_checks.clear()
    gjdemos.proxy_pipeline_trace(sk, a, 1, 0.5)
    assert array_checks.count("matrix") == 1
