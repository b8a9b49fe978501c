import dataclasses

import numpy as np
import pytest

from sketchlab import gjdemos, synth
from sketchlab.amg import (
    AMGProblem,
    amg_loss,
    amg_loss_and_grad,
    amg_step,
    amg_step_error_form,
    smoothing_sweep,
    train_prolongation,
)
from sketchlab.charpoly import charpoly_coefficients
from sketchlab.gjtrace import Trace, gj_argmin, pdim_bound
from sketchlab.linalg import (
    RANK_RTOL,
    _orthonormal,
    _singular_values,
    as_matrix,
    best_rank_k,
    fro_sq,
    pinv,
    svd,
)
from sketchlab.proxy import (
    ProxyConfig,
    candidate_bases,
    greedy_pivot_columns,
    power_refine,
    proxy_loss,
    q_iterations,
)
from sketchlab.shatter import (
    ShatterFamily,
    block_family,
    dense_family,
    rank1_family,
    subset_sketch,
    verify_shattering,
)
from sketchlab.sketching import (
    SparseSketch,
    random_sparse_sketch,
    rank1_closed_form_loss,
    sketch_loss,
    sketch_loss_and_grad,
)
from sketchlab.train import TrainConfig, make_dataset, safeguard, sgd_train

from oracles import jacobi_singular_values


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 2.0])
    np.testing.assert_allclose(np.abs(res.U), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(res.V), np.eye(2), atol=1e-12)


def test_svd_zero_matrix_has_rank_zero():
    res = svd(np.zeros((2, 2)))
    assert res.singular_values.size == 0
    assert res.U.shape == (2, 0)
    assert res.V.shape == (2, 0)


@pytest.mark.parametrize("shape,seed", [((5, 4), 0), ((4, 7), 1), ((6, 6), 2)])
def test_svd_contract_and_oracle(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    u, s, v = svd(a)
    smax = s[0]
    assert np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(u.T @ u, np.eye(s.size), atol=1e-9)
    np.testing.assert_allclose(v.T @ v, np.eye(s.size), atol=1e-9)
    np.testing.assert_allclose((u * s) @ v.T, a, atol=1e-9 * smax)
    # independent route: eigenvalues of A^T A via Jacobi rotations
    np.testing.assert_allclose(s, jacobi_singular_values(a)[: s.size],
                               atol=1e-8 * smax)


def test_svd_of_a_stack_masks_each_matrix_past_its_rank():
    rng = np.random.default_rng(3)
    stack = np.stack([rng.standard_normal((5, r)) @ rng.standard_normal((r, 4))
                      for r in (2, 1, 2)])
    stack[1] = 0.0  # a zero matrix inside the stack has rank 0
    stack = np.concatenate([stack, rng.standard_normal((1, 5, 4))])
    u, s, v = svd(stack)
    # trimmed to the largest rank in the stack, 4
    assert u.shape == (4, 5, 4) and s.shape == (4, 4) and v.shape == (4, 4, 4)
    for i, a in enumerate(stack):
        one = svd(a)
        r = one.singular_values.size
        assert r == (2, 0, 2, 4)[i]
        # the matrix's own factors, then zero columns
        np.testing.assert_array_equal(s[i, :r], one.singular_values)
        np.testing.assert_array_equal(u[i, :, :r], one.U)
        np.testing.assert_array_equal(v[i, :, :r], one.V)
        assert not s[i, r:].any() and not u[i, :, r:].any() and not v[i, :, r:].any()
        np.testing.assert_allclose((u[i] * s[i]) @ v[i].T, a, atol=1e-12)
    np.testing.assert_array_equal(best_rank_k(stack, 1)[2], best_rank_k(stack[2], 1))


@pytest.mark.parametrize("dtype",
                         [np.float64, np.float32, np.float16, np.int64, np.bool_])
@pytest.mark.parametrize("shape", [(5, 4), (4, 7), (3, 5, 4), (2, 2, 4, 7)])
def test_svd_is_the_trimmed_np_linalg_svd_of_the_float64_input(shape, dtype):
    # every real dtype gets float64 factors, bit for bit those of np.linalg.svd
    # on the float64 copy (which keeps float32 and refuses float16)
    rng = np.random.default_rng(len(shape))
    a = rng.standard_normal(shape) * 3.0
    a[..., -1, :] = a[..., 0, :]  # a repeated row and column: float64 is trimmed
    a[..., :, -1] = a[..., :, 0]
    a[(0,) * (len(shape) - 2)] *= 1e-3  # and the stacks' first matrix is graded
    a = a > 0.0 if dtype is np.bool_ else a.astype(dtype)
    f = np.asarray(a, float)
    u_np, s_np, vh_np = np.linalg.svd(f, full_matrices=False)
    u, s, v = svd(a)
    assert u.dtype == s.dtype == v.dtype == np.float64
    for i in np.ndindex(shape[:-2]):
        r = np.count_nonzero(s_np[i] > RANK_RTOL * s_np[i][0])
        assert r < min(shape[-2:]) or dtype is not np.float64
        np.testing.assert_array_equal(s[i][:r], s_np[i][:r])
        np.testing.assert_array_equal(u[i][:, :r], u_np[i][:, :r])
        np.testing.assert_array_equal(v[i][:, :r], vh_np[i][:r].T)
        assert not s[i][r:].any() and not u[i][:, r:].any() and not v[i][:, r:].any()
        np.testing.assert_array_equal(_singular_values(f[i]),
                                      np.linalg.svd(f[i], compute_uv=False))


def test_svd_failure_to_converge_raises_linalg_error():
    nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    for call in (svd, _singular_values):
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            call(nan)


def test_svd_of_a_zero_stack_has_empty_factors():
    u, s, v = svd(np.zeros((3, 2, 5)))
    assert u.shape == (3, 2, 0) and s.shape == (3, 0) and v.shape == (3, 5, 0)


def test_best_rank_k_diagonal():
    out = best_rank_k(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(out, np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_best_rank_k_beyond_rank_returns_input():
    rng = np.random.default_rng(3)
    a = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    np.testing.assert_allclose(best_rank_k(a, 3), a, atol=1e-12)


def test_best_rank_k_error_is_tail_sum():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 4))
    tail = np.sum(jacobi_singular_values(a)[2:] ** 2)
    assert abs(fro_sq(a - best_rank_k(a, 2)) - tail) < 1e-10


def test_best_rank_k_beats_random_rank_k():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    err = fro_sq(a - best_rank_k(a, 2))
    for _ in range(100):
        r = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        assert err <= fro_sq(a - r) + 1e-12


def test_pinv_diagonal_and_orthonormal():
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])),
                               np.diag([0.5, 0.0]), atol=1e-12)
    q = np.linalg.qr(np.random.default_rng(6).standard_normal((5, 3)))[0]
    np.testing.assert_allclose(pinv(q), q.T, atol=1e-10)


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 5))
    p = pinv(m)
    np.testing.assert_allclose(m @ p @ m, m, atol=1e-8)
    np.testing.assert_allclose(p @ m @ p, p, atol=1e-8)
    np.testing.assert_allclose((m @ p).T, m @ p, atol=1e-8)
    np.testing.assert_allclose((p @ m).T, p @ m, atol=1e-8)


def test_pinv_involution():
    rng = np.random.default_rng(8)
    for shape in [(4, 3), (3, 6), (5, 5)]:
        m = rng.standard_normal(shape)
        np.testing.assert_allclose(pinv(pinv(m)), m, atol=1e-8)


def test_fro_sq_values():
    assert fro_sq(np.zeros((3, 2))) == 0.0
    assert fro_sq(np.eye(4)) == 4.0
    assert fro_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0
    stack = np.random.default_rng(4).standard_normal((2, 3, 5, 4))
    per_matrix = fro_sq(stack)
    assert per_matrix.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert per_matrix[i, j] == fro_sq(stack[i, j])


def test_pythagorean_identity_for_projections():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((6, 5))
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        proj = basis @ basis.T
        total = fro_sq(a @ proj) + fro_sq(a @ (np.eye(5) - proj))
        assert abs(fro_sq(a) - total) < 1e-8


def test_orthonormal_is_np_qr_q_bit_for_bit():
    rng = np.random.default_rng(19)
    for c in range(1, 36):
        for n in range(2, 11):
            for k in range(1, 5):  # n < k included
                z = rng.standard_normal((c, n, k))
                z[::3, :, -1] = z[::3, :, 0]      # rank-deficient blocks
                z[1::5] = 0.0                     # zero blocks
                if c == 1:
                    z = z[0]                      # a plain matrix
                want = np.linalg.qr(z)[0]
                got = _orthonormal(z.copy())
                assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(TypeError, match="float64"):
        _orthonormal(np.ones((3, 2), dtype=np.float32))


@pytest.mark.parametrize("call, name", [
    (lambda: q_iterations(0.1, 2.5), "d"),
    (lambda: q_iterations(0.1, 3, float("nan")), "q_constant"),
    (lambda: best_rank_k(np.eye(3), 1.5), "k"),
    (lambda: rank1_family(4, 2.5), "d"),
    (lambda: sketch_loss(np.ones((2, 4)), np.eye(4, 3), 1.0), "k"),
    (lambda: proxy_loss(np.ones((2, 4)), np.eye(4, 3), 1.0, ProxyConfig(0.5)), "k"),
    (lambda: gjdemos.power_trace(np.eye(2), np.ones(2), -1), "q"),
    (lambda: ProxyConfig(0.1, q_constant=True), "q_constant"),
    (lambda: random_sparse_sketch(3.0, 6, 1, 0), "m"),
    (lambda: random_sparse_sketch(3, 6, 1.5, 0), "s"),
    (lambda: block_family(10, 2.0, 1), "k"),
    (lambda: dense_family(6, 2.0), "k"),
    (lambda: rank1_family(4.0, 2), "n"),
    (lambda: random_sparse_sketch(3, 6, 1, -3), "seed"),
    (lambda: verify_shattering(rank1_family(4, 2), seed=1.5), "seed"),
    (lambda: TrainConfig(1, 0.1, 1, seed=True), "seed"),
    (lambda: TrainConfig(1, 0.1, 1, seed=np.random.default_rng(0)), "seed"),
    (lambda: TrainConfig(1, 0.1, 1, seed=None), "seed"),
    (lambda: verify_shattering(rank1_family(4, 2), seed=np.random.default_rng(0)),
     "seed"),
    (lambda: verify_shattering(rank1_family(4, 2), seed=None), "seed"),
    (lambda: verify_shattering(rank1_family(4, 2), subset_budget="x"), "subset_budget"),
    (lambda: verify_shattering(rank1_family(4, 2), subset_budget=0), "subset_budget"),
    (lambda: pdim_bound(-1, Trace()), "n_params"),
    (lambda: pdim_bound("x", Trace()), "n_params"),
], ids=["q_iterations-d", "q_iterations-q_constant", "best_rank_k-k",
        "rank1_family-d", "sketch_loss-k", "proxy_loss-k", "power_trace-q",
        "ProxyConfig-q_constant-bool", "random_sparse_sketch-m",
        "random_sparse_sketch-s", "block_family-k", "dense_family-k",
        "rank1_family-n", "random_sparse_sketch-seed",
        "verify_shattering-seed", "TrainConfig-seed-bool",
        "TrainConfig-seed-Generator", "TrainConfig-seed-None",
        "verify_shattering-seed-Generator", "verify_shattering-seed-None",
        "verify_shattering-exhaustive-subset_budget-str",
        "verify_shattering-exhaustive-subset_budget-0", "pdim_bound-negative",
        "pdim_bound-str"])
def test_counts_and_rates_are_refused_by_name(call, name):
    # each count is an integer of at least some value, each rate finite and
    # > 0, each seed an integer >= 0 (random_sparse_sketch, which the CLI
    # hands named streams, also takes None or a numpy Generator)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


A64 = np.random.default_rng(24).standard_normal((6, 4))
SK = random_sparse_sketch(3, 6, 1, 0)
S36 = np.random.default_rng(0).standard_normal((3, 6))
BLOCKS = np.eye(4)[None, :, :2]


def _amg(**changes):
    """A 4x4 diagonally dominant problem with one coarse column."""
    return AMGProblem(**dict(a=np.diag([1.5, 1.2, 1.8, 1.1]) + 0.1, b=np.ones(4),
                             p=np.ones((4, 1)), s1=1, s2=1) | changes)


def _reassigned(values):
    """``SK`` with its slot values reassigned after construction."""
    sk = random_sparse_sketch(3, 6, 1, 0)
    sk.values = values
    return sk


# the step functions with one iterate left open, keyed by function and
# iterate name, and the faults of an iterate with the refusal each earns
_STEPS = {
    "smoothing_sweep-x": ("x", lambda x: smoothing_sweep(_amg(), x)),
    "amg_step-x": ("x", lambda x: amg_step(_amg(), x)),
    "amg_step_error_form-x": ("x", lambda x: amg_step_error_form(_amg(), x, np.ones(4))),
    "amg_step_error_form-x_star": (
        "x_star", lambda x: amg_step_error_form(_amg(), np.ones(4), x)),
}
_BAD_ITERATES = {
    "list": ([1.0] * 4, TypeError, "{} must be a numpy array, got list"),
    "nan": (np.array([1.0, np.nan, 1.0, 1.0]), ValueError, "{} contains non-finite"),
    "length": (np.ones(5), ValueError, r"{} must have shape \(4,\), got \(5,\)"),
    "column": (np.ones((4, 1)), ValueError, r"{} must have shape \(4,\), got \(4, 1\)"),
}
_NOT_A_PROBLEM = (TypeError, "prob must be an AMGProblem, got list")


@pytest.mark.parametrize("call, error, match", [
    (lambda: sketch_loss(SK, A64 * (1 + 1j), 2), TypeError,
     "matrix must have a real dtype"),
    (lambda: sketch_loss(SK, A64.astype(object), 2), TypeError,
     "matrix must have a real dtype"),
    (lambda: sketch_loss_and_grad(SK.dense().astype(complex), A64, 2), TypeError,
     "sketch must have a real dtype"),
    (lambda: sketch_loss(SK.dense().tolist(), A64, 2), TypeError,
     "sketch must be a numpy array, got list"),
    (lambda: sketch_loss(SK, A64 * 1e154, 2), ValueError, "matrix is too large"),
    (lambda: proxy_loss(SK, A64 * 1e154, 2, ProxyConfig(0.5)), ValueError,
     "matrix is too large"),
    (lambda: sketch_loss(S36 * 1e200, A64 * 1e150, 2), ValueError,
     "sketch @ matrix overflows"),
    (lambda: sketch_loss(np.stack([S36, S36 * 1e200]), A64 * 1e150, 2), ValueError,
     "sketch @ matrix overflows"),
    (lambda: proxy_loss(SK, np.stack([A64, A64]), 2, ProxyConfig(0.5)), ValueError,
     r"matrix must have shape \(None, None\), got \(2, 6, 4\)"),
    (lambda: best_rank_k(np.full((3, 2), np.nan), 1), ValueError,
     "a contains non-finite"),
    (lambda: best_rank_k(np.ones(3), 1), ValueError,
     "a must have ndim >= 2, got ndim=1"),
    (lambda: as_matrix(np.eye(2) * 1j), TypeError, "matrix must have a real dtype"),
    (lambda: power_refine(np.full((3, 4), np.nan), BLOCKS, 2), ValueError,
     "b contains non-finite"),
    (lambda: power_refine(np.ones(4), BLOCKS, 2), ValueError,
     r"b must have shape \(None, None\), got \(4,\)"),
    (lambda: power_refine(np.ones((3, 4)) * 1e300, BLOCKS, 2), ValueError,
     "b is too large"),
    (lambda: candidate_bases(np.ones(4), 1, ProxyConfig(0.5)), ValueError,
     r"b must have shape \(None, None\), got \(4,\)"),
    (lambda: greedy_pivot_columns(np.ones(3)), ValueError,
     r"v_rows must have shape \(None, None\), got \(3,\)"),
    (lambda: q_iterations(1e-310, 4), ValueError,
     "epsilon must give a finite step count"),
    (lambda: ProxyConfig(5e-324), ValueError, "epsilon must give a finite step count"),
    (lambda: AMGProblem(np.ones((0, 0)), np.ones(0), np.ones((0, 1)), 1, 1), ValueError,
     r"P\^T A P is numerically singular"),
    (lambda: _amg(a=np.eye(4) * 1j), TypeError, "A must have a real dtype"),
    (lambda: _amg(b=np.ones((4, 1))), ValueError,
     r"b must have shape \(4,\), got \(4, 1\)"),
    (lambda: _amg(p=np.ones((4, 1)) * 1e300), ValueError,
     r"P\^T A P contains non-finite entries"),
    (lambda: _amg(p=np.ones((4, 1)) * 1e-160), ValueError,
     r"\(P\^T A P\)\^\{-1\} contains non-finite entries"),
    (lambda: _amg(a=np.eye(4) * 0.5, b=np.full(4, 1e308)), ValueError,
     r"L\^\{-1\} b contains non-finite entries"),
    # each row of L^{-1} grows 1e9-fold down its subdiagonal: S = I - L^{-1} A
    # passes float range by row 35
    (lambda: _amg(a=np.eye(40) + 1e9 * np.eye(40, k=-1) + np.eye(40, k=1),
                  b=np.ones(40), p=np.ones((40, 1))), ValueError,
     r"I - L\^\{-1\} A contains non-finite entries"),
    (lambda: _amg().with_prolongation_values(np.ones(4) * 1j), TypeError,
     "values must have a real dtype"),
    (lambda: SparseSketch(2, 2, 1, [[0], [1]], np.ones((2, 1)) * 1j), TypeError,
     "values must have a real dtype"),
    (lambda: make_dataset([A64, A64 * 1j]), TypeError,
     "matrix 1 must have a real dtype"),
    (lambda: make_dataset([A64, A64 * 1e300]), ValueError, "matrix 1 is too large"),
    (lambda: safeguard(SK, np.ones((2, 6))), TypeError,
     "oblivious must be a SparseSketch"),
    (lambda: gjdemos.min_trace([1.0, np.nan]), ValueError,
     "values contains non-finite"),
    (lambda: gjdemos.power_trace(np.full((2, 2), np.nan), np.ones(2), 1), ValueError,
     "m contains non-finite"),
    (lambda: gjdemos.power_trace(np.ones((2, 3)), np.ones(3), 2), ValueError,
     r"m must have shape \(2, 2\), got \(2, 3\)"),
    (lambda: gjdemos.power_trace(np.eye(2), np.ones(3), 1), ValueError,
     r"pi must have shape \(2,\), got \(3,\)"),
    (lambda: gjdemos.rowspace_projection_trace(np.ones(3)), ValueError,
     r"z must have shape \(None, None\), got \(3,\)"),
    (lambda: gjdemos.rowspace_projection_trace([[1.0, np.inf], [0.0, 1.0]]), ValueError,
     "z contains non-finite"),
    (lambda: gjdemos.knapsack_trace([1.0, 2.0], [1.0, 2.0, 3.0], 2.0, 1.0), ValueError,
     r"costs must have shape \(2,\), got \(3,\)"),
    (lambda: gjdemos.knapsack_trace([1.0, 2.0], [1.0, 2.0], np.inf, 1.0), ValueError,
     "capacity contains non-finite"),
    (lambda: gjdemos.knapsack_trace([1.0, 2.0], [1.0, 2.0], 2.0, np.nan), ValueError,
     "rho contains non-finite"),
    (lambda: gjdemos.proxy_pipeline_trace(SK, A64[:, :3] * np.nan, 1, 0.5), ValueError,
     "matrix contains non-finite"),
    (lambda: gjdemos.proxy_pipeline_trace(SK, np.ones((4, 3)), 1, 0.5), ValueError,
     "sketch has 6 columns but the matrix has 4 rows"),
    (lambda: gjdemos.power_trace(np.zeros((0, 0)), np.zeros(0), 2), ValueError,
     r"m must be nonempty, got shape \(0, 0\)"),
    (lambda: gjdemos.rowspace_projection_trace(np.zeros((0, 3))), ValueError,
     r"z must be nonempty, got shape \(0, 3\)"),
    (lambda: gjdemos.rowspace_projection_trace(np.zeros((2, 0))), ValueError,
     r"z must be nonempty, got shape \(2, 0\)"),
    (lambda: gjdemos.knapsack_trace([], [], 1.0, 1.0), ValueError,
     r"values must be nonempty, got shape \(0,\)"),
    (lambda: pinv([[1.0, 2.0]]), TypeError, "a must be a numpy array, got list"),
    (lambda: pinv(np.ones(3)), ValueError,
     r"a must have shape \(None, None\), got \(3,\)"),
    (lambda: pinv(np.full((2, 2), np.nan)), ValueError, "a contains non-finite"),
    *((lambda call=call, x=x: call(x), error, match.format(name))
      for name, call in _STEPS.values() for x, error, match in _BAD_ITERATES.values()),
    (lambda: smoothing_sweep([[1.0]], np.ones(4)), *_NOT_A_PROBLEM),
    (lambda: amg_step([[1.0]], np.ones(4)), *_NOT_A_PROBLEM),
    (lambda: amg_step_error_form([[1.0]], np.ones(4), np.ones(4)), *_NOT_A_PROBLEM),
    (lambda: amg_loss([[1.0]], 1), *_NOT_A_PROBLEM),
    (lambda: amg_loss_and_grad([[1.0]], 1), *_NOT_A_PROBLEM),
    (lambda: train_prolongation([_amg(), [[1.0]]], TrainConfig(1, 0.1, 1)), TypeError,
     r"problems\[1\] must be an AMGProblem, got list"),
    (lambda: train_prolongation([_amg()], TrainConfig(1, 0.1, 1), q="x"), ValueError,
     "q must be an integer, got 'x'"),
    (lambda: train_prolongation([_amg()], None), TypeError,
     "cfg must be a TrainConfig, got NoneType"),
    (lambda: sgd_train(SK, [A64], 2, None), TypeError,
     "cfg must be a TrainConfig, got NoneType"),
    (lambda: sgd_train(np.ones((2, 4)), [np.eye(4, 3)], 1, TrainConfig(1, 0.1, 1)),
     TypeError, "pattern must be a SparseSketch, got ndarray"),
    (lambda: proxy_loss(SK, A64, 2, None), TypeError,
     "cfg must be a ProxyConfig, got NoneType"),
    (lambda: proxy_loss(SK, A64, 2, TrainConfig(1, 0.1, 1)), TypeError,
     "cfg must be a ProxyConfig, got TrainConfig"),
    (lambda: pdim_bound(2, None), TypeError, "trace must be a Trace, got NoneType"),
    (lambda: verify_shattering(np.zeros((2, 2, 2))), TypeError,
     "family must be a ShatterFamily, got ndarray"),
    (lambda: subset_sketch(np.zeros(3), [0]), TypeError,
     "family must be a ShatterFamily, got ndarray"),
    (lambda: ShatterFamily(np.zeros((1, 6, 2)), SK.dense(), [(0, 0)], "x"), TypeError,
     "base must be a SparseSketch, got ndarray"),
    # a frozen sketch refuses the reassignment itself, so no non-finite
    # values reach the loss family this way
    (lambda: sketch_loss(_reassigned(np.full((6, 1), np.inf)), A64, 2),
     dataclasses.FrozenInstanceError, "cannot assign to field 'values'"),
    (lambda: sketch_loss_and_grad(_reassigned(np.full((6, 1), np.nan)), A64, 2),
     dataclasses.FrozenInstanceError, "cannot assign to field 'values'"),
    (lambda: proxy_loss(_reassigned(np.full((6, 1), np.inf)), A64, 2, ProxyConfig(0.5)),
     dataclasses.FrozenInstanceError, "cannot assign to field 'values'"),
], ids=["sketch_loss-complex", "sketch_loss-object",
        "sketch_loss_and_grad-complex-sketch", "sketch_loss-list-sketch",
        "sketch_loss-overflow", "proxy_loss-overflow", "sketch_loss-SA-overflow",
        "sketch_loss-stacked-SA-overflow", "proxy_loss-stack",
        "best_rank_k-nan", "best_rank_k-1d", "as_matrix-complex", "power_refine-nan-b",
        "power_refine-1d-b", "power_refine-overflow", "candidate_bases-1d-b",
        "greedy_pivot_columns-1d", "q_iterations-tiny-epsilon",
        "ProxyConfig-tiny-epsilon", "AMGProblem-empty", "AMGProblem-complex",
        "AMGProblem-column-b", "AMGProblem-overflow",
        "AMGProblem-coarse-inverse-overflow", "AMGProblem-shift-overflow",
        "AMGProblem-smoother-overflow",
        "with_prolongation_values-complex", "SparseSketch-complex",
        "make_dataset-complex", "make_dataset-overflow", "safeguard-array",
        "min_trace-nan", "power_trace-nan", "power_trace-not-square",
        "power_trace-pi", "rowspace_projection_trace-1d",
        "rowspace_projection_trace-inf", "knapsack_trace-costs",
        "knapsack_trace-capacity", "knapsack_trace-rho",
        "proxy_pipeline_trace-nan", "proxy_pipeline_trace-rows", "power_trace-empty",
        "rowspace_projection_trace-no-rows", "rowspace_projection_trace-no-columns",
        "knapsack_trace-empty", "pinv-list", "pinv-1d", "pinv-nan",
        *(f"{step}-{bad}" for step in _STEPS for bad in _BAD_ITERATES),
        "smoothing_sweep-not-a-problem", "amg_step-not-a-problem",
        "amg_step_error_form-not-a-problem", "amg_loss-not-a-problem",
        "amg_loss_and_grad-not-a-problem", "train_prolongation-not-a-problem",
        "train_prolongation-q", "train_prolongation-cfg", "sgd_train-cfg",
        "sgd_train-dense-pattern",
        "proxy_loss-cfg", "proxy_loss-cfg-TrainConfig", "pdim_bound-trace",
        "verify_shattering-not-a-family", "subset_sketch-not-a-family",
        "ShatterFamily-dense-base", "sketch_loss-reassigned-values",
        "sketch_loss_and_grad-reassigned-values", "proxy_loss-reassigned-values"])
def test_arrays_are_refused_by_name(call, error, match):
    # each array passes linalg._check_array: a numpy array of a real dtype,
    # of the expected shape, with finite entries; the loss family, the
    # refinement and the dataset also refuse a squared norm beyond float
    # range, and the loss family a product SA beyond it.  None of these may
    # warn: the suite turns warnings into errors
    with pytest.raises(error, match=f"^{match}"):
        call()


NESTED = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("call, name", [
    (lambda: sketch_loss(np.ones((2, 4)), NESTED, 1), "matrix"),
    (lambda: sketch_loss_and_grad(np.ones((2, 4)), NESTED, 1), "matrix"),
    (lambda: proxy_loss(np.ones((2, 4)), NESTED, 1, ProxyConfig(0.5)), "matrix"),
    (lambda: rank1_closed_form_loss(NESTED, np.ones(4)), "matrix"),
    (lambda: best_rank_k(NESTED, 1), "a"),
], ids=["sketch_loss", "sketch_loss_and_grad", "proxy_loss",
        "rank1_closed_form_loss", "best_rank_k"])
def test_a_nested_list_for_the_matrix_is_refused_by_name(call, name):
    # the pipeline reads the matrix's shape and ndim, so A must be an array
    with pytest.raises(TypeError, match=f"^{name} must be a numpy array, got list$"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: charpoly_coefficients(np.ones((2, 3))),
     r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: gjdemos.knapsack_trace([1.0, -1.0], [1.0, 2.0], 2.0, 1.0),
     "item values and costs must be positive"),
    (lambda: gjdemos.knapsack_trace([1.0, 2.0], [1.0, 1.0], 2.0, 1.0),
     "demo requires pairwise distinct costs"),
    (lambda: gj_argmin(Trace(), []), "need at least one value"),
    (lambda: greedy_pivot_columns(np.eye(3)), "need k < d, got k=3, d=3"),
    (lambda: candidate_bases(np.ones((3, 3)), 4, ProxyConfig(0.1)),
     "k must satisfy 1 <= k <= d, got k=4, d=3"),
    (lambda: block_family(4, 2, 3), "need 1 <= s <= k < n, got s=3, k=2, n=4"),
    (lambda: synth.aggregation_prolongation(np.random.default_rng(0), 3, 4),
     "need 1 <= m <= n, got m=4, n=3"),
], ids=["charpoly_coefficients-not-square", "knapsack_trace-nonpositive",
        "knapsack_trace-equal-costs", "gj_argmin-empty", "greedy_pivot_columns-square",
        "candidate_bases-k", "block_family-s", "aggregation_prolongation-m"])
def test_size_and_shape_faults_are_named(call, match):
    # raise sites no other test reaches, each with its own text
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()
