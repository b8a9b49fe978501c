import math
from itertools import combinations

import numpy as np
import pytest

from sketchlab import proxy
from sketchlab.charpoly import projection_rowspace
from sketchlab.linalg import best_rank_k, fro_sq, svd
from sketchlab.proxy import (
    ProxyConfig,
    candidate_bases,
    greedy_pivot_columns,
    power_refine,
    proxy_loss,
    q_iterations,
)
from sketchlab.sketching import sketch_loss, sketch_loss_and_grad
from sketchlab.synth import random_instance, random_unit_matrix

from oracles import power_refine_qr


def _projector(z):
    v = svd(z).V
    return v @ v.T


def _random_orthonormal_rows(rng, k, d):
    return np.linalg.qr(rng.standard_normal((d, k)))[0].T


def test_q_iterations_formula():
    assert q_iterations(1.0, 2, q_constant=1.0) == 1
    assert q_iterations(0.5, 1, q_constant=1.0) == math.ceil(2 * math.log(4.0))
    with pytest.raises(ValueError):
        q_iterations(0.0, 3)
    with pytest.raises(ValueError):
        q_iterations(0.5, 0)


def test_q_iterations_halving_epsilon_roughly_doubles():
    for eps in (0.4, 0.1, 0.02):
        assert q_iterations(eps / 2, 10) >= 2 * q_iterations(eps, 10) - 2


def test_greedy_pivots_standard_basis_rows():
    v = np.zeros((2, 3))
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    p = greedy_pivot_columns(v)
    np.testing.assert_array_equal(p, np.eye(3)[:, :2])
    assert np.linalg.svd(v @ p, compute_uv=False)[-1] == pytest.approx(1.0)


def test_greedy_pivots_k1_takes_largest_column():
    v = np.array([[0.1, 0.8, 0.3, 0.5]])
    v /= np.linalg.norm(v)
    p = greedy_pivot_columns(v)
    assert p[1, 0] == 1.0


def test_greedy_pivots_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        greedy_pivot_columns(np.ones((2, 4)))


def test_greedy_pivots_sigma_bound_and_orthogonal_residuals():
    rng = np.random.default_rng(0)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k + 1, 13))
        v = _random_orthonormal_rows(rng, k, d)
        p = greedy_pivot_columns(v)
        smin = np.linalg.svd(v @ p, compute_uv=False)[-1]
        assert smin >= 1.0 / np.sqrt(d) - 1e-10
        # recompute the residual columns independently from the pivots
        picks = [int(np.argmax(p[:, i])) for i in range(k)]
        residuals = []
        basis = np.zeros((k, 0))
        for j in picks:
            z = v[:, j] - basis @ (basis.T @ v[:, j])
            residuals.append(z)
            basis = np.linalg.qr(np.concatenate([basis, z[:, None]], axis=1))[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert abs(residuals[i] @ residuals[j]) <= 1e-8


def test_candidate_bases_enumeration_and_fallback():
    rng = np.random.default_rng(1)
    cfg = ProxyConfig(0.5, subset_cap=1000)
    cands = candidate_bases(rng.standard_normal((4, 3)), 2, cfg)
    assert cands.shape == (3, 3, 2)
    for p, cols in zip(cands, [(0, 1), (0, 2), (1, 2)]):
        np.testing.assert_array_equal(p, np.eye(3)[:, cols])
    big = rng.standard_normal((6, 30))
    assert candidate_bases(big, 5, cfg).shape == (1, 30, 5)


def test_candidate_bases_exhaustive_stack_is_built_once_and_read_only():
    rng = np.random.default_rng(21)
    cfg = ProxyConfig(0.5, subset_cap=1000)
    for d in range(1, 9):
        for k in range(1, d + 1):
            stack = candidate_bases(rng.standard_normal((3, d)), k, cfg)
            assert stack.shape == (math.comb(d, k), d, k)
            assert stack.flags.c_contiguous and not stack.flags.writeable
            for p, cols in zip(stack, combinations(range(d), k)):
                assert np.array_equal(p, np.eye(d)[:, cols])
            assert candidate_bases(rng.standard_normal((5, d)), k, cfg) is stack
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 2.0
    # past the cache's entry bound a stack is built per call, read-only too
    big = candidate_bases(np.ones((2, 12)), 6, cfg)
    assert big.size > proxy._CACHED_STACK_ENTRIES
    assert big.flags.c_contiguous and not big.flags.writeable
    again = candidate_bases(np.ones((2, 12)), 6, cfg)
    assert again is not big and np.array_equal(again, big)


def test_candidate_greedy_fallback_residual_bound():
    rng = np.random.default_rng(2)
    cfg = ProxyConfig(0.5, subset_cap=1)
    for _ in range(20):
        b = rng.standard_normal((6, 8))
        k = int(rng.integers(1, 4))
        (p,) = candidate_bases(b, k, cfg)
        bp = b @ p
        resid = fro_sq(b - bp @ np.linalg.pinv(bp) @ b)
        tail = fro_sq(b - best_rank_k(b, k))
        d = b.shape[1]
        assert resid <= (1 + d) * tail + 1e-9


def test_power_refine_rejects_q_below_one_and_non_stack_blocks():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 4))
    stack = _candidate_stack(4, 2)
    for q in (0, -1):
        with pytest.raises(ValueError, match="q must be >= 1"):
            power_refine(b, stack, q)
    with pytest.raises(ValueError, match="^q must be an integer, got 2.5"):
        power_refine(b, stack, 2.5)
    for p in (stack[0], stack[:, :3], stack[None]):
        with pytest.raises(ValueError, match=r"^p must have shape \(None, 4, None\)"):
            power_refine(b, p, 3)


def test_power_refine_rank_one_fixed_point():
    b = np.zeros((4, 4))
    b[0, 0] = 1.0
    p = np.eye(4)[:, :1]
    for q in (1, 5, 50):
        z = power_refine(b, p[None], q)[0]
        assert np.abs(z[1:]).max() == 0.0
        proj = projection_rowspace(z.T)
        np.testing.assert_allclose(proj @ b, b, atol=1e-12)


def test_power_refine_converges_to_top_subspace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = rng.standard_normal((8, 6))
        k = int(rng.integers(1, 4))
        u = np.linalg.svd(b)[0][:, :k]
        p = np.zeros((6, k))
        p[np.arange(k), np.arange(k)] = 1.0
        z = power_refine(b, p[None], 4000)[0]
        qz = np.linalg.qr(z)[0]
        cosines = np.linalg.svd(u.T @ qz, compute_uv=False)
        angles = np.sqrt(np.clip(1.0 - cosines**2, 0.0, None))
        assert angles.max() <= 1e-4


def _candidate_stack(d, k):
    return np.stack([np.eye(d)[:, list(c)] for c in combinations(range(d), k)])


def _count_qr_blocks(monkeypatch):
    """Record the number of blocks in every QR that power_refine makes.
    Forgets power_refine's last run, so no call resumes one made before."""
    sizes = []
    monkeypatch.setattr(proxy, "_last_run", None)
    orthonormal = proxy._orthonormal

    def counting_orthonormal(z):
        sizes.append(z.shape[0] if z.ndim == 3 else 1)
        return orthonormal(z)

    monkeypatch.setattr(proxy, "_orthonormal", counting_orthonormal)
    return sizes


def _assert_stack_matches_blocks(b, stack, q):
    out = power_refine(b, stack, q)
    assert out.shape == (len(stack), b.shape[0], min(b.shape[0], stack.shape[2]))
    for z, p in zip(out, stack):
        one = power_refine(b, p[None], q)[0]
        if not np.any(b @ p):
            assert not np.any(z) and not np.any(one)
            continue
        np.testing.assert_allclose(_projector(z.T), _projector(one.T),
                                   atol=1e-12)
    return out


def test_power_refine_stack_matches_block_by_block(monkeypatch):
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        rank = int(rng.integers(0, min(n, d) + 1))  # 0 gives b = 0
        b = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        if rng.random() < 0.3:
            b[:, rng.choice(d, size=d - k, replace=False)] = 0.0
        stack = _candidate_stack(d, k)
        view = np.eye(d)[:, list(combinations(range(d), k))].transpose(1, 0, 2)
        for q in (1, 4, 60):
            out = _assert_stack_matches_blocks(b, stack, q)
            # bit for bit the refinement on np.linalg.qr
            assert np.array_equal(out, power_refine_qr(b, stack, q))
            # and the same bits from a transposed view of the stack as
            # from its contiguous copy, each in a fresh run
            for p in (view, stack):
                monkeypatch.setattr(proxy, "_last_run", None)
                assert np.array_equal(power_refine(b, p, q), out)
            # the contract proxy_loss selects by: orthonormal or all zero
            for z in out[np.abs(out).max(axis=(1, 2)) != 0.0]:
                assert np.abs(z.T @ z - np.eye(z.shape[1])).max() <= 1e-12


def test_proxy_loss_matches_refinement_on_np_qr(monkeypatch):
    # the acceptance mix of test_proxy_loss_sandwich, on its own seed
    rng = np.random.default_rng(19)
    instances = [random_instance(rng, (3, 9), (3, 7), 4, 3) for _ in range(100)]
    cfgs = [ProxyConfig(eps, subset_cap=5000) for eps in (0.1, 0.01)]
    got = [proxy_loss(sk, a, k, cfg) for a, sk, k in instances for cfg in cfgs]
    monkeypatch.setattr(proxy, "power_refine", power_refine_qr)
    want = [proxy_loss(sk, a, k, cfg) for a, sk, k in instances for cfg in cfgs]
    assert np.array_equal(got, want)


def test_power_refine_takes_integer_blocks():
    rng = np.random.default_rng(20)
    b = rng.integers(-3, 4, size=(6, 5))
    stack = _candidate_stack(5, 2).astype(np.int64)
    assert np.array_equal(power_refine(b, stack, 30),
                          power_refine(b.astype(float), stack.astype(float), 30))


def test_power_refine_stack_mixes_stalled_running_and_zero_blocks(monkeypatch):
    # b is block diagonal: diag(3, 2) on columns 0 and 1, a generic 3x3
    # block below 2 in norm on columns 2 to 4, and zero columns 5 and 6.
    # Columns 0 and 1 span the top-2 left singular subspace exactly, so
    # that block stalls after three steps (so do blocks pairing column 0 or
    # 1 with a zero column); blocks of the 3x3 part keep moving for the
    # q = 6 steps; the block of columns 5 and 6 is zero.
    b = np.zeros((5, 7))
    b[0, 0], b[1, 1] = 3.0, 2.0
    b[2:, 2:5] = [[1.0, 0.3, 0.2], [0.2, 0.9, 0.1], [0.3, 0.1, 0.5]]
    stack = _candidate_stack(7, 2)
    q = 6

    sizes = _count_qr_blocks(monkeypatch)
    steps = []
    for p in stack:
        sizes.clear()
        power_refine(b, p[None], q)
        steps.append(len(sizes) - 1)   # QR calls after the first
    assert steps[0] == 3 and steps[-1] == -1 and q in steps

    sizes.clear()
    out = power_refine(b, stack, q)
    # the stack holds, at each step, exactly the blocks still refining
    assert sizes == [sum(s >= t for s in steps) for t in range(max(steps) + 1)]
    assert np.array_equal(out[-1], np.zeros((5, 2)))
    monkeypatch.undo()
    _assert_stack_matches_blocks(b, stack, q)


def test_power_refine_stack_of_zero_blocks_and_q0(monkeypatch):
    rng = np.random.default_rng(10)
    b = rng.standard_normal((5, 4))
    stack = _candidate_stack(4, 2)
    sizes = _count_qr_blocks(monkeypatch)
    with pytest.raises(ValueError, match="q must be >= 1"):
        power_refine(b, stack, 0)
    out = power_refine(np.zeros((5, 4)), stack, 7)
    assert sizes == []
    assert out.shape == (6, 5, 2) and not np.any(out)


def test_power_refine_stops_on_exact_and_rank_deficient_blocks(monkeypatch):
    # Once a block captures all of B's energy, the energy stall stops it
    # within a few steps, both when rank(B) < k < n (no rank-k span to
    # converge to) and when rank(B) = k; q at eps = 0.01 and d = 6 is 2,559.
    rng = np.random.default_rng(12)
    q = q_iterations(0.01, 6)
    sizes = _count_qr_blocks(monkeypatch)
    for rank, k in [(2, 3)] * 25 + [(1, 1)] * 25:
        a = rng.standard_normal((6, 6))
        s = rng.standard_normal((rank, 6))
        b = a @ _projector(s @ a)
        sizes.clear()
        out = power_refine(b, _candidate_stack(6, k), q)
        assert len(sizes) <= 8
        for z in out:
            proj = _projector(z.T)
            assert fro_sq(b - proj @ b) <= 1e-12 * fro_sq(b)


def _fresh_qr_sizes(monkeypatch, sizes, b, stack, q):
    """The QR block counts of a run to q that resumes nothing."""
    monkeypatch.setattr(proxy, "_last_run", None)
    sizes.clear()
    power_refine(b, stack, q)
    return list(sizes)


def test_power_refine_resumes_when_only_q_grows(monkeypatch):
    rng = np.random.default_rng(13)
    b = rng.standard_normal((6, 5))
    stack = _candidate_stack(5, 2)
    sizes = _count_qr_blocks(monkeypatch)
    fresh = _fresh_qr_sizes(monkeypatch, sizes, b, stack, 60)
    assert len(fresh) > 5  # some block is still refining after step 4
    monkeypatch.setattr(proxy, "_last_run", None)
    sizes.clear()
    for q in (1, 4, 60):
        assert np.array_equal(power_refine(b, stack, q), power_refine_qr(b, stack, q))
    # the three calls together make exactly the QR calls of one run to 60
    assert sizes == fresh


def test_power_refine_smaller_q_after_a_capped_run_starts_fresh(monkeypatch):
    rng = np.random.default_rng(14)
    b = rng.standard_normal((6, 5))
    stack = _candidate_stack(5, 2)
    sizes = _count_qr_blocks(monkeypatch)
    fresh = _fresh_qr_sizes(monkeypatch, sizes, b, stack, 3)
    capped = power_refine(b, stack, 6)  # resumes the run to 3
    sizes.clear()
    out = power_refine(b, stack, 3)
    assert sizes == fresh
    assert np.array_equal(out, power_refine_qr(b, stack, 3))
    assert not np.array_equal(out, capped)


def test_power_refine_result_is_not_the_stored_run():
    rng = np.random.default_rng(15)
    b = rng.standard_normal((6, 5))
    stack = _candidate_stack(5, 2)
    for q, again in [(60, 60), (2, 60)]:  # all blocks stopped; capped
        out = power_refine(b, stack, q)
        out[:] = 7.0
        assert np.array_equal(power_refine(b, stack, again),
                              power_refine_qr(b, stack, again))


def test_power_refine_same_bytes_in_another_shape_start_fresh(monkeypatch):
    rng = np.random.default_rng(16)
    b = rng.standard_normal((6, 4))
    stack = _candidate_stack(4, 2)                       # (6, 4, 2)
    reshaped = stack.reshape(3, 4, 4)   # the same bytes: 3 blocks of k = 4
    sizes = _count_qr_blocks(monkeypatch)
    fresh = _fresh_qr_sizes(monkeypatch, sizes, b, reshaped, 60)
    power_refine(b, stack, 60)
    sizes.clear()
    out = power_refine(b, reshaped, 60)
    assert sizes == fresh
    assert np.array_equal(out, power_refine_qr(b, reshaped, 60))


def test_proxy_loss_matches_per_candidate_loop():
    rng = np.random.default_rng(11)
    for i in range(32):
        a, sk, k = random_instance(rng)
        s = sk.dense()
        if i % 4 == 1:
            s[1:] = 0.0            # rank(S A) <= 1, often below k
        elif i % 4 == 2:
            s[:] = 0.0             # B = 0
        for eps in (0.2, 0.05):
            cfg = ProxyConfig(eps, subset_cap=5000)
            b = a @ _projector(s @ a)
            q = q_iterations(eps, a.shape[1], cfg.q_constant)
            best_loss, best_proj = math.inf, None
            for cols in combinations(range(a.shape[1]), k):
                p = np.eye(a.shape[1])[:, list(cols)]
                proj = _projector(power_refine(b, p[None], q)[0].T)
                loss = fro_sq(b - proj @ b)
                if loss < best_loss:
                    best_loss, best_proj = loss, proj
            ref = fro_sq(a - best_proj @ b)
            assert abs(proxy_loss(s, a, k, cfg) - ref) <= 1e-14 * fro_sq(a)


def test_proxy_loss_at_k_equal_d():
    # k = d needs no truncation: the one candidate is the identity and
    # the proxy reads the true loss, at any scale and any rank of SA
    rng = np.random.default_rng(12)
    cfg = ProxyConfig(0.5)
    assert candidate_bases(rng.standard_normal((6, 3)), 3, cfg).tolist() == [
        np.eye(3).tolist()]
    for i in range(40):
        a = rng.standard_normal((6, 3)) * 10.0 ** rng.choice([-50, 0, 50])
        s = rng.standard_normal((int(rng.integers(1, 5)), 6))
        if i % 5 == 0:
            s[:] = 0.0
        for eps in (0.5, 0.01):
            delta = proxy_loss(s, a, 3, ProxyConfig(eps)) - sketch_loss(s, a, 3)
            assert abs(delta) <= 1e-14 * fro_sq(a)


def test_proxy_zero_sketched_matrix():
    rng = np.random.default_rng(5)
    a = random_unit_matrix(rng, 5, 4)
    zero_sketch = np.zeros((2, 5))
    cfg = ProxyConfig(0.1)
    assert proxy_loss(zero_sketch, a, 2, cfg) == pytest.approx(fro_sq(a))


def test_proxy_exact_on_low_rank_projected_matrix():
    # when the projected matrix already has rank <= k, truncation is
    # lossless and the proxy agrees with the true loss almost exactly
    rng = np.random.default_rng(6)
    for _ in range(10):
        k = 2
        a = rng.standard_normal((6, k)) @ rng.standard_normal((k, 5))
        a /= np.sqrt(fro_sq(a))
        sketch_rows = rng.standard_normal((k, 6))
        cfg = ProxyConfig(0.1)
        delta = proxy_loss(sketch_rows, a, k, cfg) - sketch_loss(sketch_rows, a, k)
        assert abs(delta) <= 1e-9


def test_proxy_sandwich_smoke():
    rng = np.random.default_rng(7)
    cfg = ProxyConfig(0.1, subset_cap=5000)
    for _ in range(60):
        a, sk, k = random_instance(rng)
        delta = proxy_loss(sk, a, k, cfg) - sketch_loss(sk, a, k)
        assert -1e-9 <= delta <= cfg.epsilon + 1e-9


def test_proxy_never_beats_optimal_truncation():
    rng = np.random.default_rng(8)
    cfg = ProxyConfig(0.2, subset_cap=5000)
    for _ in range(30):
        a, sk, k = random_instance(rng)
        b = a @ projection_rowspace(sk.dense() @ a)
        tail = fro_sq(b - best_rank_k(b, k))
        resid = proxy_loss(sk, a, k, cfg) - fro_sq(a - b)
        assert resid >= tail - 1e-9


def test_proxy_config_validation():
    with pytest.raises(ValueError):
        ProxyConfig(1.5)
    with pytest.raises(ValueError):
        ProxyConfig(0.1, subset_cap=0)
    with pytest.raises(ValueError):
        ProxyConfig(0.1, q_constant=0.0)
    # a nan cap passes a bare `< 1` test and sends every instance to the
    # greedy block
    for cap in (float("nan"), 2.5, True):
        with pytest.raises(ValueError, match="^subset_cap must be an integer"):
            ProxyConfig(0.1, subset_cap=cap)
    for c in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^q_constant must be finite and > 0"):
            ProxyConfig(0.1, q_constant=c)


@pytest.mark.parametrize("sketch, a, k, match", [
    (np.ones((2, 5)), np.ones((4, 3)), 1,
     "sketch has 5 columns but the matrix has 4 rows"),
    (np.ones((2, 4)), np.ones((4, 3)), 0, r"^k must satisfy 1 <= k <= min\(A.shape\)"),
    (np.ones((2, 4)), np.ones((4, 3)), 4, r"^k must satisfy 1 <= k <= min\(A.shape\)"),
    (np.ones((2, 4)), np.full((4, 3), np.nan), 1, "non-finite"),
    (np.ones((2, 4)), np.full((4, 3), -np.inf), 1, "non-finite"),
    (np.full((2, 4), np.nan), np.ones((4, 3)), 1, "sketch contains non-finite"),
    # the proxy takes one matrix, the losses a matrix or a stack
    (np.ones((2, 4)), np.ones(3), 1,
     r"^matrix must have (ndim >= 2, got ndim=1|shape \(None, None\), got \(3,\))"),
    (np.ones(4), np.ones((4, 3)), 1,
     r"^sketch must have (ndim >= 2, got ndim=1|shape \(None, None\), got \(4,\))"),
], ids=["width", "k-zero", "k-above-min", "nan", "inf", "sketch-nan", "a-1d",
        "sketch-1d"])
def test_proxy_loss_rejects_what_sketch_loss_rejects(sketch, a, k, match):
    with pytest.raises(ValueError, match=match):
        sketch_loss(sketch, a, k)
    with pytest.raises(ValueError, match=match):
        sketch_loss_and_grad(sketch, a, k)
    with pytest.raises(ValueError, match=match):
        proxy_loss(sketch, a, k, ProxyConfig(0.5))
