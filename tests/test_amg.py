import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sketchlab.amg as amg
from sketchlab.amg import (
    AMGProblem,
    DivergenceError,
    amg_loss,
    amg_loss_and_grad,
    amg_step,
    amg_step_error_form,
    smoothing_sweep,
    train_prolongation,
)
from sketchlab.synth import random_amg_problem
from sketchlab.train import TrainConfig

from oracles import (
    amg_error_propagator,
    amg_step_solved,
    central_difference_grad,
    finite_difference_sgd,
)


def test_sweep_solves_lower_triangular_exactly():
    rng = np.random.default_rng(0)
    a = np.tril(rng.standard_normal((5, 5))) + 3.0 * np.eye(5)
    x_star = rng.standard_normal(5)
    b = a @ x_star
    out = smoothing_sweep(AMGProblem(a, b, np.eye(5), 1, 0), np.zeros(5))
    np.testing.assert_allclose(out, x_star, atol=1e-12)


def test_sweep_fixed_point_and_error_form():
    rng = np.random.default_rng(1)
    a = np.diag(rng.uniform(1, 2, 6)) + 0.1 * rng.standard_normal((6, 6))
    x_star = rng.standard_normal(6)
    b = a @ x_star
    prob = AMGProblem(a, b, np.eye(6), 1, 0)
    np.testing.assert_allclose(smoothing_sweep(prob, x_star), x_star, atol=1e-12)
    x = rng.standard_normal(6)
    prop = np.eye(6) - np.linalg.solve(np.tril(a), a)
    expected = x_star + prop @ (x - x_star)
    np.testing.assert_allclose(smoothing_sweep(prob, x), expected, atol=1e-10)


def test_sweep_rejects_zero_diagonal():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        smoothing_sweep(AMGProblem(a, np.ones(2), np.eye(2), 1, 0), np.zeros(2))
    # the guard is row-relative: 1e-12 of its own row is zero, at any scale
    a = np.array([[1e6, 0.0], [1.0, 1e-12]])
    with pytest.raises(ValueError, match="^A has a numerically singular diagonal"):
        AMGProblem(a, np.ones(2), np.ones((2, 1)), 1, 0)


def test_sweep_matches_triangular_solve_on_graded_diagonal():
    # the zero-diagonal guard judges each row on its own, so the diagonal
    # spans twelve decades; off-diagonals follow the grading.  A coarse
    # space of one column of ones is well conditioned (P = I is not: its
    # coarse matrix is A itself)
    rng = np.random.default_rng(12)
    n = 12
    diag = np.geomspace(1e-6, 1e6, n)
    a = np.outer(np.sqrt(diag), np.sqrt(diag)) * 0.3 * rng.standard_normal((n, n))
    np.fill_diagonal(a, diag)
    b, x = rng.standard_normal(n), rng.standard_normal(n)
    out = smoothing_sweep(AMGProblem(a, b, np.ones((n, 1)), 1, 0), x)
    ref = x + np.linalg.solve(np.tril(a), b - a @ x)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_import_leaves_scipy_linalg_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, sketchlab; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_step_fixed_point():
    rng = np.random.default_rng(2)
    prob = random_amg_problem(rng, 8, 3, 2, 1)
    x_star = prob.solution()
    np.testing.assert_allclose(amg_step(prob, x_star), x_star, atol=1e-10)


def test_full_coarse_space_solves_exactly():
    rng = np.random.default_rng(3)
    n = 6
    a = np.diag(rng.uniform(1, 2, n)) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    p = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    prob = AMGProblem(a, b, p, 0, 0, rng.standard_normal(n))
    out = amg_step(prob, prob.x0)
    np.testing.assert_allclose(out, prob.solution(), atol=1e-8)


def test_coarse_correction_is_projector_on_error():
    rng = np.random.default_rng(4)
    n = 8
    a = np.diag(rng.uniform(1, 2, n)) + 0.1 * rng.standard_normal((n, n))
    prob = AMGProblem(a, rng.standard_normal(n),
                      random_amg_problem(rng, n, 3, 1, 1).p, 0, 0)
    x = rng.standard_normal(n)
    once = amg_step(prob, x)
    twice = amg_step(prob, once)
    np.testing.assert_allclose(once, twice, atol=1e-9)


def test_formula_matches_explicit_step():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 21))
        m = int(rng.integers(2, min(8, n) + 1))
        prob = random_amg_problem(rng, n, m, int(rng.integers(1, 4)),
                                  int(rng.integers(1, 4)))
        x = rng.standard_normal(n)
        x_star = prob.solution()
        dev = np.linalg.norm(amg_step(prob, x)
                             - amg_step_error_form(prob, x, x_star))
        assert dev <= 1e-8 * (1.0 + np.linalg.norm(x))


@pytest.mark.parametrize("n, m, s1, s2", [(6, 2, 0, 0), (12, 4, 2, 1),
                                          (20, 5, 0, 3), (200, 25, 2, 1)])
def test_error_form_applies_the_dense_propagator(n, m, s1, s2):
    rng = np.random.default_rng(n + s1)
    drawn = random_amg_problem(rng, n, m, s1, s2)
    prob = AMGProblem(drawn.a.copy(), drawn.b, drawn.p, s1, s2)
    # S and c come from one substitution on A's lower triangle, which
    # leaves A as it was
    np.testing.assert_array_equal(prob.a, drawn.a)
    np.testing.assert_allclose(
        prob.smoother, np.eye(n) - np.linalg.solve(np.tril(prob.a), prob.a),
        rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(prob.shift, np.linalg.solve(np.tril(prob.a), prob.b),
                               rtol=1e-10, atol=1e-12)
    # S = -L^{-1} triu(A, 1), and triu(A, 1) has no first column
    assert not prob.smoother[:, 0].any()
    x_star = prob.solution()
    for _ in range(3):
        x = rng.standard_normal(n)
        want = x_star + amg_error_propagator(prob.a, prob.p, s1, s2) @ (x - x_star)
        np.testing.assert_allclose(amg_step_error_form(prob, x, x_star), want,
                                   rtol=1e-10, atol=1e-10 * np.linalg.norm(x))


@pytest.mark.parametrize("n, m", [(100, 20), (200, 25)])
def test_large_coarse_systems_build_and_step(n, m):
    rng = np.random.default_rng(11)
    prob = random_amg_problem(rng, n, m, 2, 1)
    x = rng.standard_normal(n)

    def sweep(y):
        return y + np.linalg.solve(np.tril(prob.a), prob.b - prob.a @ y)

    ref = sweep(sweep(x))
    coarse = prob.p.T @ prob.a @ prob.p
    ref = ref + prob.p @ np.linalg.solve(coarse, prob.p.T @ (prob.b - prob.a @ ref))
    ref = sweep(ref)
    np.testing.assert_allclose(amg_step(prob, x), ref, rtol=1e-10, atol=1e-10)


def test_loss_at_zero_cycles_and_at_solution():
    rng = np.random.default_rng(6)
    prob = random_amg_problem(rng, 8, 3, 1, 1)
    r0 = prob.a @ prob.x0 - prob.b
    assert amg_loss(prob, 0) == pytest.approx(float(r0 @ r0))
    solved = AMGProblem(prob.a, prob.b, prob.p, prob.s1, prob.s2,
                        prob.solution())
    for q in (0, 1, 3):
        assert amg_loss(solved, q) <= 1e-20


def test_loss_decreases_on_dominated_systems():
    rng = np.random.default_rng(7)
    prob = random_amg_problem(rng, 8, 4, 2, 2)
    losses = [amg_loss(prob, q) for q in range(5)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_loss_equals_propagated_error_form():
    rng = np.random.default_rng(8)
    prob = random_amg_problem(rng, 10, 4, 1, 2)
    x_star = prob.solution()
    x = prob.x0
    for _ in range(3):
        x = amg_step_error_form(prob, x, x_star)
    r = prob.a @ x - prob.b
    assert amg_loss(prob, 3) == pytest.approx(float(r @ r), abs=1e-9)


def test_divergence_is_reported():
    a = np.array([[1.0, 3.0], [3.0, 1.0]])
    p = np.array([[1.0], [0.0]])
    prob = AMGProblem(a, np.ones(2), p, 1, 1, np.array([5.0, -3.0]))
    with pytest.raises(DivergenceError):
        amg_loss(prob, 60)


def test_loss_is_scale_invariant_and_the_guard_with_it():
    # a convergent 12x12 problem (relative loss 2.6e-10 after 3 cycles);
    # an absolute norm bound called the scaled-up iterates divergent
    prob = random_amg_problem(np.random.default_rng(0), 12, 4, 1, 1)
    base = amg_loss(prob, 3)
    for s in (1e-100, 1e13, 1e100):
        scaled = AMGProblem(prob.a, s * prob.b, prob.p, 1, 1, s * prob.x0)
        assert amg_loss(scaled, 3) / s**2 == pytest.approx(base, rel=1e-8)


def test_problem_validation():
    rng = np.random.default_rng(9)
    a = np.diag(rng.uniform(1, 2, 4))
    with pytest.raises(ValueError):
        AMGProblem(a, np.ones(4), np.zeros((4, 2)), 1, 1)  # singular coarse
    bad = a.copy()
    bad[2, 2] = 0.0
    with pytest.raises(ValueError):
        AMGProblem(bad, np.ones(4), np.ones((4, 1)), 1, 1)


def _problem_args(**changes):
    """A 4x4 diagonally dominant problem with one coarse column."""
    return dict(a=np.diag([1.5, 1.2, 1.8, 1.1]) + 0.1, b=np.ones(4),
                p=np.ones((4, 1)), s1=1, s2=1, x0=np.zeros(4)) | changes


@pytest.mark.parametrize("changes, match", [
    ({"s1": 1.5}, "^s1 must be an integer"),
    ({"s2": True}, "^s2 must be an integer"),
    ({"a": np.diag([1.0, 1.0, np.nan, 1.0])}, "^A contains non-finite entries"),
    ({"p": np.array([[1.0], [1.0], [1.0], [np.inf]])}, "^P contains non-finite entries"),
    ({"b": np.array([np.nan, 1.0, 1.0, 1.0])}, "^b contains non-finite entries"),
    ({"x0": np.array([0.0, 0.0, np.nan, 0.0])}, "^x0 contains non-finite entries"),
    ({"p": np.ones(4)}, r"^P must have shape \(4, None\), got \(4,\)"),
    ({"a": np.float64(2.0)}, r"^A must have shape \(None, None\), got \(\)"),
])
def test_problem_refuses_non_integer_counts_and_non_finite_arrays(changes, match):
    with pytest.raises(ValueError, match=match):
        AMGProblem(**_problem_args(**changes))


def test_cycle_count_and_prolongation_values_are_checked():
    prob = AMGProblem(**_problem_args())
    with pytest.raises(ValueError, match="^q must be an integer"):
        amg_loss(prob, 1.5)
    with pytest.raises(ValueError, match="^q must be an integer"):
        amg_loss_and_grad(prob, True)
    with pytest.raises(ValueError, match="^values contains non-finite entries"):
        prob.with_prolongation_values([1.0, np.nan, 1.0, 1.0])


def test_train_prolongation_reduces_loss():
    rng = np.random.default_rng(10)
    problems = []
    base = random_amg_problem(rng, 8, 3, 1, 1)
    for _ in range(3):
        b = rng.standard_normal(8)
        problems.append(AMGProblem(base.a, b, base.p, 1, 1,
                                   rng.standard_normal(8)))
    before = np.mean([amg_loss(pr, 1) for pr in problems])
    vals = train_prolongation(problems, TrainConfig(8, 0.05, 1, seed=0), q=1)
    after = np.mean([
        amg_loss(pr.with_prolongation_values(vals), 1) for pr in problems
    ])
    assert after < before


def test_gradient_runs_the_cycles_once(monkeypatch):
    prob = random_amg_problem(np.random.default_rng(15), 10, 3, 2, 1)
    calls, sweep = [], amg._sweep

    def counted(pr, x):
        calls.append(1)
        return sweep(pr, x)

    monkeypatch.setattr(amg, "_sweep", counted)
    amg_loss_and_grad(prob, 3)
    assert len(calls) == 3 * (prob.s1 + prob.s2)


def test_new_prolongation_values_reuse_the_smoother_and_match_a_fresh_problem(
        monkeypatch):
    rng = np.random.default_rng(16)
    prob = random_amg_problem(rng, 12, 4, 2, 1)
    mask = prob.p != 0.0
    vals = prob.p[mask] * rng.uniform(0.5, 1.5, mask.sum())
    fresh_p = np.zeros_like(prob.p)
    fresh_p[mask] = vals
    fresh = AMGProblem(prob.a, prob.b, fresh_p, prob.s1, prob.s2, prob.x0)

    def no_solve(*args):
        raise AssertionError("S and c formed again")

    monkeypatch.setattr(amg, "solve_triangular", no_solve)
    new = prob.with_prolongation_values(vals)
    assert new.smoother is prob.smoother and new.shift is prob.shift
    np.testing.assert_array_equal(new.coarse, fresh.coarse)
    np.testing.assert_array_equal(new.coarse_inv, fresh.coarse_inv)
    assert amg_loss(new, 2) == amg_loss(fresh, 2)
    loss, grad = amg_loss_and_grad(new, 2)
    fresh_loss, fresh_grad = amg_loss_and_grad(fresh, 2)
    assert loss == fresh_loss
    np.testing.assert_array_equal(grad, fresh_grad)
    # one column of values all zero leaves P^T A P rank deficient
    dead = np.zeros_like(prob.p)
    dead[mask] = vals
    dead[:, 0] = 0.0
    with pytest.raises(ValueError, match="P\\^T A P is numerically singular"):
        prob.with_prolongation_values(dead[mask])


def test_cycle_matches_a_solve_based_cycle_on_an_ill_conditioned_coarse_matrix():
    # one P column scaled by 3e-5 puts cond(P^T A P) near 1.4e9; the LU
    # inverse stays within 2e-16 of the solve-based cycle, where an inverse
    # formed from the SVD as V S^{-1} U^T would be 9e-12 off
    rng = np.random.default_rng(1)
    drawn = random_amg_problem(rng, 20, 5, 1, 1)
    p = drawn.p.copy()
    p[:, 0] *= 3e-5
    prob = AMGProblem(drawn.a, drawn.b, p, 1, 1, drawn.x0)
    assert np.linalg.cond(prob.coarse) > 1e9
    x = rng.standard_normal(20)
    want = amg_step_solved(prob.a, prob.b, prob.p, 1, 1, x)
    np.testing.assert_allclose(amg_step(prob, x), want, rtol=0,
                               atol=1e-13 * np.linalg.norm(want))


def test_no_cycle_solves_a_linear_system(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a cycle called np.linalg.solve")

    problems = _family(np.random.default_rng(21), 8, 3, 2)
    prob, x = problems[0], np.random.default_rng(22).standard_normal(8)
    want = amg_step_solved(prob.a, prob.b, prob.p, 1, 1, x)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    np.testing.assert_allclose(amg_step(prob, x), want, rtol=1e-12)
    amg_step_error_form(prob, x, x)
    amg_loss(prob, 3)
    amg_loss_and_grad(prob, 3)
    train_prolongation(problems, TrainConfig(2, 0.05, 2), q=2, history=[])


def test_problem_is_frozen_and_owns_read_only_copies():
    rng = np.random.default_rng(23)
    drawn = random_amg_problem(rng, 8, 3, 1, 1)
    b, x = drawn.b.copy(), rng.standard_normal(8)
    prob = AMGProblem(drawn.a, b, drawn.p, 1, 1, drawn.x0)
    before = amg_step(prob, x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.b = np.zeros(8)
    # a later write into the caller's b does not reach the problem
    b[:] = np.nan
    np.testing.assert_array_equal(amg_step(prob, x), before)
    new = prob.with_prolongation_values(prob.p[prob.p != 0.0] * 2.0)
    for owner in (prob, new):
        for name in ("a", "b", "p", "x0", "smoother", "shift", "coarse", "coarse_inv"):
            assert not getattr(owner, name).flags.writeable, name


def _zeroed(rng):
    """Two problems of one family, the first with one prolongation value
    set to exactly 0, and the full value vector of the second."""
    problems = _family(rng, 8, 3, 2)
    vals = problems[1].p[problems[1].p != 0.0]
    zero_one = vals.copy()
    zero_one[1] = 0.0
    return problems[0].with_prolongation_values(zero_one), problems[1], vals


def test_zero_values_keep_the_prolongation_pattern():
    zeroed, other, vals = _zeroed(np.random.default_rng(17))
    assert np.count_nonzero(zeroed.p) == vals.size - 1
    again = zeroed.with_prolongation_values(vals)
    np.testing.assert_array_equal(again.p, other.p)
    with pytest.raises(ValueError, match=rf"^values must have shape \({vals.size},\), "
                                         rf"got \({vals.size - 1},\)"):
        zeroed.with_prolongation_values(vals[1:])


def test_train_prolongation_reads_the_pattern_fixed_at_construction():
    zeroed, other, vals = _zeroed(np.random.default_rng(18))
    out = train_prolongation([zeroed, other], TrainConfig(2, 0.05, 1), q=1)
    assert out.shape == vals.shape and out[1] != 0.0


def _family(rng, n, m, count):
    """``count`` problems on one A and one P pattern, with their own b and x0."""
    base = random_amg_problem(rng, n, m, 1, 1)
    return [AMGProblem(base.a, rng.standard_normal(n), base.p, 1, 1,
                       rng.standard_normal(n)) for _ in range(count)]


def test_train_prolongation_follows_finite_difference_sgd_on_full_batches():
    problems = _family(np.random.default_rng(11), 8, 3, 3)
    mask = problems[0].p != 0.0
    cfg = TrainConfig(epochs=3, step_size=0.05, batch_size=4, seed=12)

    def mean_loss(vals):
        return np.mean([amg_loss(pr.with_prolongation_values(vals), 1)
                        for pr in problems])

    h_closed, h_fd = [], []
    closed = train_prolongation(problems, cfg, q=1, history=h_closed)
    fd = finite_difference_sgd(problems[0].p[mask], mean_loss, cfg, history=h_fd)
    np.testing.assert_allclose(closed, fd, rtol=1e-9)
    np.testing.assert_allclose(h_closed, h_fd, rtol=1e-9)
    assert h_closed[-1] < mean_loss(problems[0].p[mask])


def test_each_call_checks_its_arrays_once_and_kernels_run_unchecked(
        monkeypatch, amg_array_checks):
    def no_public_sweep(*args):
        raise AssertionError("a kernel called the public smoothing_sweep")

    monkeypatch.setattr(amg, "smoothing_sweep", no_public_sweep)
    problems = _family(np.random.default_rng(19), 8, 3, 3)
    prob, x = problems[0], np.random.default_rng(20).standard_normal(8)
    for call, want in [
        (lambda: amg_step(prob, x), ["x"]),
        (lambda: smoothing_sweep(prob, x), ["x"]),  # this module's own binding
        (lambda: amg_step_error_form(prob, x, x), ["x", "x_star"]),
        (lambda: amg_loss(prob, 3), []),
        (lambda: amg_loss_and_grad(prob, 3), []),
        # 3 full-batch steps and 3 history entries over 3 problems: only
        # the guards on P^T A P and its inverse run, once per problem in each
        (lambda: train_prolongation(problems, TrainConfig(3, 0.05, 3), history=[]),
         ["P^T A P", "(P^T A P)^{-1}"] * 18),
    ]:
        amg_array_checks.clear()
        call()
        assert amg_array_checks == want


def test_train_prolongation_refuses_bad_arguments_before_any_cycle(monkeypatch):
    def no_cycle(*args):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(amg, "_cycle", no_cycle)
    problems = _family(np.random.default_rng(21), 8, 3, 2)
    with pytest.raises(TypeError, match=r"^problems\[2\] must be an AMGProblem"):
        train_prolongation(problems + [problems[0].p], TrainConfig(1, 0.1, 1))
    with pytest.raises(ValueError, match="^q must be an integer"):
        train_prolongation(problems, TrainConfig(1, 0.1, 1), q="x")
    with pytest.raises(TypeError, match="^cfg must be a TrainConfig"):
        train_prolongation(problems, {"epochs": 1})


def test_train_prolongation_rejects_empty_and_mixed_families():
    with pytest.raises(ValueError, match="dataset must be nonempty"):
        train_prolongation([], TrainConfig(1, 0.1, 1))
    problems = _family(np.random.default_rng(13), 8, 3, 2)
    other = random_amg_problem(np.random.default_rng(14), 8, 2, 1, 1)
    with pytest.raises(ValueError, match="share one prolongation pattern"):
        train_prolongation(problems + [other], TrainConfig(1, 0.1, 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(0, 2),
       st.integers(0, 2), st.integers(1, 3))
def test_closed_form_prolongation_gradient_matches_central_differences(
        seed, n, s1, s2, q):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    try:
        prob = random_amg_problem(rng, n, m, s1, s2, noise=0.5)
        loss, grad = amg_loss_and_grad(prob, q)
    except (ValueError, DivergenceError):
        assume(False)
    assert loss == amg_loss(prob, q)
    # unconverged: once q cycles leave under 1e-6 of the initial squared
    # residual, the differences read their own rounding, not the slope
    r0 = prob.a @ prob.x0 - prob.b
    assume(loss >= 1e-6 * (r0 @ r0))
    mask = prob.p != 0.0
    vals = prob.p[mask]
    fd = central_difference_grad(
        lambda v: amg_loss(prob.with_prolongation_values(v), q), vals,
        1e-6 * np.linalg.norm(vals))
    assert np.linalg.norm(grad[mask] - fd) <= 1e-5 * np.linalg.norm(fd)
