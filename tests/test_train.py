from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sketchlab.linalg import fro_sq
from sketchlab.proxy import ProxyConfig
from sketchlab.sketching import random_sparse_sketch, sketch_loss
from sketchlab.synth import random_instance, random_unit_matrix
from sketchlab.train import (
    TrainConfig,
    _descend,
    empirical_loss,
    make_dataset,
    safeguard,
    sgd_train,
)

from oracles import central_difference_grad, finite_difference_sgd


def test_train_config_validation():
    TrainConfig(1, 0.1, 1)
    with pytest.raises(ValueError):
        TrainConfig(1, 0.0, 1)
    for step in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^step_size must be finite"):
            TrainConfig(1, step, 1)
    with pytest.raises(ValueError):
        TrainConfig(1, 0.1, 0)
    with pytest.raises(ValueError):
        TrainConfig(1, 0.1, 1, fd_step=1e-2)


@pytest.mark.parametrize("args, name", [
    ((1.5, 0.1, 2), "epochs"),
    ((True, 0.1, 2), "epochs"),
    ((1, 0.1, 1.5), "batch_size"),
    ((1, 0.1, True), "batch_size"),
])
def test_train_config_refuses_non_integer_counts(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        TrainConfig(*args)


@pytest.mark.parametrize("cfg, field, bad, match", [
    (TrainConfig(2, 0.1, 1), "step_size", -1.0, "^step_size must be finite and > 0"),
    (TrainConfig(2, 0.1, 1), "batch_size", 0, "^batch_size must be >= 1"),
    (ProxyConfig(0.5), "subset_cap", 0, "^subset_cap must be >= 1"),
], ids=["TrainConfig-step_size", "TrainConfig-batch_size", "ProxyConfig-subset_cap"])
def test_configs_are_frozen_and_replace_checks_the_copy(cfg, field, bad, match):
    # a config is checked at construction only, so it must not change after
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, field, bad)
    with pytest.raises(ValueError, match=match):
        replace(cfg, **{field: bad})


def test_make_dataset_normalizes_and_validates():
    rng = np.random.default_rng(0)
    mats = [5.0 * rng.standard_normal((4, 3)) for _ in range(3)]
    data = make_dataset(mats)
    assert isinstance(data, np.ndarray)
    assert data.dtype == np.float64 and data.shape == (3, 4, 3)
    for a, m in zip(data, mats):
        assert abs(fro_sq(a) - 1.0) <= 1e-9
        np.testing.assert_array_equal(a, m / np.sqrt(fro_sq(m)))
    stack = np.stack(mats)
    np.testing.assert_array_equal(make_dataset(stack), data)
    np.testing.assert_array_equal(stack, np.stack(mats))  # input untouched
    assert make_dataset([np.eye(2, dtype=int)]).dtype == np.float64
    with pytest.raises(ValueError):
        make_dataset([])
    with pytest.raises(ValueError):
        make_dataset([np.ones((2, 2)), np.ones((3, 2))])
    with pytest.raises(ValueError, match="matrix 1 is zero"):
        make_dataset([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(ValueError, match="matrix 2 contains non-finite"):
        make_dataset([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])


def test_training_on_the_stack_equals_training_on_its_matrices():
    rng = np.random.default_rng(4)
    data = make_dataset([rng.standard_normal((6, 5)) for _ in range(5)])
    pattern = random_sparse_sketch(3, 6, 1, 1)
    cfg = TrainConfig(3, 0.2, 2, seed=3)
    hist_stack, hist_list = [], []
    trained = sgd_train(pattern, data, 2, cfg, history=hist_stack)
    np.testing.assert_array_equal(
        trained.values,
        sgd_train(pattern, list(data), 2, cfg, history=hist_list).values)
    assert hist_stack == hist_list
    assert empirical_loss(trained, data[3:], 2) == \
        empirical_loss(trained, list(data[3:]), 2)


def test_empirical_loss_cases():
    rng = np.random.default_rng(1)
    data = make_dataset([rng.standard_normal((6, 4)) for _ in range(4)])
    sk = random_sparse_sketch(3, 6, 1, 2)
    single = empirical_loss(sk, data[:1], 2)
    assert abs(single - sketch_loss(sk, data[0], 2)) < 1e-15
    zero = random_sparse_sketch(3, 6, 1, 2).with_values(np.zeros((6, 1)))
    assert abs(empirical_loss(zero, data, 2) - 1.0) < 1e-12


def test_mixed_shapes_are_named():
    data = [np.eye(4, 3), np.eye(4, 3), np.eye(4, 2)]
    sk = random_sparse_sketch(2, 4, 1, 0)
    with pytest.raises(ValueError, match=r"matrix 2 has shape \(4, 2\), "
                                         r"expected \(4, 3\)"):
        empirical_loss(sk, data, 1)
    with pytest.raises(ValueError, match=r"matrix 2 has shape \(4, 2\)"):
        sgd_train(sk, data, 1, TrainConfig(1, 0.1, 2))
    with pytest.raises(ValueError, match=r"matrix 1 has shape \(4,\)"):
        empirical_loss(sk, [np.eye(4, 3), np.ones(4)], 1)


def test_an_array_that_is_not_a_stack_is_named_by_its_ndim():
    # a single matrix is not a dataset of its rows
    for data in (np.ones((4, 3)), np.ones((2, 2, 4, 3))):
        with pytest.raises(ValueError, match=rf"\(N, n, d\) stack, got ndim={data.ndim}"):
            make_dataset(data)


def test_empirical_loss_zero_on_perfectly_sketched_rank_k():
    rng = np.random.default_rng(2)
    k, n, d = 2, 6, 5
    rows = rng.standard_normal((k, d))
    data = make_dataset([rng.standard_normal((n, k)) @ rows for _ in range(3)])
    dense_rows = rng.standard_normal((k, n))
    assert empirical_loss(dense_rows, data, k) <= 1e-10


def test_sgd_zero_epochs_returns_initialization():
    rng = np.random.default_rng(3)
    data = make_dataset([rng.standard_normal((5, 4)) for _ in range(2)])
    sk = random_sparse_sketch(2, 5, 1, 4)
    out = sgd_train(sk, data, 2, TrainConfig(0, 0.1, 2))
    np.testing.assert_array_equal(out.values, sk.values)
    np.testing.assert_array_equal(out.pattern, sk.pattern)


def test_sgd_fits_singleton_near_rank_k_dataset():
    # strong rank-k signal plus mild noise, with the second signal
    # direction placed in the null space of the initialized sketch: the
    # initial loss is large and the descent path is kink-free
    rng = np.random.default_rng(5)
    k, n, d = 2, 5, 4
    pattern = random_sparse_sketch(k, n, k, 6)
    null = np.linalg.svd(pattern.dense())[2][k:].T
    u1 = rng.standard_normal(n)
    u1 /= np.linalg.norm(u1)
    u2 = null @ rng.standard_normal(n - k)
    u2 -= (u2 @ u1) * u1
    u2 /= np.linalg.norm(u2)
    r = np.linalg.qr(rng.standard_normal((d, 2)))[0]
    a = (np.outer(u1, r[:, 0]) + np.outer(u2, r[:, 1])
         + 0.02 * rng.standard_normal((n, d)))
    data = make_dataset([a])
    initial = empirical_loss(pattern, data, k)
    cfg = TrainConfig(epochs=80, step_size=0.5, batch_size=1, seed=6)
    trained = sgd_train(pattern, data, k, cfg)
    final = empirical_loss(trained, data, k)
    assert initial > 0.1
    assert final <= 0.01 * initial


def test_sgd_pattern_immutable_and_deterministic():
    rng = np.random.default_rng(7)
    data = make_dataset([rng.standard_normal((6, 4)) for _ in range(4)])
    sk = random_sparse_sketch(3, 6, 2, 8)
    cfg = TrainConfig(epochs=3, step_size=0.2, batch_size=2, seed=9)
    h1, h2 = [], []
    out1 = sgd_train(sk, data, 2, cfg, history=h1)
    out2 = sgd_train(sk, data, 2, cfg, history=h2)
    np.testing.assert_array_equal(out1.pattern, sk.pattern)
    np.testing.assert_array_equal(out1.values, out2.values)
    assert h1 == h2
    assert len(h1) == 3


def test_an_int_seed_repeats_the_run():
    rng = np.random.default_rng(7)
    data = make_dataset([rng.standard_normal((6, 4)) for _ in range(4)])
    sk = random_sparse_sketch(3, 6, 2, 8)
    cfg = TrainConfig(epochs=2, step_size=0.2, batch_size=1, seed=9)
    # the config holds no generator: each run, and a copy's, starts afresh
    runs = [sgd_train(sk, data, 2, c).values for c in (cfg, cfg, replace(cfg))]
    for run in runs[1:]:
        np.testing.assert_array_equal(run, runs[0])


def test_sgd_train_follows_finite_difference_sgd_on_full_batches():
    rng = np.random.default_rng(17)
    data = make_dataset([rng.standard_normal((6, 5)) for _ in range(3)])
    sk = random_sparse_sketch(3, 6, 2, 18)
    cfg = TrainConfig(epochs=3, step_size=0.2, batch_size=3, seed=19)

    def mean_loss(vals):
        return empirical_loss(sk.with_values(vals.reshape(sk.values.shape)),
                              data, 2)

    h_closed, h_fd = [], []
    closed = sgd_train(sk, data, 2, cfg, history=h_closed)
    fd = finite_difference_sgd(sk.values, mean_loss, cfg, history=h_fd)
    np.testing.assert_allclose(closed.values.ravel(), fd, rtol=1e-9)
    np.testing.assert_allclose(h_closed, h_fd, rtol=1e-9)
    assert h_closed[-1] < mean_loss(sk.values)


def test_fd_sgd_aborts_on_non_finite_loss():
    cfg = TrainConfig(1, 0.1, 1)

    def bad_loss(vals):
        return float("nan")

    with pytest.raises(FloatingPointError):
        finite_difference_sgd(np.ones(2), bad_loss, cfg)


def test_descent_aborts_on_non_finite_loss_or_gradient():
    cfg = TrainConfig(2, 0.1, 2)

    def grads(loss, g):
        return lambda vals, idx: ([loss] * len(idx), g * len(idx))

    for bad in (grads(float("nan"), np.ones(2)), grads(1.0, np.full(2, np.inf))):
        with pytest.raises(FloatingPointError, match="at epoch 0, items"):
            _descend(np.ones(2), [0, 1, 2], cfg, bad, lambda v: 1.0, None)
    with pytest.raises(FloatingPointError, match="after epoch 0"):
        _descend(np.ones(2), [0, 1, 2], cfg, grads(1.0, np.ones(2)),
                 lambda v: float("inf"), [])


def test_descent_aborts_on_a_step_that_leaves_a_value_non_finite():
    cfg = TrainConfig(1, 1e10, 1)

    def huge(vals, idx):
        return [1.0] * len(idx), np.full(2, 1e300)

    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match=r"^non-finite loss, gradient "
                                                     r"or step at epoch 0, items"):
            _descend(np.ones(2), [0, 1], cfg, huge, lambda v: 1.0, None)


@pytest.mark.parametrize("epochs", [0, 1])
@pytest.mark.parametrize("change, match", [
    ({"data": np.full((2, 6, 4), np.nan)}, "matrix contains non-finite entries"),
    ({"k": 99}, r"k must satisfy 1 <= k <= min\(A.shape\), got k=99"),
    ({"data": np.ones((2, 5, 4))}, "sketch has 6 columns but the matrix has 5 rows"),
], ids=["nan-data", "k-out-of-range", "width-mismatch"])
def test_sgd_train_refuses_bad_loss_arguments_before_any_epoch(epochs, change, match):
    # the loss family's texts, at epochs=0 too, where no loss is computed
    args = {"data": make_dataset([np.eye(6, 4), np.ones((6, 4))]), "k": 2} | change
    with pytest.raises(ValueError, match=f"^{match}$"):
        sgd_train(random_sparse_sketch(3, 6, 1, 2), args["data"], args["k"],
                  TrainConfig(epochs, 0.1, 1))


def test_empty_training_sets_are_named():
    with pytest.raises(ValueError, match="dataset must be nonempty"):
        sgd_train(random_sparse_sketch(3, 6, 1, 2), [], 2, TrainConfig(1, 0.1, 1))


def test_fd_gradient_matches_four_point_stencil():
    rng = np.random.default_rng(10)
    a, sk, k = random_instance(rng)
    vals = sk.values.copy()
    idx = (0, 0)
    h = 1e-5

    def loss_at(v):
        w = vals.copy()
        w[idx] = v
        return sketch_loss(sk.with_values(w), a, k)

    x0 = vals[idx]
    two_point = central_difference_grad(
        lambda v: sketch_loss(sk.with_values(v.reshape(vals.shape)), a, k),
        vals, h)[0]
    four_point = (
        -loss_at(x0 + 2 * h) + 8 * loss_at(x0 + h)
        - 8 * loss_at(x0 - h) + loss_at(x0 - 2 * h)
    ) / (12 * h)
    assert abs(two_point - four_point) <= 1e-3 * max(1e-6, abs(four_point))


def test_safeguard_shapes_and_pattern():
    s1 = random_sparse_sketch(3, 7, 2, 0)
    s2 = random_sparse_sketch(2, 7, 1, 1)
    cat = safeguard(s1, s2)
    assert (cat.m, cat.n, cat.s) == (5, 7, 3)
    np.testing.assert_array_equal(
        cat.dense(), np.concatenate([s1.dense(), s2.dense()], axis=0))
    with pytest.raises(ValueError):
        safeguard(s1, random_sparse_sketch(2, 6, 1, 1))


def test_safeguard_with_zero_rows_keeps_loss():
    rng = np.random.default_rng(11)
    a, sk, k = random_instance(rng)
    zero = random_sparse_sketch(2, sk.n, 1, 3).with_values(np.zeros((sk.n, 1)))
    cat = safeguard(sk, zero)
    assert abs(sketch_loss(cat, a, k) - sketch_loss(sk, a, k)) <= 1e-12


def test_safeguard_never_worse_than_either_input():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, sk, k = random_instance(rng)
        other = random_sparse_sketch(int(rng.integers(1, 4)), sk.n, 1, rng)
        cat = safeguard(sk, other)
        bound = min(sketch_loss(sk, a, k), sketch_loss(other, a, k))
        assert sketch_loss(cat, a, k) <= bound + 1e-8


def test_few_shot_and_empirical_loss_name_bad_inputs():
    # few_shot_loss is retired; empirical_loss names the same bad inputs
    rng = np.random.default_rng(16)
    a = random_unit_matrix(rng, 6, 4)
    with pytest.raises(ValueError, match="sketch has 5 columns but .* 6 rows"):
        empirical_loss(np.ones((2, 5)), [a], 2)
    with pytest.raises(ValueError, match="non-finite"):
        empirical_loss(np.ones((2, 6)), [np.full((6, 4), np.nan)], 2)
    with pytest.raises(ValueError, match="dataset must be nonempty"):
        empirical_loss(random_sparse_sketch(3, 6, 1, 2), [], 2)
