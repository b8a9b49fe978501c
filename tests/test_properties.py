"""Property tests of the loss contracts over input scale and sketch rank.

Inputs are drawn by ``synth.random_instance`` from a hypothesis-chosen seed,
scaled by ``10**e`` with ``e`` in [-150, 150], and their sketches are made
rank-deficient on purpose: zero rows, duplicated rows, or all-zero values.
Losses are compared relative to ``fro_sq`` of the scaled input.  The proxy
bracket is also searched on the small-gap family of
``oracles.small_gap_instance``, over scales 10**(+-100).  The
closed-form gradient is checked against central differences of
``sketch_loss`` on sparse sketches with an empty row or a rank-deficient
input, at scales 10**(+-50) of A and of the sketch.  Stacked losses and
gradients are checked against the per-matrix loop, on stacks that mix
ranks, scales and zero sketches, and the loss against the error of
``sketch_lowrank`` on such stacks at scales 10**(+-100).  Every public
entry point that takes an array is fed arrays of every dtype kind, ndim
0-3, zero-length axes and scales 10**(+-300), writable and read-only, and
must return a finite value or name its fault, leaving the array as it was.
"""

import math
import re

import numpy as np
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from sketchlab.amg import AMGProblem
from sketchlab.linalg import best_rank_k, fro_sq, svd
from sketchlab.proxy import ProxyConfig, power_refine, proxy_loss
from sketchlab.sketching import (
    SparseSketch,
    rank1_closed_form_loss,
    sketch_lowrank,
    sketch_lowrank_via_projection,
    sketch_loss,
    sketch_loss_and_grad,
)
from sketchlab.synth import random_instance
from sketchlab.train import make_dataset

from oracles import small_gap_instance

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

scales = st.integers(-150, 150).map(lambda e: 10.0 ** e)


def _degrade(s: np.ndarray, kind: str, rng) -> np.ndarray:
    """Make the dense sketch ``s`` rank-deficient in the named way."""
    s = s.copy()
    if kind == "zero rows":
        s[rng.permutation(s.shape[0])[:max(1, s.shape[0] // 2)]] = 0.0
    elif kind == "duplicated rows":
        s[1:] = s[0]
    elif kind == "zero values":
        s[:] = 0.0
    return s


@st.composite
def instances(draw):
    """(A, dense sketch, k) with unit-norm A and a possibly degraded sketch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaussian_values = draw(st.booleans())
    a, sketch, k = random_instance(rng)
    if gaussian_values:  # arbitrary trained values, not only +-1
        sketch = sketch.with_values(rng.standard_normal(sketch.values.shape))
    kind = draw(st.sampled_from(
        ["as drawn", "zero rows", "duplicated rows", "zero values"]))
    return a, _degrade(sketch.dense(), kind, rng), k


@PROPERTY
@given(instances(), scales)
def test_relative_sketch_loss_is_scale_invariant(inst, scale):
    a, s, k = inst
    unit = sketch_loss(s, a, k)
    scaled = sketch_loss(s, scale * a, k) / fro_sq(scale * a)
    assert abs(scaled - unit) <= 1e-8


@PROPERTY
@given(instances(), scales)
def test_direct_and_projection_routes_agree_at_every_scale(inst, scale):
    a, s, k = inst
    a = scale * a
    direct = sketch_loss(s, a, k)
    projected = fro_sq(a - sketch_lowrank_via_projection(a, k, s))
    assert abs(direct - projected) <= 1e-8 * fro_sq(a)


@PROPERTY
@given(instances(), scales)
def test_rank1_closed_form_matches_pipeline_at_every_scale(inst, scale):
    a, s, _ = inst
    a = scale * a
    closed = rank1_closed_form_loss(a, s[0])
    pipeline = sketch_loss(s[:1], a, 1)
    assert abs(closed - pipeline) <= 1e-8 * fro_sq(a)


@settings(PROPERTY, max_examples=40)
@given(instances(), scales)
def test_proxy_bracket_holds_at_every_scale(inst, scale):
    a, s, k = inst
    a = scale * a
    cfg = ProxyConfig(0.1)
    delta = (proxy_loss(s, a, k, cfg) - sketch_loss(s, a, k)) / fro_sq(a)
    assert -1e-9 <= delta <= cfg.epsilon + 1e-9


@settings(PROPERTY, max_examples=60)
@given(instances(), scales)
def test_proxy_at_eps_001_is_bracketed_and_scale_free(inst, scale):
    # the energy stall floor is relative to ||B||_F^2, so refinement stops
    # at the same step, and the relative proxy agrees, at every scale
    a, s, k = inst
    cfg = ProxyConfig(0.01)
    unit = proxy_loss(s, a, k, cfg) / fro_sq(a)
    a = scale * a
    relative = proxy_loss(s, a, k, cfg) / fro_sq(a)
    assert abs(relative - unit) <= 1e-8
    delta = relative - sketch_loss(s, a, k) / fro_sq(a)
    assert -1e-9 <= delta <= cfg.epsilon + 1e-9


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from([3, 5, 7]), st.sampled_from([1, 2]),
       st.floats(math.log10(1e-5), math.log10(0.9)).map(lambda e: 10.0 ** e),
       st.sampled_from([0.0, 0.05, 0.1]),
       st.integers(-100, 100).map(lambda e: 10.0 ** e),
       st.integers(0, 2**32 - 1))
def test_proxy_bracket_holds_on_the_small_gap_family(d, k, delta, tail, scale, seed):
    # sigma_{k+1} = 1 - delta slows refinement most near delta ~ 1/(4t);
    # the bracket must hold there at the default q_constant, at both epsilons
    a, s = small_gap_instance(d, k, delta, tail, seed)
    a = scale * a
    true = sketch_loss(s, a, k)
    for eps in (0.1, 0.01):
        delta_rel = (proxy_loss(s, a, k, ProxyConfig(eps)) - true) / fro_sq(a)
        target(delta_rel / eps, label=f"eps={eps}")  # search toward the edge
        assert -1e-9 <= delta_rel <= eps + 1e-9


@st.composite
def gradient_instances(draw):
    """(sparse sketch, A, k) with n, d <= 12, m <= 5, s <= 2 and k <= 3.

    A has a drawn rank, so rank(SA) < m and k > rank(SA) both occur; half
    the sketches with m >= 2 leave row 0 without a slot."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    m = draw(st.integers(1, min(5, n)))
    empty_row = m >= 2 and draw(st.booleans())
    s = draw(st.integers(1, min(2, m - empty_row)))
    k = draw(st.integers(1, min(3, n, d)))
    rank = draw(st.integers(1, min(n, d)))
    keys = rng.random((n, m))
    if empty_row:
        keys[:, 0] = 2.0  # row 0 sorts last, and s < m never reaches it
    pattern = np.sort(np.argsort(keys, axis=1)[:, :s], axis=1)
    sketch = SparseSketch(m, n, s, pattern, rng.standard_normal((n, s)))
    a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    return sketch, a, k


def _slot_grad(sketch, a, k):
    loss, g = sketch_loss_and_grad(sketch, a, k)
    return loss, g[sketch.pattern, np.arange(sketch.n)[:, None]]


scales_50 = st.integers(-50, 50).map(lambda e: 10.0 ** e)


@PROPERTY
@given(gradient_instances(), scales_50, scales_50)
def test_closed_form_gradient_matches_central_differences(inst, ca, cs):
    sketch, a, k = inst
    a = ca * a
    sketch = sketch.with_values(cs * sketch.values)
    sig = svd(a @ svd(sketch.dense() @ a).V).singular_values
    assume(k >= sig.size or sig[k - 1] - sig[k] > 1e-3 * sig[0])
    loss, g = _slot_grad(sketch, a, k)
    assert abs(loss - sketch_loss(sketch, a, k)) <= 1e-14 * fro_sq(a)
    vals = sketch.values
    h = 1e-6 * np.linalg.norm(vals)
    fd = np.empty_like(vals)
    for j in np.ndindex(*vals.shape):
        up, down = vals.copy(), vals.copy()
        up[j] += h
        down[j] -= h
        fd[j] = (sketch_loss(sketch.with_values(up), a, k)
                 - sketch_loss(sketch.with_values(down), a, k)) / (2 * h)
    # where rank(SA) = rank(A) the loss is locally constant and the
    # differences see only their own rounding, ~1e-10 of ||A||^2 / ||S||
    floor = 1e-8 * fro_sq(a) / np.linalg.norm(vals)
    assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(g) + floor


@PROPERTY
@given(gradient_instances(), scales_50, scales_50)
def test_closed_form_gradient_scales_by_c2_in_a_and_1_over_c_in_s(inst, ca, cs):
    sketch, a, k = inst
    _, g = _slot_grad(sketch, a, k)
    _, g_a = _slot_grad(sketch, ca * a, k)
    _, g_s = _slot_grad(sketch.with_values(cs * sketch.values), a, k)
    floor = 1e-10 * fro_sq(a) / np.linalg.norm(sketch.values)
    for scaled in (g_a / ca**2, g_s * cs):
        assert np.linalg.norm(scaled - g) <= 1e-8 * np.linalg.norm(g) + floor


@st.composite
def stacks(draw, scale=scales):
    """(sketch stack, A stack, k): up to 4 matrices of one shape, each A of
    a drawn rank and scale, each sketch as drawn, with empty rows,
    duplicated rows or zero; k = min(n, d) in about half the draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    k = draw(st.one_of(st.just(min(n, d)), st.integers(1, min(n, d))))
    a, s = [], []
    for _ in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(1, min(n, d)))
        a.append(draw(scale) * (rng.standard_normal((n, rank))
                                @ rng.standard_normal((rank, d))))
        kind = draw(st.sampled_from(
            ["as drawn", "zero rows", "duplicated rows", "zero values"]))
        s.append(draw(scale) * _degrade(rng.standard_normal((m, n)), kind, rng))
    return np.stack(s), np.stack(a), k


def _widths(s, a, k):
    """Rank of SA and min(k, rank of AV): the factor widths of a 2-D call."""
    v = svd(s @ a).V
    return v.shape[1], min(k, svd(a @ v).singular_values.size)


# A stack whose matrices share the widths of their 2-D calls masks no column
# and runs each matrix through the same LAPACK and BLAS calls as the loop, so
# the results are equal.  Otherwise the masked columns change the shapes that
# BLAS and LAPACK see, and the results differ by rounding.  The largest
# differences these two tests draw are 2.2e-17 of fro_sq(A) in the loss and
# 5.2e-16 of ||A||_F^3 / sigma_min(SA), the gradient's scale, in the
# gradient; over 6,000 more stacks from a similar generator they were
# 3.2e-16 and 8.8e-16.  Both are held to 1e-14, about 45 units of float64
# roundoff.
STACK_RTOL = 1e-14


def _assert_matches_loop(s, a, k, loss, grad=None):
    uniform = len({_widths(si, ai, k) for si, ai in zip(s, a)}) == 1
    for i, (si, ai) in enumerate(zip(s, a)):
        if grad is None:
            one, g = sketch_loss(si, ai, k), None
        else:
            one, g = sketch_loss_and_grad(si, ai, k)
        if uniform:
            assert loss[i] == one
            if g is not None:
                np.testing.assert_array_equal(grad[i], g)
            continue
        nf = np.sqrt(fro_sq(ai))
        assert abs(loss[i] - one) <= STACK_RTOL * nf * nf
        if g is not None:
            sv = svd(si @ ai).singular_values
            scale = nf * nf * (nf / sv[-1]) if sv.size else 0.0
            assert np.abs(grad[i] - g).max() <= STACK_RTOL * scale


@PROPERTY
@given(stacks())
def test_stacked_sketch_loss_equals_the_per_matrix_loop(stack):
    s, a, k = stack
    _assert_matches_loop(s, a, k, sketch_loss(s, a, k))
    # one sketch against a stack of matrices, as sgd_train calls it
    _assert_matches_loop(np.broadcast_to(s[0], s.shape), a, k,
                         sketch_loss(s[0], a, k))


@PROPERTY
@given(stacks(scales_50))
def test_stacked_loss_and_gradient_equal_the_per_matrix_loop(stack):
    s, a, k = stack
    loss, grad = sketch_loss_and_grad(s, a, k)
    _assert_matches_loop(s, a, k, loss, grad)
    loss, grad = sketch_loss_and_grad(s[0], a, k)
    _assert_matches_loop(np.broadcast_to(s[0], s.shape), a, k, loss, grad)


scales_100 = st.integers(-100, 100).map(lambda e: 10.0 ** e)


@PROPERTY
@given(stacks(scales_100))
def test_sketch_loss_is_the_error_of_the_sketch_and_solve_approximation(stack):
    # the loss comes from singular values, without the rank-k matrix it
    # scores; over 3,000 such stacks the largest difference was 3.8e-16 of
    # fro_sq(A), and 1e-14 is about 45 units of float64 roundoff
    s, a, k = stack
    for si, ai in ((s[0], a[0]), (s, a), (s[0], a)):
        want = fro_sq(ai - sketch_lowrank(ai, k, si))
        assert np.all(np.abs(sketch_loss(si, ai, k) - want) <= 1e-14 * fro_sq(ai))


@st.composite
def any_arrays(draw):
    """An array of dtype bool, int, float, complex or object, ndim 0-3 with
    axes of length 0-3, Gaussian entries times 10**e, e in [-300, 300]."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(["bool", "int", "float", "complex", "object"]))
    if kind == "int":  # clipped where the int64 cast would overflow
        x = np.clip(np.rint(x), -2.0 ** 62, 2.0 ** 62).astype(np.int64)
    elif kind != "float":
        x = {"bool": x > 0.0, "complex": x * (1.0 + 1.0j),
             "object": np.asarray(x, dtype=object)}[kind]
    return np.asarray(x)  # ndim 0 gives a numpy scalar until here


def _entry_point_calls(x):
    """(call, names) for each entry point with ``x`` in one array argument
    and fitting valid arrays in the others; a refusal must start with one
    of ``names``."""
    n = x.shape[-2] if x.ndim >= 2 else 3
    d = x.shape[-1] if x.ndim >= 1 else 3
    sketch = np.eye(2, n) + 0.5
    # slot values of x's shape fit a 3-row sketch with max(d, 1) <= 3 slots
    rows, slots = max(n, 1), max(d, 1)
    sparse = SparseSketch(3, rows, slots, np.tile(np.arange(slots), (rows, 1)),
                          np.ones((rows, slots)))
    loss_names = ("matrix", "sketch", "k")
    amg = dict(a=np.diag([1.5, 1.2, 1.8]) + 0.1, b=np.ones(3), p=np.ones((3, 1)),
               s1=1, s2=1, x0=np.zeros(3))
    return [
        (lambda: sketch_loss(sketch, x, 1), loss_names),
        (lambda: sketch_loss_and_grad(sketch, x, 1), loss_names),
        (lambda: proxy_loss(sketch, x, 1, ProxyConfig(0.5)), loss_names),
        (lambda: best_rank_k(x, 1), ("a", "k")),
        (lambda: make_dataset(x), ("matrices", r"matrix \d+")),
        # a stored factor is refused by its own name: I - L^{-1} A, L^{-1} b,
        # P^T A P or (P^T A P)^{-1}
        *((lambda key=key: AMGProblem(**(amg | {key: x})),
           ("A", "b", "P", "x0", "I", "L", r"\(P"))
          for key in ("a", "b", "p", "x0")),
        (lambda: power_refine(x, np.eye(d)[None, :, :1], 2), ("b", "p", "q")),
        (lambda: power_refine(np.ones((2, 3)), x, 2), ("b", "p", "q")),
        (lambda: sparse.with_values(x), ("values",)),
    ]


@settings(PROPERTY, max_examples=300)
@given(any_arrays())
def test_every_array_entry_point_returns_finite_values_or_names_its_fault(x):
    # no warning either: the suite turns warnings into errors.  Each call
    # also takes a read-only copy of x, and none may write into its input
    before = x.copy()
    read_only = x.copy()
    read_only.flags.writeable = False
    for call, names in (*_entry_point_calls(x), *_entry_point_calls(read_only)):
        try:
            out = call()
        except (TypeError, ValueError) as exc:
            assert re.match(rf"({'|'.join(names)})\b", str(exc)), repr(exc)
            continue
        finally:
            assert x.dtype == before.dtype and x.tobytes() == before.tobytes()
        if isinstance(out, AMGProblem):
            out = (out.smoother, out.shift, out.coarse, out.coarse_inv)
        elif isinstance(out, SparseSketch):
            out = out.values
        for part in out if isinstance(out, tuple) else (out,):
            assert np.isfinite(part).all()
