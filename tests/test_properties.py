"""Property tests of the loss contracts over input scale and sketch rank.

Inputs are drawn by ``synth.random_instance`` from a hypothesis-chosen seed,
scaled by ``10**e`` with ``e`` in [-150, 150], and their sketches are made
rank-deficient on purpose: zero rows, duplicated rows, or all-zero values.
Losses are compared relative to ``fro_sq`` of the scaled input.  The
closed-form gradient is checked against central differences of
``sketch_loss`` on sparse sketches with an empty row or a rank-deficient
input, at scales 10**(+-50) of A and of the sketch.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sketchlab.linalg import fro_sq, svd
from sketchlab.proxy import ProxyConfig, proxy_loss
from sketchlab.sketching import (
    SparseSketch,
    rank1_closed_form_loss,
    sketch_lowrank_via_projection,
    sketch_loss,
    sketch_loss_and_grad,
)
from sketchlab.synth import random_instance

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
    a, sketch, k = random_instance(rng, gaussian_values=draw(st.booleans()))
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
