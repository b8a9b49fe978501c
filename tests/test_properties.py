"""Property tests of the loss contracts over input scale and sketch rank.

Inputs are drawn by ``synth.random_instance`` from a hypothesis-chosen seed,
scaled by ``10**e`` with ``e`` in [-150, 150], and their sketches are made
rank-deficient on purpose: zero rows, duplicated rows, or all-zero values.
Losses are compared relative to ``fro_sq`` of the scaled input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlab.linalg import fro_sq
from sketchlab.proxy import ProxyConfig, proxy_loss
from sketchlab.sketching import (
    rank1_closed_form_loss,
    sketch_lowrank_via_projection,
    sketch_loss,
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
