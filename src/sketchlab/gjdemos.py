"""Demo drivers for the complexity tracer.

Each driver runs a concrete arithmetic-and-branches program against the
trace API and returns both the numeric result and the populated trace.
Passing a :class:`~sketchlab.gjtrace.FloatBackend` instead of a fresh
trace replays the identical execution on plain floats, and an
:class:`~sketchlab.gjtrace.ExactBackend` replays it in exact rationals.
Every driver lifts its constants with ``tr.const`` and reads its results
with ``float()`` (``charpoly._floats`` for matrices), so the same code
serves all three.  Matrices are ``dtype=object`` arrays of backend values,
floats included, for the reason :mod:`sketchlab.charpoly` gives.

Rank tests inside the traced routines branch on exact zero (the sign test
pair ``c >= 0`` and ``-c >= 0``), matching the arithmetic-only model; the
routines are :mod:`sketchlab.charpoly`'s Faddeev-LeVerrier recurrence.  On
a trace or float backend those tests see rounded values, so the demos
are meant for generic inputs where float and exact rank decisions agree.
"""

import math
from itertools import combinations

import numpy as np

from .charpoly import _floats, _projection
from .gjtrace import Trace, _pairwise_table, gj_argmin
from .linalg import _check_array, _check_int
from .proxy import ProxyConfig, q_iterations
from .sketching import SparseSketch, _check_loss_args

# The pipeline's final predicate compares the proxy loss with this constant.
_LOSS_THRESHOLD = 0.5


def _lift_inputs(tr, arr, prefix):
    if not arr.size:  # prefix is the argument's name
        raise ValueError(f"{prefix} must be nonempty, got shape {arr.shape}")
    arr = np.asarray(arr, dtype=np.float64)
    return np.array([[tr.input(f"{prefix}{i}_{j}", v) for j, v in enumerate(row)]
                     for i, row in enumerate(arr)], dtype=object)


def power_trace(m, pi, q, tr=None):
    """Trace ``M^q @ pi`` on traced inputs; entry degrees reach q + 1."""
    m, pi = np.asarray(m), np.asarray(pi)
    n = m.shape[0] if m.ndim else None
    _check_array("m", m, (n, n))
    _check_array("pi", pi, (n,))
    _check_int("q", q, 0)
    tr = tr if tr is not None else Trace()
    m_t = _lift_inputs(tr, m, "m")
    x = np.array([tr.input(f"p{i}", v) for i, v in enumerate(pi)], dtype=object)
    for _ in range(q):
        x = m_t @ x
    return _floats(x), tr


def min_trace(values, tr=None):
    """Trace the all-pairs minimum of ``r`` inputs; C(r, 2) predicates."""
    values = np.asarray(values)
    _check_array("values", values, (None,))
    tr = tr if tr is not None else Trace()
    lifted = [tr.input(f"v{i}", v) for i, v in enumerate(values)]
    return float(lifted[gj_argmin(tr, lifted)]), tr


def rowspace_projection_trace(z, tr=None):
    """Trace the greedy-basis row-space projector of ``z``.

    On a k-by-k input the reported degree bound is exactly ``2k``: Gram
    entries are quadratic, the recurrence multiplies degree by the basis
    size, and the single final division pairs numerator and denominator of
    matching degree.
    """
    z = np.asarray(z)
    _check_array("z", z, (None, None))
    tr = tr if tr is not None else Trace()
    numer, denom = _projection(tr, _lift_inputs(tr, z, "z"))
    return _floats(numer / denom), tr


def knapsack_trace(values, costs, capacity, rho, tr=None):
    """Trace the greedy knapsack heuristic with item rank ``v / c^rho``.

    Only ``rho`` is a traced input; every pairwise rank comparison reduces
    to ``rho >= log(v_j/v_i) / log(c_j/c_i)``, a degree-1 predicate, so the
    predicate count is C(#items, 2) (for distinct thresholds) and the
    degree stays 1.  Capacity checks involve instance constants only.
    """
    values, costs = np.asarray(values), np.asarray(costs)
    _check_array("values", values, (None,))
    _check_array("costs", costs, values.shape)
    _check_array("capacity", np.asarray(capacity), ())
    _check_array("rho", np.asarray(rho), ())
    if not values.size:
        raise ValueError("values must be nonempty, got shape (0,)")
    tr = tr if tr is not None else Trace()
    values = [float(v) for v in values]
    costs = [float(c) for c in costs]
    if min(values) <= 0 or min(costs) <= 0:
        raise ValueError("item values and costs must be positive")
    if len(set(costs)) != len(costs):
        raise ValueError("demo requires pairwise distinct costs")
    rho_v = tr.input("rho", rho)
    r = len(values)

    def ranks_at_least(i, j):
        t_ij = math.log(values[j] / values[i]) / math.log(costs[j] / costs[i])
        rho_at_least = tr.branch(rho_v - tr.const(t_ij))
        return rho_at_least if costs[j] > costs[i] else not rho_at_least

    ge = _pairwise_table(r, ranks_at_least)
    order = sorted(range(r), key=lambda i: sum(ge[i][j] for j in range(r)),
                   reverse=True)
    total, used = 0.0, 0.0
    for idx in order:
        if used + costs[idx] <= capacity:
            used += costs[idx]
            total += values[idx]
    return total, tr


def proxy_pipeline_trace(sketch, a, k, epsilon, q_constant=1.0, tr=None):
    """Trace the full proxy-loss pipeline on a tiny instance.

    The sketch slot values are the traced inputs; the data matrix, the
    pattern, and the candidate subsets are constants.  All projectors are
    computed division-last, so the degree stays proportional to
    ``m * k * q`` instead of compounding through nested quotients.
    Returns the numeric proxy loss and the trace (with the final comparison
    against ``_LOSS_THRESHOLD``); refuses what ``proxy_loss`` refuses, by its texts.
    """
    if not isinstance(sketch, SparseSketch):
        raise TypeError(f"sketch must be a SparseSketch, got {type(sketch).__name__}")
    ProxyConfig(epsilon, q_constant=q_constant)  # its epsilon and q_constant rules
    _check_loss_args(sketch, a, k, (None, None))
    tr = tr if tr is not None else Trace()
    d = a.shape[1]

    s_t = np.full((sketch.m, sketch.n), tr.const(0.0), dtype=object)
    sketch._scatter(_lift_inputs(tr, sketch.values, "s"), s_t)  # inputs s{j}_{t}
    a_t = np.array([[tr.const(v) for v in row] for row in a], dtype=object)

    sa = s_t @ a_t
    proj_num, proj_den = _projection(tr, sa)
    bn = a_t @ proj_num  # numerator of B; denominator is proj_den

    q = q_iterations(epsilon, d, q_constant)
    bbt = bn @ bn.T
    w = bn
    for _ in range(q):
        w = bbt @ w

    losses, parts = [], []
    for cols in combinations(range(d), k):
        z_num, z_den = _projection(tr, w[:, cols].T)
        nzb = z_num @ bn
        resid = bn * z_den - nzb
        den = z_den * proj_den
        losses.append((resid * resid).sum() / (den * den))
        parts.append((nzb, den))
    best = gj_argmin(tr, losses)

    nzb, den = parts[best]
    final = a_t * den - nzb
    proxy = (final * final).sum() / (den * den)
    tr.branch(proxy - tr.const(_LOSS_THRESHOLD))
    return float(proxy), tr
