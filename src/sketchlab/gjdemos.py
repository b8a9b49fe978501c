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
from .gjtrace import Trace, gj_argmin, gj_min
from .proxy import q_iterations

# The pipeline's final predicate compares the proxy loss with this constant.
_LOSS_THRESHOLD = 0.5


def _lift_inputs(tr, arr, prefix):
    arr = np.asarray(arr, dtype=np.float64)
    return np.array([[tr.input(f"{prefix}{i}_{j}", v) for j, v in enumerate(row)]
                     for i, row in enumerate(arr)], dtype=object)


def power_trace(m, pi, q, tr=None):
    """Trace ``M^q @ pi`` on traced inputs; entry degrees reach q + 1."""
    tr = tr if tr is not None else Trace()
    m_t = _lift_inputs(tr, m, "m")
    pi = np.asarray(pi, dtype=np.float64)
    x = np.array([tr.input(f"p{i}", v) for i, v in enumerate(pi)], dtype=object)
    for _ in range(q):
        x = m_t @ x
    return _floats(x), tr


def min_trace(values, tr=None):
    """Trace the all-pairs minimum of ``r`` inputs; C(r, 2) predicates."""
    tr = tr if tr is not None else Trace()
    lifted = [tr.input(f"v{i}", v) for i, v in enumerate(values)]
    return float(gj_min(tr, lifted)), tr


def rowspace_projection_trace(z, tr=None):
    """Trace the greedy-basis row-space projector of ``z``.

    On a k-by-k input the reported degree bound is exactly ``2k``: Gram
    entries are quadratic, the recurrence multiplies degree by the basis
    size, and the single final division pairs numerator and denominator of
    matching degree.
    """
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
    tr = tr if tr is not None else Trace()
    values = [float(v) for v in values]
    costs = [float(c) for c in costs]
    if min(values) <= 0 or min(costs) <= 0:
        raise ValueError("item values and costs must be positive")
    if len(set(costs)) != len(costs):
        raise ValueError("demo requires pairwise distinct costs")
    rho_v = tr.input("rho", rho)
    r = len(values)

    ge = [[False] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            t_ij = math.log(values[j] / values[i]) / math.log(costs[j] / costs[i])
            rho_at_least = tr.branch(rho_v - tr.const(t_ij))
            out = rho_at_least if costs[j] > costs[i] else not rho_at_least
            ge[i][j] = out
            ge[j][i] = not out

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
    Returns the numeric proxy loss and the trace (the final comparison
    against ``_LOSS_THRESHOLD`` is included).
    """
    tr = tr if tr is not None else Trace()
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[1]

    s_t = np.full((sketch.m, sketch.n), tr.const(0.0), dtype=object)
    for j in range(sketch.n):
        for t in range(sketch.s):
            s_t[sketch.pattern[j, t], j] = tr.input(f"s{j}_{t}", sketch.values[j, t])
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
