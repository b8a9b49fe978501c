r"""Tracing arithmetic complexity for capacity bounds
=====================================================

Programs restricted to rational arithmetic and sign-test branches admit
capacity bounds of the form ``n_params * log2(degree * predicates)``.
The tracer runs such a program on concrete inputs while carrying
conservative degree bounds and a canonical fingerprint per branch
predicate, then reports the bound.

Each driver below is a small worked example; passing a
:class:`~sketchlab.gjtrace.FloatBackend` replays the identical execution
on bare floats, confirming the instrumentation never perturbs results.
"""

# %%
import math

import numpy as np

from sketchlab import gjdemos
from sketchlab.gjtrace import FloatBackend, pdim_bound
from sketchlab.proxy import q_iterations
from sketchlab.sketching import random_sparse_sketch
from sketchlab.synth import random_unit_matrix

rng = np.random.default_rng(0)

# %%
# Repeated matrix-vector powering: the running time grows with q, but the
# degree of every output entry is only q + 1, so the capacity bound grows
# logarithmically.

m = rng.standard_normal((4, 4))
pi = rng.standard_normal(4)
for q in (2, 8, 32):
    _, tr = gjdemos.power_trace(m, pi, q)
    print(f"q={q:3d}: degree={tr.max_degree:3d} predicates="
          f"{tr.predicate_count} bound={tr.report()['pdim_bound']:.1f}")

# %%
# Choosing the minimum of r values needs all pairwise sign tests: degree 1
# but C(r, 2) distinct predicates.

for r in (4, 8):
    _, tr = gjdemos.min_trace(rng.standard_normal(r))
    print(f"r={r}: predicates={tr.predicate_count} (C(r,2)="
          f"{math.comb(r, 2)}), degree={tr.max_degree}")

# %%
# The row-space projector built from the characteristic-polynomial
# recurrence: on a k-by-k input the degree bound is exactly 2k because the
# single division pairs a degree-2k numerator with the degree-2k free
# coefficient.

for k in (2, 4):
    z = rng.standard_normal((k, k))
    proj, tr = gjdemos.rowspace_projection_trace(z)
    print(f"k={k}: degree={tr.max_degree} (= 2k), "
          f"predicates={tr.predicate_count}")

# %%
# A classic from data-driven algorithm selection: greedy knapsack with
# item rank v / c^rho.  Only rho is a parameter, every comparison is a
# degree-1 predicate in rho, and the bound scales like log of the pair
# count.

values = rng.uniform(1, 5, 8)
costs = np.sort(rng.uniform(1, 3, 8)) * np.arange(1, 9)
utility, tr = gjdemos.knapsack_trace(values, costs,
                                     capacity=float(costs.sum() / 2), rho=1.0)
print(f"knapsack utility={utility:.2f} predicates={tr.predicate_count} "
      f"bound={pdim_bound(1, tr):.2f} bits")

# %%
# The full proxy-loss pipeline is itself such a program.  On a tiny
# instance the realized degree stays proportional to m * k * q, which is
# what drives the headline capacity bound for learned sketches.

a = random_unit_matrix(rng, 3, 3)
sketch = random_sparse_sketch(2, 3, 1, rng)
value, tr = gjdemos.proxy_pipeline_trace(sketch, a, k=1, epsilon=0.5,
                                         q_constant=1.0)
q = q_iterations(0.5, 3, 1.0)
print(f"proxy value={value:.6f} degree={tr.max_degree} "
      f"(m*k*q={2 * 1 * q}) predicates={tr.predicate_count}")
print("report:", tr.report())

replay, _ = gjdemos.proxy_pipeline_trace(sketch, a, k=1, epsilon=0.5,
                                         q_constant=1.0, tr=FloatBackend())
print("float replay identical:", replay == value)
