r"""Two-level multigrid stepping
===============================

One cycle of two-level algebraic multigrid smooths with forward
Gauss-Seidel sweeps, corrects through a coarse space spanned by a
prolongation matrix, then smooths again.  Around the exact solution the
whole cycle is a fixed linear map of the error, which gives a closed form
to check the stepping against, and makes the prolongation values a
trainable parameter like the sketch values elsewhere in the package.
"""

# %%
import numpy as np

import sketchlab as sl
from sketchlab.synth import random_amg_problem
from sketchlab.train import TrainConfig

rng = np.random.default_rng(0)
prob = random_amg_problem(rng, n=16, m=5, s1=2, s2=1)

# %%
# The explicit cycle and the error-propagation formula agree to roundoff.

x = rng.standard_normal(16)
x_star = prob.solution()
explicit = sl.amg_step(prob, x)
formula = sl.amg_step_error_form(prob, x, x_star)
print("step deviation:", np.linalg.norm(explicit - formula))
print("fixed point deviation:",
      np.linalg.norm(sl.amg_step(prob, x_star) - x_star))

# %%
# Residual decay over cycles on a diagonally dominated system.

print("\nresidual squared by cycle:")
for q in range(6):
    print(f"  q={q}: {sl.amg_loss(prob, q):.3e}")

# %%
# The prolongation values sit on a frozen aggregation pattern and can be
# trained across a family of right-hand sides by mini-batch SGD on the
# closed-form gradient of the cycle loss, as sketch values are.

problems = [
    sl.AMGProblem(prob.a, rng.standard_normal(16), prob.p, 1, 1,
                  rng.standard_normal(16))
    for _ in range(4)
]
before = np.mean([sl.amg_loss(p, 1) for p in problems])
values = sl.train_prolongation(problems, TrainConfig(30, 0.5, 1, seed=1), q=1)
after = np.mean([
    sl.amg_loss(p.with_prolongation_values(values), 1) for p in problems
])
print(f"\nmean cycle loss before training: {before:.4e}")
print(f"mean cycle loss after training:  {after:.4e}")
