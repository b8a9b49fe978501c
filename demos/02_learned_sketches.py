r"""Learning the sketch from data
=================================

When inputs share structure (here: a common low-rank row space plus
noise), the values of the sparse sketch can be trained on past inputs and
transfer to unseen ones.  The sparsity pattern stays frozen; SGD follows
the closed-form gradient of the loss in the slot values, which exists
wherever the rank of SA and the gap below its top k directions hold.
"""

# %%
import numpy as np

import sketchlab as sl
from sketchlab.cli import named_stream
from sketchlab.synth import spiked_dataset

n = d = 32
k, m, s = 3, 6, 1

rng = named_stream(2026, "learning-data")
train_set = spiked_dataset(rng, 32, n, d, k, noise=0.1)
held_out = spiked_dataset(rng, 32, n, d, k, noise=0.1)

# %%
# Train the slot values; the history records the per-epoch training loss.

pattern = sl.random_sparse_sketch(m, n, s, named_stream(2026, "sketch-init"))
cfg = sl.TrainConfig(epochs=40, step_size=0.5, batch_size=32, seed=2026)
history = []
trained = sl.sgd_train(pattern, train_set, k, cfg, history=history)

print("loss curve (every 5 epochs):",
      [f"{v:.5f}" for v in history[::5]])

# %%
# Compare against fresh oblivious sketches on held-out matrices.

trained_loss = sl.empirical_loss(trained, held_out, k)
oblivious = [
    sl.empirical_loss(sl.random_sparse_sketch(m, n, s, 1000 + i), held_out, k)
    for i in range(20)
]
print(f"trained held-out loss:  {trained_loss:.5f}")
print(f"oblivious mean (20):    {np.mean(oblivious):.5f}  "
      f"[{min(oblivious):.5f}, {max(oblivious):.5f}]")

# %%
# Safeguarding: stacking an oblivious block under the trained sketch
# guarantees the result is never worse than either part alone.

guard = sl.safeguard(trained, sl.random_sparse_sketch(m, n, s, 99))
print("safeguarded held-out loss:", sl.empirical_loss(guard, held_out, k))
