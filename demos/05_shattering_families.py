r"""Shattered instance families
===============================

Lower bounds on learnability come from explicit families of inputs that a
sketch class can shatter: for every subset there must be a sketch whose
loss is high exactly on that subset.  Three constructions are built here.
Each stores one base sketch (the witness for the empty subset) and one
switch slot per member; the witness for a subset is the base sketch with
the slots of its members set to 1.  Each family is verified subset by
subset.
"""

# %%
import numpy as np

import sketchlab as sl

# %%
# Rank-1 family: matrix i has a single unit entry in row i.  The base sketch
# is the zero row vector and slot i is its entry i, so a subset's witness is
# its indicator vector: members get zero loss, everything else keeps loss one.

fam = sl.rank1_family(6, 4)
sk = sl.subset_sketch(fam, {0, 2, 5})
losses = [sl.sketch_loss(sk, a, 1) for a in fam.matrices]
print("rank-1 family losses for subset {0, 2, 5}:",
      [f"{v:.1f}" for v in losses])

report = sl.verify_shattering(fam, gamma=0.4)
print("verification:", {k: report[k] for k in
                        ("N", "subsets_checked", "all_pass", "min_margin")})

# %%
# Dense family: k(n-k) rank-k matrices built by swapping one identity
# column for a later one.  The base sketch is an identity block and the
# slots flag subset members in the extra columns; off-subset losses are
# exactly 1/k.

dense = sl.dense_family(4, 2)
report = sl.verify_shattering(dense, gamma=0.2)
print("\ndense family:", {k: report[k] for k in
                          ("N", "subsets_checked", "all_pass")})
print(f"off-subset loss {report['miss_loss_min']:.4f} vs candidates "
      f"1/k = {report['one_over_k']:.4f}, "
      f"1/sqrt(k) = {report['one_over_sqrt_k']:.4f}")

# %%
# Block family: the same gadget tiled along a block diagonal so the
# witnessing sketch keeps at most s nonzeros per column, giving a family
# of size (n - k) s.

block = sl.block_family(8, 2, 1)
sk = sl.subset_sketch(block, range(0, len(block.matrices), 2))
print("\nblock family sketch column nonzeros:",
      int(np.count_nonzero(sk.dense(), axis=0).max()), "(s = 1)")
report = sl.verify_shattering(block, gamma=0.2)
print("block family:", {k: report[k] for k in
                        ("N", "subsets_checked", "all_pass", "min_margin")})
