"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and enforces its tolerance; instance counts and size ranges are fixed here.
"""

import math
import time

import numpy as np

import sketchlab as sl
from sketchlab import gjdemos
from sketchlab.cli import named_stream
from sketchlab.synth import (
    random_amg_problem,
    random_instance,
    random_unit_matrix,
    spiked_dataset,
)


def _report(name, passed, detail):
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_direct_vs_projection_form_agreement():
    rng = named_stream(1, "equivalence")
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        a, sk, k = random_instance(rng, (3, 12), (3, 12), 6, 6)
        direct = sl.sketch_loss(sk, a, k)
        projected = sl.fro_sq(a - sl.sketch_lowrank_via_projection(a, k, sk))
        worst = max(worst, abs(direct - projected))
    elapsed = time.monotonic() - start
    _report("direct vs projection-form loss equality",
            worst <= 1e-8 and elapsed < 30.0,
            f"max |delta| = {worst:.2e} over 1000 instances, {elapsed:.1f}s")


def test_rank1_closed_form():
    rng = named_stream(2, "closed-form")
    worst = 0.0
    for _ in range(1000):
        n, d = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        a = random_unit_matrix(rng, n, d)
        w = rng.standard_normal(n)
        closed = sl.rank1_closed_form_loss(a, w)
        pipeline = sl.sketch_loss(w.reshape(1, -1), a, 1)
        worst = max(worst, abs(closed - pipeline))
    # exact branches: orthogonal sketching vector, then a rank-1 target
    branch_ok = True
    for _ in range(50):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        a = np.zeros((n, d))
        a[1:] = rng.standard_normal((n - 1, d))
        a /= np.sqrt(sl.fro_sq(a))
        branch_ok &= sl.rank1_closed_form_loss(a, np.eye(n)[:, 0]) == sl.fro_sq(a)
        r1 = np.outer(rng.standard_normal(n), rng.standard_normal(d))
        r1 /= np.sqrt(sl.fro_sq(r1))
        w = r1[:, int(np.argmax(np.abs(r1).sum(axis=0)))]
        branch_ok &= sl.rank1_closed_form_loss(r1, w) <= 1e-10
    _report("rank-1 closed-form loss", worst <= 1e-8 and branch_ok,
            f"max |delta| = {worst:.2e} over 1000 pairs; exact branches ok")


def test_proxy_loss_sandwich():
    rng = named_stream(3, "sandwich")
    instances = [random_instance(rng, (3, 9), (3, 7), 4, 3)
                 for _ in range(1000)]
    epsilons = (0.1, 0.01)
    cfgs = [sl.ProxyConfig(eps, subset_cap=5000, q_constant=4.0) for eps in epsilons]
    start = time.monotonic()
    lo, hi = np.full(len(epsilons), np.inf), np.full(len(epsilons), -np.inf)
    # both epsilons back to back per instance, as power_refine resumes a run
    for a, sk, k in instances:
        true = sl.sketch_loss(sk, a, k)
        delta = np.array([sl.proxy_loss(sk, a, k, cfg) - true for cfg in cfgs])
        lo, hi = np.minimum(lo, delta), np.maximum(hi, delta)
    detail = []
    ok = True
    for eps, low, high in zip(epsilons, lo, hi):
        ok &= low >= -1e-9 and high <= eps + 1e-9
        detail.append(f"eps={eps}: delta in [{low:.2e}, {high:.2e}]")
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _report("proxy loss sandwich", ok,
            "; ".join(detail) + f"; 1000 instances, {elapsed:.0f}s")


def test_greedy_pivot_selection_bound():
    rng = named_stream(4, "pivots")
    sigma_ok = ortho_ok = True
    worst_slack = np.inf
    for _ in range(500):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k + 1, 13))
        v = np.linalg.qr(rng.standard_normal((d, k)))[0].T
        p = sl.greedy_pivot_columns(v)
        smin = np.linalg.svd(v @ p, compute_uv=False)[-1]
        worst_slack = min(worst_slack, smin - 1.0 / np.sqrt(d))
        sigma_ok &= smin >= 1.0 / np.sqrt(d) - 1e-10
        picks = [int(np.argmax(p[:, i])) for i in range(k)]
        basis = np.zeros((k, 0))
        residuals = []
        for j in picks:
            z = v[:, j] - basis @ (basis.T @ v[:, j])
            residuals.append(z)
            basis = np.linalg.qr(np.concatenate([basis, z[:, None]], 1))[0]
        for i in range(k):
            for j in range(i + 1, k):
                ortho_ok &= abs(residuals[i] @ residuals[j]) <= 1e-8
    _report("greedy pivot singular-value bound", sigma_ok and ortho_ok,
            f"min slack over 1/sqrt(d) = {worst_slack:.2e}, 500 draws; "
            f"residuals pairwise orthogonal")


def test_rank1_family_shattering():
    fam = sl.rank1_family(6, 4)
    exact = True
    for mask in range(64):
        subset = {i for i in range(6) if mask >> i & 1}
        sk = sl.subset_sketch(fam, subset)
        for i, a in enumerate(fam.matrices):
            loss = sl.sketch_loss(sk, a, 1)
            exact &= abs(loss) <= 1e-10 if i in subset else abs(loss - 1) <= 1e-10
    report = sl.verify_shattering(fam, gamma=0.4)
    _report("rank-1 family shattering",
            exact and report["all_pass"] and report["subsets_checked"] == 64,
            f"all 64 subsets, losses exactly 0/1, margin {report['min_margin']:.2f}")


def test_subset_families_shattering():
    dense_rep = sl.verify_shattering(sl.dense_family(4, 2), gamma=0.2)
    block_rep = sl.verify_shattering(sl.block_family(8, 2, 1), gamma=0.2)
    ok = (dense_rep["all_pass"] and dense_rep["subsets_checked"] == 16
          and block_rep["all_pass"] and block_rep["subsets_checked"] == 64)
    detail = (
        f"dense 16/16 and block 64/64 subsets (exhaustive superset of any "
        f"200 random draws); off-subset loss {block_rep['miss_loss_min']:.4f} "
        f"vs 1/k = {block_rep['one_over_k']:.4f} and 1/sqrt(k) = "
        f"{block_rep['one_over_sqrt_k']:.4f}"
    )
    _report("subset-indexed families shattering", ok, detail)


def test_tracer_degree_and_predicate_counts():
    rng = named_stream(7, "tracer")
    ok = True
    for q in (1, 3, 6):
        _, tr = gjdemos.power_trace(rng.standard_normal((3, 3)),
                                    rng.standard_normal(3), q)
        ok &= tr.max_degree == q + 1
    for r in (3, 6, 9):
        _, tr = gjdemos.min_trace(rng.standard_normal(r))
        ok &= tr.predicate_count == math.comb(r, 2)
    constants = []
    for k in (2, 3, 4):
        _, tr = gjdemos.rowspace_projection_trace(rng.standard_normal((k, k)))
        constants.append(tr.max_degree / k)
        ok &= tr.max_degree == 2 * k
    _report("tracer degree and predicate counts", ok,
            f"power degree q+1; min-of-r predicates C(r,2); projection "
            f"degree/k = {constants} (constant 2)")


def test_amg_formula_matches_explicit():
    rng = named_stream(8, "amg")
    worst_dev = worst_fix = 0.0
    ok = True
    for _ in range(500):
        n = int(rng.integers(4, 21))
        m = int(rng.integers(2, min(8, n) + 1))
        prob = random_amg_problem(rng, n, m, int(rng.integers(1, 4)),
                                  int(rng.integers(1, 4)))
        x = rng.standard_normal(n)
        x_star = prob.solution()
        dev = float(np.linalg.norm(
            sl.amg_step(prob, x) - sl.amg_step_error_form(prob, x, x_star)))
        allowed = 1e-8 * (1.0 + float(np.linalg.norm(x)))
        fix = float(np.linalg.norm(sl.amg_step(prob, x_star) - x_star))
        ok &= dev <= allowed and fix <= 1e-10
        worst_dev = max(worst_dev, dev)
        worst_fix = max(worst_fix, fix)
    _report("two-level multigrid formula identity", ok,
            f"max deviation {worst_dev:.2e}, max fixed-point error "
            f"{worst_fix:.2e}, 500 problems")


def test_trained_sketch_beats_oblivious():
    start = time.monotonic()
    n = d = 32
    k, m, s = 3, 6, 1
    data_rng = named_stream(2026, "learning-data")
    train_set = spiked_dataset(data_rng, 32, n, d, k, noise=0.1)
    held_out = spiked_dataset(data_rng, 32, n, d, k, noise=0.1)

    pattern = sl.random_sparse_sketch(m, n, s, named_stream(2026, "sketch-init"))
    cfg = sl.TrainConfig(epochs=40, step_size=0.5, batch_size=32,
                         fd_step=1e-5, seed=2026)
    history = []
    trained = sl.sgd_train(pattern, train_set, k, cfg, history=history)
    trained_loss = sl.empirical_loss(trained, held_out, k)

    oblivious = [
        sl.empirical_loss(sl.random_sparse_sketch(m, n, s, 1000 + i),
                          held_out, k)
        for i in range(20)
    ]
    oblivious_mean = float(np.mean(oblivious))

    smoothed = np.convolve(history, np.ones(5) / 5, mode="valid")
    monotone = bool(np.all(np.diff(smoothed) <= 1e-12))
    elapsed = time.monotonic() - start
    ok = trained_loss < oblivious_mean and monotone and elapsed < 600.0
    _report("trained sketch beats oblivious baseline", ok,
            f"held-out {trained_loss:.5f} < oblivious mean "
            f"{oblivious_mean:.5f} over 20 seeds; smoothed curve "
            f"non-increasing; {elapsed:.0f}s")


def test_safeguard_never_hurts():
    rng = named_stream(10, "safeguard")
    worst = -np.inf
    ok = True
    for _ in range(500):
        a, sk, k = random_instance(rng)
        other = sl.random_sparse_sketch(int(rng.integers(1, 4)), sk.n, 1, rng)
        cat = sl.safeguard(sk, other)
        gap = sl.sketch_loss(cat, a, k) - min(sl.sketch_loss(sk, a, k),
                                              sl.sketch_loss(other, a, k))
        worst = max(worst, gap)
        ok &= gap <= 1e-8
    _report("safeguarding never hurts", ok,
            f"max loss increase {worst:.2e} over 500 instances")
