"""The three workloads and the parts they are made of.

A part runs one kind of program work on prepared inputs, times each program
call, checks every output against ``reference`` and counts operations.  A
workload's round runs its own parts (timed into ``wall_s``) and then a
small probe slice of every other part, so that each run reports all
end-to-end metrics; probes run outside ``wall_s`` and outside the traced
counters.
"""

import math
import os
import shutil

import numpy as np

import sketchlab as sl
from sketchlab import gjdemos

import inputs as gen
import reference as ref
from reference import check, check_close

TRAIN_EPOCHS = 5
TRAIN_STEP = 30.0
TRAIN_BATCH = 4
AMG_Q = {20: 20, 200: 10}
GAMMA = {"rank1-indicator": 0.4, "dense-subset": 0.2, "block-subset": 0.2}
SHATTER_BUDGET = 32


# --- parts -------------------------------------------------------------------

def run_proxy(ctx, instances):
    """True loss and proxy at every epsilon for each instance, checked
    against the reference loss, the Eckart-Young bounds, the proxy bracket
    and (rescaled slice) scale invariance."""
    cfgs = [sl.ProxyConfig(eps, gen.SUBSET_CAP, gen.Q_CONSTANT) for eps in gen.EPSILONS]
    rel_by_group = {}
    for inst in instances:
        a, sk, k = inst["a"], inst["sketch"], inst["k"]
        with ctx.op(f"proxy/{inst['kind']}", known_fault=inst["kind"] == "tiny"):
            t = ctx.clock()
            loss = sl.sketch_loss(sk, a, k)
            proxies = [sl.proxy_loss(sk, a, k, cfg) for cfg in cfgs]
            ctx.record("proxy", ctx.clock() - t, 1)
            ctx.feed(loss, *proxies)
            true = ref.sketch_loss_ref(sk, a, k)
            ref.check_loss(loss, true, a, k)
            exhaustive = math.comb(a.shape[1], k) <= gen.SUBSET_CAP
            for eps, value in zip(gen.EPSILONS, proxies):
                ref.check_proxy(value, true, a, eps, exhaustive)
            if inst["group"] is not None:
                rels = rel_by_group.setdefault(inst["group"], [])
                rels.append(loss / ref.fro_sq(a))
                if len(rels) == len(gen.RESCALE_FACTORS):
                    ref.check_scale_invariance(rels)


def run_matio(ctx, learn, workdir):
    """Round-trip the datasets through SKLB1 files; returns the read-back
    copies, which the rest of the round uses."""
    os.makedirs(workdir, exist_ok=True)
    out = {}
    for key in ("train", "held"):
        back = []
        for i, a in enumerate(learn[key]):
            path = os.path.join(workdir, f"{key}{i}.sklb")
            with ctx.op("matio/matrix"):
                ctx.call(sl.write_matrix, path, a)
                b = ctx.call(sl.read_matrix, path)
                ref.check_bit_exact(a, b, "matrix")
                back.append(b)
        out[key] = back
    return out


def run_sketch_roundtrip(ctx, sketch, workdir):
    path = os.path.join(workdir, "sketch.json")
    with ctx.op("matio/sketch"):
        ctx.call(sl.save_sketch, path, sketch)
        loaded = ctx.call(sl.load_sketch, path)
        ref.check_bit_exact(sketch.pattern, loaded.pattern, "sketch pattern")
        ref.check_bit_exact(sketch.values, loaded.values, "sketch values")
        return loaded
    return None


def run_train(ctx, learn, train_set, epochs, seed):
    """Finite-difference SGD on the slot values; returns the trained sketch."""
    cfg = sl.TrainConfig(epochs=epochs, step_size=TRAIN_STEP,
                         batch_size=TRAIN_BATCH, fd_step=1e-5, seed=seed)
    pattern = learn["pattern"]
    with ctx.op("train"):
        history = []
        t = ctx.clock()
        trained = sl.sgd_train(pattern, train_set, learn["k"], cfg, history=history)
        ctx.record("train", ctx.clock() - t, epochs)
        ctx.feed(trained.values, history)
        check(np.array_equal(trained.pattern, pattern.pattern), "pattern moved")
        check(np.all(np.isfinite(trained.values)), "non-finite slot values")
        check(len(history) == epochs and np.all(np.isfinite(history)),
              f"loss history {history}")
        return trained
    return None


def _eval(ctx, sketch, a, k):
    """One checked held-out evaluation; returns the loss."""
    with ctx.op("eval"):
        t = ctx.clock()
        loss = sl.sketch_loss(sketch, a, k)
        ctx.record("eval", ctx.clock() - t, 1)
        ctx.feed(loss)
        ref.check_loss(loss, ref.sketch_loss_ref(sketch, a, k), a, k)
        return loss
    return math.nan


def run_eval(ctx, learn, held, trained):
    """Held-out losses of the trained sketch, of oblivious sketches on the
    same pattern and of safeguard stacks; plus the 128-by-128 slice."""
    k = learn["k"]
    mean = {}
    if trained is not None:
        mean["trained"] = np.mean([_eval(ctx, trained, a, k) for a in held])
    mean["oblivious"] = np.mean([_eval(ctx, sk, a, k)
                                 for sk in learn["oblivious"] for a in held])
    if trained is not None:
        with ctx.op("eval/trained-beats-oblivious"):
            check(mean["trained"] < mean["oblivious"],
                  f"trained {mean['trained']:.5f} >= oblivious {mean['oblivious']:.5f}")
    base = trained if trained is not None else learn["pattern"]
    for partner in learn["partners"]:
        stacked = ctx.call(sl.safeguard, base, partner)
        for a in held:
            both = _eval(ctx, stacked, a, k)
            alone = min(_eval(ctx, base, a, k), _eval(ctx, partner, a, k))
            with ctx.op("eval/safeguard"):
                check(both <= alone + ref.BRACKET_RTOL * ref.fro_sq(a),
                      f"safeguard raised loss {alone:.6e} -> {both:.6e}")
    for sk in learn["wide_sketches"]:
        for a in learn["wide"]:
            _eval(ctx, sk, a, k)


def run_shatter(ctx, families, seed):
    """verify_shattering on each family: exhaustive up to 14 members, a
    random subset budget above."""
    for fam in families:
        n_members = len(fam.matrices)
        with ctx.op(f"shatter/{fam.builder}"):
            t = ctx.clock()
            rep = sl.verify_shattering(fam, subset_budget=SHATTER_BUDGET,
                                       gamma=GAMMA[fam.builder], seed=seed)
            ctx.record("shatter", ctx.clock() - t, rep["subsets_checked"])
            ctx.feed(rep["min_margin"])
            want = 2 ** n_members if n_members <= 14 else SHATTER_BUDGET
            check(rep["subsets_checked"] == want,
                  f"{rep['subsets_checked']} subsets checked, expected {want}")
            check(rep["all_pass"] and rep["min_margin"] > 0,
                  f"margin {rep['min_margin']:.3e} on {fam.builder} N={n_members}")


def run_amg(ctx, problems):
    """amg_step, amg_step_error_form and amg_loss against solve-based
    references, and the fixed point at x*."""
    for prob, x in problems:
        a, b, p, s1, s2 = prob.a, prob.b, prob.p, prob.s1, prob.s2
        x_star = np.linalg.solve(a, b)
        q = AMG_Q[a.shape[0]]
        with ctx.op("amg/step"):
            t = ctx.clock()
            y = sl.amg_step(prob, x)
            ctx.record("amg", ctx.clock() - t, 1)
            ctx.feed(y)
            check_close(y, ref.amg_step_ref(a, b, p, s1, s2, x), "amg_step")
        with ctx.op("amg/fixed-point"):
            t = ctx.clock()
            y = sl.amg_step(prob, x_star)
            ctx.record("amg", ctx.clock() - t, 1)
            ctx.feed(y)
            check_close(y, x_star, "fixed point", rtol=1e-10)
        with ctx.op("amg/error-form"):
            y = ctx.call(sl.amg_step_error_form, prob, x, x_star)
            ctx.feed(y)
            check_close(y, ref.amg_error_form_ref(a, p, s1, s2, x, x_star),
                        "amg_step_error_form")
        with ctx.op("amg/loss"):
            t = ctx.clock()
            loss = sl.amg_loss(prob, q)
            ctx.record("amg", ctx.clock() - t, q)
            ctx.feed(loss)
            xq = prob.x0
            for _ in range(q):
                xq = ref.amg_step_ref(a, b, p, s1, s2, xq)
            want = float(np.linalg.norm(a @ xq - b))
            scale = 1.0 + float(np.linalg.norm(a)) * float(np.linalg.norm(xq))
            check(abs(math.sqrt(loss) - want) <= ref.AMG_RTOL * scale,
                  f"amg_loss residual {math.sqrt(loss):.6e} vs {want:.6e}")


def run_gj(ctx, g):
    """The five tracer demos against closed-form counts and references."""
    def timed_demo(fn, *args, **kwargs):
        t = ctx.clock()
        out = fn(*args, **kwargs)
        ctx.record("gj", ctx.clock() - t, 1)
        ctx.feed(np.asarray(out[0], dtype=np.float64))
        return out

    for m, pi, q in g["power"]:
        with ctx.op("gj/power"):
            val, tr = timed_demo(gjdemos.power_trace, m, pi, q)
            check(tr.max_degree == q + 1, f"power degree {tr.max_degree} != {q + 1}")
            check_close(val, np.linalg.matrix_power(m, q) @ pi, "power_trace", 1e-12)
    for values in g["minimum"]:
        with ctx.op("gj/min"):
            val, tr = timed_demo(gjdemos.min_trace, values)
            r = len(values)
            check(tr.predicate_count == math.comb(r, 2),
                  f"min predicates {tr.predicate_count} != C({r},2)")
            check(val == float(np.min(values)), "min_trace value")
    for z in g["projection"]:
        with ctx.op("gj/projection"):
            proj, tr = timed_demo(gjdemos.rowspace_projection_trace, z)
            k = z.shape[0]
            check(tr.max_degree == 2 * k, f"projection degree {tr.max_degree} != {2 * k}")
            check_close(proj, ref.projector_ref(z), "projection_trace", 1e-8)
    for values, costs, capacity, rho in g["knapsack"]:
        with ctx.op("gj/knapsack"):
            total, tr = timed_demo(gjdemos.knapsack_trace, values, costs, capacity, rho)
            r = len(values)
            check(tr.predicate_count == math.comb(r, 2) and tr.max_degree == 1,
                  f"knapsack predicates {tr.predicate_count}, degree {tr.max_degree}")
            check(total == ref.knapsack_ref(values, costs, capacity, rho),
                  "knapsack value")
    cfg = sl.ProxyConfig(0.5, 5000, 1.0)
    for sk, a in g["pipeline"]:
        with ctx.op("gj/pipeline"):
            val, tr = timed_demo(gjdemos.proxy_pipeline_trace, sk, a, 1, 0.5, q_constant=1.0)
            numeric = ctx.call(sl.proxy_loss, sk, a, 1, cfg)
            check(abs(val - numeric) <= 1e-8, f"pipeline {val:.12e} vs proxy_loss {numeric:.12e}")
            check(tr.n_inputs == sk.n * sk.s, "pipeline input count")


# --- workloads -----------------------------------------------------------------

def _families(main):
    if not main:
        return [sl.rank1_family(6, 4)]
    return [sl.rank1_family(8, 3), sl.dense_family(6, 2), sl.block_family(10, 2, 1),
            sl.rank1_family(16, 3), sl.dense_family(10, 2), sl.block_family(18, 2, 1)]


class Workload:
    """Inputs for every part at probe size, plus the workload's own parts at
    full size; ``own`` names the parts that count into ``wall_s``."""

    own = ()
    fresh = ()   # keys of parts whose inputs change every round

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        # Probe inputs do not depend on --seed: they only report a layer's
        # metric on a workload that is not about that layer, and fixed
        # inputs keep those figures free of input-to-input spread.
        rng = gen.rng_for(gen.PROBE_SEED, gen.PROBE)
        self.probe = dict(
            proxy=gen.proxy_probe(rng, 16),
            learn=gen.learn_inputs(gen.PROBE_SEED, n_train=8, n_held=8, oblivious=2,
                                   stacks=1, wide=0, probe=True),
            families=_families(main=False),
            amg=gen.amg_inputs(rng, gen.AMG_SMALL[:2]),
            gj=gen.gj_inputs(rng, pipelines=1),
        )
        self.setup_own()

    def setup_own(self):
        pass

    def warm_up(self, ctx):
        self.run_probes(ctx, parts=("proxy", "learn", "shatter", "amg", "gj"))

    def run_probes(self, ctx, parts):
        p = self.probe
        if "proxy" in parts:
            run_proxy(ctx, p["proxy"])
        if "learn" in parts:
            run_train(ctx, p["learn"], p["learn"]["train"], 1, gen.PROBE_SEED)
            run_eval(ctx, p["learn"], p["learn"]["held"], None)
        if "shatter" in parts:
            run_shatter(ctx, p["families"], gen.PROBE_SEED)
        if "amg" in parts:
            run_amg(ctx, p["amg"])
        if "gj" in parts:
            run_gj(ctx, p["gj"])

    def round(self, ctx, index):
        with ctx.main():
            self.run_own(ctx, index)
        self.run_probes(ctx, parts=[p for p in ("proxy", "learn", "shatter", "amg", "gj")
                                    if p not in self.own])


class ProxySandwich(Workload):
    own = ("proxy",)
    fresh = ("proxy",)

    def setup_own(self):
        self.next_round = gen.proxy_round(self.seed, 0)

    def run_own(self, ctx, index):
        instances = self.next_round if index == 0 else gen.proxy_round(self.seed, index)
        run_proxy(ctx, instances)


class LearnSketch(Workload):
    own = ("learn",)

    def setup_own(self):
        self.learn = gen.learn_inputs(self.seed)

    def run_own(self, ctx, index):
        work = os.path.join(self.workdir, "learn")
        shutil.rmtree(work, ignore_errors=True)
        data = run_matio(ctx, self.learn, work)
        trained = run_train(ctx, self.learn, data["train"], TRAIN_EPOCHS, self.seed)
        if trained is not None:
            trained = run_sketch_roundtrip(ctx, trained, work)
        run_eval(ctx, self.learn, data["held"], trained)


class VerifyLabs(Workload):
    own = ("shatter", "amg", "gj")

    def setup_own(self):
        rng = gen.rng_for(self.seed, gen.AMG)
        self.families = _families(main=True)
        self.amg = gen.amg_inputs(rng, gen.AMG_SMALL + gen.AMG_LARGE)
        self.gj = gen.gj_inputs(gen.rng_for(self.seed, gen.GJ))

    def run_own(self, ctx, index):
        run_shatter(ctx, self.families, self.seed)
        run_amg(ctx, self.amg)
        run_gj(ctx, self.gj)


WORKLOADS = {
    "proxy-sandwich": ProxySandwich,
    "learn-sketch": LearnSketch,
    "verify-labs": VerifyLabs,
}
