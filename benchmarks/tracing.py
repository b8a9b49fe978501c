"""Call counters and perf_counter spans around sketchlab, for the traced run.

``install`` replaces every public function of the package's modules, at
every name a sketchlab module bound it to, with a wrapper that records a
span; two methods (``SparseSketch.dense`` and ``Trace.op``) are wrapped on
their classes.  The ``numpy.linalg`` entry points the package calls, and
``scipy.linalg.solve_triangular`` as bound in ``sketchlab.amg``, are wrapped
as kernel spans that count only when a sketchlab span is open, so the
benchmark's own reference computations stay out of the counts.  Wrappers
call straight through while the tracer is inactive, and never touch
arguments or results, so traced outputs are bit-identical to untraced ones.

Spans are aggregated in memory (calls, total and self seconds per name, and
calls per parent-child edge) and written out once, at the end of the run.
"""

import functools
import inspect
import json
import math
import os
from collections import Counter
from time import perf_counter

import numpy as np

import sketchlab
from sketchlab import amg, charpoly, gjdemos, gjtrace, linalg, matio, proxy
from sketchlab import shatter, sketching, train

LAYER_MODULES = (linalg, sketching, charpoly, proxy, train, shatter, amg,
                 gjtrace, gjdemos, matio)
KERNELS = ("qr", "svd", "solve", "norm", "matrix_power")


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                 # open spans: [name, child seconds]
        self.stats = {}                 # name -> [calls, total s, self s]
        self.edges = Counter()          # (parent, child) -> calls
        self.counters = Counter()

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def wrap(self, name, fn, kernel=False, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (kernel and not tracer.stack):
                return fn(*args, **kwargs)
            state = before(tracer, args) if before else None
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                parent = tracer.stack[-1] if tracer.stack else None
                if parent is not None:
                    parent[1] += dt
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                tracer.edges[(parent[0] if parent else None, name)] += 1
            if after:
                after(tracer, args, out, state)
            return out

        return wrapper

    def dump(self, path):
        doc = {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": k}
                      for (p, c), k in sorted(self.edges.items(), key=str)],
            "counters": dict(self.counters),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


# --- counters derived at layer boundaries ----------------------------------

def _count_calls_of(span):
    def before(tracer, args):
        return tracer.calls(span)
    return before


def _candidates(tracer, args, out, _):
    b, k, cfg = args[0], args[1], args[2]
    tracer.counters["proxy.candidates"] += len(out)
    if math.comb(b.shape[1], k) > cfg.subset_cap:
        tracer.counters["proxy.greedy_instances"] += 1


def _refine(tracer, args, out, qr_before):
    qr_calls = tracer.calls("kernel.qr") - qr_before
    tracer.counters["proxy.refine_steps"] += max(qr_calls - 1, 0)
    tracer.counters["proxy.nominal_q"] += args[2]


def _train(tracer, args, out, evals_before):
    tracer.counters["train.loss_evals"] += tracer.calls("sketching.sketch_loss") - evals_before
    tracer.counters["train.epochs"] += args[3].epochs


def _shatter(tracer, args, out, evals_before):
    tracer.counters["shatter.loss_evals"] += tracer.calls("sketching.sketch_loss") - evals_before


def _amg_step(tracer, args, out, inv_before):
    tracer.counters["amg.coarse_inversions"] += tracer.calls("charpoly.charpoly_inverse") - inv_before


def _bytes_written(tracer, args, out, _):
    tracer.counters["matio.bytes_written"] += os.path.getsize(args[0])


HOOKS = {
    "proxy.candidate_bases": (None, _candidates),
    "proxy.power_refine": (_count_calls_of("kernel.qr"), _refine),
    "train.sgd_train": (_count_calls_of("sketching.sketch_loss"), _train),
    "shatter.verify_shattering": (_count_calls_of("sketching.sketch_loss"), _shatter),
    "amg.amg_step": (_count_calls_of("charpoly.charpoly_inverse"), _amg_step),
    "matio.write_matrix": (None, _bytes_written),
    "matio.save_sketch": (None, _bytes_written),
}


def install(tracer):
    """Wrap the package; returns a function that undoes every replacement."""
    undo = []
    namespaces = [sketchlab, *LAYER_MODULES]

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in LAYER_MODULES:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            before, after = HOOKS.get(name, (None, None))
            wrapped = tracer.wrap(name, fn, before=before, after=after)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is fn:
                        rebind(ns, bound, wrapped)
    rebind(sketching.SparseSketch, "dense",
           tracer.wrap("sketching.dense", sketching.SparseSketch.dense))
    rebind(gjtrace.Trace, "op", tracer.wrap("gjtrace.op", gjtrace.Trace.op))
    for kname in KERNELS:
        rebind(np.linalg, kname,
               tracer.wrap(f"kernel.{kname}", getattr(np.linalg, kname), kernel=True))
    rebind(amg, "solve_triangular",
           tracer.wrap("kernel.solve_triangular", amg.solve_triangular, kernel=True))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics over the traced rounds, by name."""
    t, c = tracer, tracer.counters
    return {
        "kernel.qr.calls": (t.calls("kernel.qr"), "count"),
        "kernel.qr.self_s": (t.self_s("kernel.qr"), "s"),
        "kernel.svd.calls": (t.calls("kernel.svd"), "count"),
        "kernel.svd.self_s": (t.self_s("kernel.svd"), "s"),
        "kernel.solve_triangular.calls": (t.calls("kernel.solve_triangular"), "count"),
        "linalg.svd.calls": (t.calls("linalg.svd"), "count"),
        "linalg.svd.self_s": (t.self_s("linalg.svd"), "s"),
        "linalg.best_rank_k.self_s": (t.self_s("linalg.best_rank_k"), "s"),
        "sketching.sketch_loss.calls": (t.calls("sketching.sketch_loss"), "count"),
        "sketching.sketch_loss.self_s": (t.self_s("sketching.sketch_loss"), "s"),
        "sketching.dense.calls": (t.calls("sketching.dense"), "count"),
        "charpoly.projection_rowspace.calls": (t.calls("charpoly.projection_rowspace"), "count"),
        "charpoly.projection_rowspace.self_s": (t.self_s("charpoly.projection_rowspace"), "s"),
        "charpoly.greedy_row_basis.self_s": (t.self_s("charpoly.greedy_row_basis"), "s"),
        "charpoly.charpoly_inverse.calls": (t.calls("charpoly.charpoly_inverse"), "count"),
        "charpoly.charpoly_inverse.self_s": (t.self_s("charpoly.charpoly_inverse"), "s"),
        "proxy.proxy_loss.self_s": (t.self_s("proxy.proxy_loss"), "s"),
        "proxy.candidates": (c["proxy.candidates"], "count"),
        "proxy.power_refine.calls": (t.calls("proxy.power_refine"), "count"),
        "proxy.power_refine.self_s": (t.self_s("proxy.power_refine"), "s"),
        "proxy.refine_steps": (c["proxy.refine_steps"], "count"),
        "proxy.refine_steps_per_q": (_ratio(c["proxy.refine_steps"], c["proxy.nominal_q"]), "ratio"),
        "proxy.greedy_instances": (c["proxy.greedy_instances"], "count"),
        # The SGD loop itself runs in finite_difference_sgd, under sgd_train.
        "train.sgd_train.self_s": (t.self_s("train.sgd_train", "train.finite_difference_sgd"), "s"),
        "train.empirical_loss.self_s": (t.self_s("train.empirical_loss"), "s"),
        "train.loss_evals_per_epoch": (_ratio(c["train.loss_evals"], c["train.epochs"]), "count"),
        "shatter.verify_shattering.self_s": (t.self_s("shatter.verify_shattering"), "s"),
        "shatter.subset_sketch.calls": (t.calls("shatter.subset_sketch"), "count"),
        "shatter.subset_sketch.self_s": (t.self_s("shatter.subset_sketch"), "s"),
        "shatter.loss_evals": (c["shatter.loss_evals"], "count"),
        "amg.amg_step.calls": (t.calls("amg.amg_step"), "count"),
        "amg.amg_step.self_s": (t.self_s("amg.amg_step"), "s"),
        "amg.amg_step_error_form.self_s": (t.self_s("amg.amg_step_error_form"), "s"),
        "amg.smoothing_sweep.calls": (t.calls("amg.smoothing_sweep"), "count"),
        "amg.coarse_inversions_per_cycle": (
            _ratio(c["amg.coarse_inversions"], t.calls("amg.amg_step")), "ratio"),
        "gjtrace.ops": (t.calls("gjtrace.op"), "count"),
        "gjtrace.op.self_s": (t.self_s("gjtrace.op"), "s"),
        "gjdemos.proxy_pipeline_trace.self_s": (t.self_s("gjdemos.proxy_pipeline_trace"), "s"),
        "matio.bytes_written": (c["matio.bytes_written"], "bytes"),
        "matio.write.self_s": (t.self_s("matio.write_matrix", "matio.save_sketch"), "s"),
        "matio.read.self_s": (t.self_s("matio.read_matrix", "matio.load_sketch"), "s"),
    }
