"""Run loop, operation accounting and metrics for one benchmark run."""

import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy

# Every run repeats whole rounds until --seconds have passed, and at least
# MIN_ROUNDS of them.  The first TRACED_ROUNDS rounds are the ones the
# traced run counts and the ones whose outputs go into the digest.
MIN_ROUNDS = 2
TRACED_ROUNDS = 2
SETUP_REPEATS = 5
# Set-up as a user pays it: a fresh interpreter that imports sketchlab and
# the benchmark, then input generation and warm-up.
IMPORT_CHECK = "import sys; sys.path[:0] = sys.argv[1:]; import sketchlab, harness, workloads"
# proxy.instance_tail_ms is this percentile of the instance times: the
# highest one with ten or more of a 5-round proxy-sandwich run's 415
# instances beyond it.  It is estimated with the Harrell-Davis estimator, a
# weighted mean of all order statistics: the two rank < k < n instances of
# a round are 2.4 % of it, so a single order statistic near this
# percentile sits on the edge between them and the rest and jumps across.
TAIL_PERCENTILE = 97.5


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution."""
    # Imported here, after peak RSS is read and outside set-up: it is the
    # benchmark's own cost, not the program's.
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


# Machine-speed calibration.  On a shared machine the same work runs up to
# half again as slow for seconds to minutes at a time, and every timing of
# a run moves with it (a whole 30 s run can sit in a slow spell, which no
# statistic over the run's own rounds removes).  So every CAL_EVERY seconds,
# between two operations, the run times a fixed numpy kernel of the same
# kind of work (small QR, SVD and matrix products), and each timing is
# reported at the reference speed:  seconds * CAL_REF / kernel time, the
# kernel time being the mean of the samples just before and just after the
# timed work.  CAL_REF is the kernel's time on the reference machine (its
# 10th percentile over 3,000 samples); the summary line gives the run's
# median speed factor (kernel time / CAL_REF), which converts back.
CAL_EVERY = 0.25
CAL_REF = 1.28e-3
CAL_REPS = 40
_CAL_A = np.random.default_rng(0).standard_normal((6, 3))
# Bound here, before a traced run wraps numpy.linalg.
_qr, _svd = np.linalg.qr, np.linalg.svd


def calibration_sample():
    """Seconds the fixed calibration kernel takes now."""
    t = perf_counter()
    for _ in range(CAL_REPS):
        q, r = _qr(_CAL_A)
        _svd(q @ (r @ r.T), compute_uv=False)
    return perf_counter() - t


class Speed:
    """Calibration samples of one run, and the reference-speed scale."""

    def __init__(self):
        self.at = []        # perf_counter() when each sample started
        self.took = []      # seconds each sample took
        self.sample()

    def sample(self):
        self.at.append(perf_counter())
        self.took.append(calibration_sample())

    def due(self):
        if perf_counter() - self.at[-1] >= CAL_EVERY:
            self.sample()

    def scale(self, start, end):
        """Factor that takes work timed over [start, end] to the
        reference speed."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        near = self.took[max(i, 0):j + 1] if j < len(self.at) else self.took[max(i, 0):]
        return CAL_REF / statistics.fmean(near)


class Context:
    """What a part needs: timing, operation counting and the output digest."""

    clock = staticmethod(perf_counter)

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed        # None: timings are not used (warm-up)
        self.rounds = []          # per round: key -> [(seconds, units, end)]
        self.main_spans = []      # per round: [(seconds, end)] of the workload's own work
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # failures outside the known-fault slice
        self.digest = hashlib.sha256()
        self.digesting = False
        self.round_index = 0
        self.in_main = False

    def start_round(self, index):
        self.round_index = index
        self.digesting = index < TRACED_ROUNDS
        self.rounds.append({})
        self.main_spans.append([])

    @contextmanager
    def op(self, label, known_fault=False):
        """One checked operation: a raised error or a failed check inside
        counts it as failed and the run goes on."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"round {self.round_index} {label}: {exc!r}")

    @contextmanager
    def main(self):
        """The workload's own work: timed into wall_s, and traced in the
        first TRACED_ROUNDS rounds of a traced run."""
        self.in_main = True
        if self.tracer is not None:
            self.tracer.active = self.round_index < TRACED_ROUNDS
        try:
            yield
        finally:
            self.in_main = False
            if self.tracer is not None:
                self.tracer.active = False

    def _timed(self, seconds):
        end = perf_counter()
        if self.in_main:
            self.main_spans[-1].append((seconds, end))
        return end

    def record(self, key, seconds, units):
        """One timed program call worth ``units`` of the metric ``key``."""
        end = self._timed(seconds)
        self.rounds[-1].setdefault(key, []).append((seconds, units, end))
        if self.speed is not None:
            self.speed.due()

    def call(self, fn, *args):
        """A program call that belongs to no throughput metric."""
        t = perf_counter()
        out = fn(*args)
        self._timed(perf_counter() - t)
        return out

    def feed(self, *values):
        if self.digesting:
            for v in values:
                self.digest.update(np.asarray(v, dtype=np.float64).tobytes())

    def at_reference(self, seconds, end):
        return seconds * self.speed.scale(end - seconds, end)

    def times(self, key):
        """Per-round lists of the reference-speed times under ``key``."""
        return [[self.at_reference(s, end) for s, _, end in r[key]]
                for r in self.rounds if key in r]

    def round_times(self):
        """Reference-speed time of the workload's own work, per round."""
        return [sum(self.at_reference(s, end) for s, end in spans)
                for spans in self.main_spans]

    def rate(self, key, fresh):
        """Units per second over the operations recorded under ``key``.

        With fresh inputs every round this is total units over total
        seconds.  When every round repeats the same inputs, the i-th
        operation of each round is the same work, and its time is taken as
        its median over the rounds.
        """
        units = [[u for _, u, _ in r[key]] for r in self.rounds if key in r]
        if not units:
            return 0.0
        times = self.times(key)
        if fresh:
            return sum(map(sum, units)) / sum(map(sum, times))
        return sum(units[0]) / sum(typical_times(times))


def typical_times(per_round):
    """Median time of each operation over rounds that repeat the same work."""
    return [statistics.median(op) for op in zip(*per_round)]


def host_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload_cls, seed, seconds, traced, import_path, workdir):
    tracer = restore = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    try:
        return _run(workload_cls, seed, seconds, tracer, import_path, workdir)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload_cls, seed, seconds, tracer, import_path, workdir):
    speed = Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, *import_path], check=True)
        wl = workload_cls(seed, workdir)
        wl.setup()
        warm = Context()
        warm.start_round(0)
        wl.warm_up(warm)
        end = perf_counter()
        speed.sample()
        setup_times.append((end - t) * speed.scale(t, end))
    setup_s = statistics.median(setup_times)

    ctx = Context(tracer, speed)
    deadline = perf_counter() + seconds
    while len(ctx.rounds) < MIN_ROUNDS or perf_counter() < deadline:
        ctx.start_round(len(ctx.rounds))
        wl.round(ctx, ctx.round_index)
    speed.sample()
    round_times = ctx.round_times()

    fresh = set(wl.fresh)

    def rate(key):
        return ctx.rate(key, key in fresh)

    per_round = ctx.times("proxy")
    if "proxy" in fresh:
        samples = [s for r in per_round for s in r]
    else:
        samples = typical_times(per_round)
    wall = statistics.fmean if fresh else statistics.median
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall(round_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "proxy.instances_per_s": (rate("proxy"), "instances/s"),
        "proxy.instance_p50_ms": (1e3 * float(np.percentile(samples, 50)), "ms"),
        "proxy.instance_tail_ms": (1e3 * harrell_davis(samples, TAIL_PERCENTILE / 100), "ms"),
        "train.epochs_per_s": (rate("train"), "epochs/s"),
        "eval.matrices_per_s": (rate("eval"), "matrices/s"),
        "shatter.subsets_per_s": (rate("shatter"), "subsets/s"),
        "amg.cycles_per_s": (rate("amg"), "cycles/s"),
        "gjtrace.traces_per_s": (rate("gj"), "traces/s"),
    }
    summary = {
        "rounds": len(round_times),
        "proxy_instances": sum(len(r) for r in per_round),
        "digest": ctx.digest.hexdigest(),
        "unexpected_failures": ctx.unexpected[:20],
        "host": host_record(),
        "wall_s": end_to_end["wall_s"][0],
        "speed_factor": statistics.median(speed.took) / CAL_REF,
        "calibration_samples": len(speed.took),
        # The rounds a traced run traces: the same work, traced or not, so
        # the two runs' figures differ by the tracing overhead.
        "traced_rounds_s": statistics.fmean(round_times[:TRACED_ROUNDS]),
    }
    if tracer is not None:
        import tracing
        metrics = tracing.layer_metrics(tracer)
        summary["traced_rounds"] = TRACED_ROUNDS
        trace_path = os.path.join(os.path.dirname(workdir), f"trace-{wl.__class__.__name__}-{seed}.json")
        tracer.dump(trace_path)
        summary["trace_file"] = trace_path
    else:
        metrics = end_to_end
    result = {
        "correct": not ctx.unexpected,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    print("summary " + json.dumps(summary, sort_keys=True), file=sys.stderr)
    return result
