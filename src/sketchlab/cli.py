"""Command-line harness: experiment orchestration, reports, exit codes.

Subcommands: ``gen-data``, ``train``, ``eval``, ``proxy-check``,
``shatter-verify``, ``gj-trace``, ``amg-check``.  Every run echoes its full
config into a JSON report (plus a CSV table for per-instance rows) and
exits 0 on pass, 2 on an acceptance-style failure, 1 on error.  All
randomness flows from one 64-bit seed through named sub-streams, so
identical configs reproduce identical reports up to the wall-clock field.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from copy import deepcopy
from pathlib import Path

import numpy as np

from . import gjdemos
from .amg import amg_step, amg_step_error_form
from .linalg import _check_int, fro_sq
from .matio import (
    MatrixFormatError,
    load_sketch,
    read_matrix,
    save_sketch,
    write_matrix,
)
from .proxy import ProxyConfig, proxy_loss
from .shatter import block_family, dense_family, rank1_family, verify_shattering
from .sketching import random_sparse_sketch, sketch_loss
from .synth import (
    random_amg_problem,
    random_instance,
    random_unit_matrix,
    spiked_dataset,
)
from .train import TrainConfig, empirical_loss, make_dataset, sgd_train


class ConfigError(ValueError):
    """Carries every validation failure at once."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-consumer generator derived from one root seed."""
    digest = hashlib.sha256(name.encode()).digest()
    child = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), child]))


def _int(least=1):
    return lambda v: (None if isinstance(v, int) and not isinstance(v, bool)
                      and v >= least else f"must be an integer >= {least}, got {v!r}")


def _pair(least):
    def rule(v):
        if (not isinstance(v, (list, tuple)) or len(v) != 2
                or any(map(_int(least), v)) or v[0] > v[1]):
            return (f"must be a pair [lo, hi] of integers with "
                    f"{least} <= lo <= hi, got {v!r}")
    return rule


def _real(ok, text):
    return lambda v: (None if isinstance(v, (int, float)) and not isinstance(v, bool)
                      and ok(v) else f"must be a number {text}, got {v!r}")


def _one_of(options, text):
    return lambda v: None if v in options else f"must be {text}, got {v!r}"


def _epsilons(v):
    if not isinstance(v, (list, tuple)) or not v or any(map(_UNIT, v)):
        return f"must be a nonempty list of numbers in (0, 1), got {v!r}"


def _path(v):
    if v is not None and not isinstance(v, str):
        return f"must be a path string, got {v!r}"


def _paths(v):
    if v is not None and not (isinstance(v, (list, tuple))
                              and all(isinstance(f, (str, Path)) for f in v)):
        return f"must be a list of paths, got {v!r}"


_POSITIVE = _real(lambda v: 0 < v < math.inf, "in (0, inf)")
_NONNEGATIVE = _real(lambda v: 0 <= v < math.inf, "in [0, inf)")
_UNIT = _real(lambda v: 0 < v < 1, "in (0, 1)")


def _are_ints(cfg, *keys):
    return all(isinstance(cfg[key], int) and not isinstance(cfg[key], bool)
               for key in keys)


# ---------------------------------------------------------------- commands

def _gen_data_checks(cfg, _):
    if cfg["kind"] == "spiked" and _are_ints(cfg, "k", "d") and cfg["k"] > cfg["d"]:
        yield f"spiked data needs k <= d, got k={cfg['k']}, d={cfg['d']}"
    if not cfg["out_dir"]:  # out_dir's rule, listed after the k <= d check
        yield "out_dir is required"


def _cmd_gen_data(cfg, seed, _):
    rng = named_stream(seed, "gen-data")
    if cfg["kind"] == "spiked":
        mats = spiked_dataset(rng, cfg["count"], cfg["n"], cfg["d"], cfg["k"],
                              cfg["noise"])
    else:
        mats = [random_unit_matrix(rng, cfg["n"], cfg["d"])
                for _ in range(cfg["count"])]
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, a in enumerate(mats):
        path = out_dir / f"mat_{i:04d}.sklb"
        write_matrix(path, a)
        rows.append({"index": i, "file": str(path), "fro_sq": fro_sq(a)})
    return True, {"files_written": len(rows)}, rows


def _load_dataset(cfg, errors):
    files, data_dir = cfg["data_files"], cfg["data_dir"]
    if not files and data_dir and isinstance(data_dir, str):
        files = sorted(str(p) for p in Path(data_dir).glob("*.sklb"))
    if not files:
        errors.append("data_dir or data_files must name at least one matrix")
        return []
    if _paths(files):
        return []  # data_files that are not a list of paths: listed by its rule
    try:
        return [read_matrix(f) for f in files]
    except (OSError, MatrixFormatError) as exc:
        errors.append(f"data file cannot be read: {exc}")
        return []


def _load_sketch(cfg, errors):
    path = cfg["sketch"]
    if not path or not isinstance(path, str):
        return None  # listed by eval's checks or by the path rule
    try:
        return load_sketch(path)
    except (OSError, MatrixFormatError) as exc:
        errors.append(f"sketch cannot be read: {exc}")


# key -> reader of the file(s) it names: files are read once, before the
# checks that need them, and the run gets what was read
_READERS = {"data_files": _load_dataset, "sketch": _load_sketch}


def _k_fits_data(cfg, inputs):
    mats = inputs["data_files"]
    if mats and _are_ints(cfg, "k") and cfg["k"] > min(mats[0].shape):
        yield f"k={cfg['k']} exceeds min(n, d)={min(mats[0].shape)}"


def _train_checks(cfg, inputs):
    mats = inputs["data_files"]
    if _are_ints(cfg, "m", "s") and cfg["s"] > cfg["m"]:
        yield f"s={cfg['s']} exceeds m={cfg['m']}"
    if _are_ints(cfg, "m", "k") and cfg["k"] > cfg["m"]:
        yield f"k={cfg['k']} exceeds m={cfg['m']}"
    if mats and _are_ints(cfg, "m") and cfg["m"] > len(mats[0]):
        yield f"m={cfg['m']} exceeds the data's n={len(mats[0])}"
    yield from _k_fits_data(cfg, inputs)
    if mats and _are_ints(cfg, "holdout") and cfg["holdout"] >= len(mats):
        yield (
            f"holdout={cfg['holdout']} must leave at least one training "
            f"matrix out of {len(mats)}"
        )


def _cmd_train(cfg, seed, inputs):
    data = make_dataset(inputs["data_files"])
    cut = len(data) - cfg["holdout"]
    train_set, holdout = data[:cut], data[cut:]
    pattern = random_sparse_sketch(cfg["m"], data[0].shape[0], cfg["s"],
                                   named_stream(seed, "sketch-init"))
    tc = TrainConfig(cfg["epochs"], cfg["step_size"], cfg["batch_size"],
                     seed=seed)
    history: list = []
    initial = empirical_loss(pattern, train_set, cfg["k"])
    trained = sgd_train(pattern, train_set, cfg["k"], tc, history=history)
    final = history[-1]
    metrics = {"initial_loss": initial, "final_loss": final}
    if len(holdout):
        metrics["holdout_loss"] = empirical_loss(trained, holdout, cfg["k"])
    if cfg["sketch_out"]:
        save_sketch(cfg["sketch_out"], trained)
    rows = [{"epoch": i, "train_loss": v} for i, v in enumerate(history)]
    return final <= initial + 1e-12, metrics, rows


def _eval_checks(cfg, inputs):
    sketch = inputs["sketch"]
    if not cfg["sketch"]:  # required by eval alone; its path rule lets None by
        yield "sketch path is required"
    if sketch and _are_ints(cfg, "k") and cfg["k"] > sketch.m:
        yield f"k={cfg['k']} exceeds the sketch's m={sketch.m}"
    mats = inputs["data_files"]
    if sketch and mats and sketch.n != len(mats[0]):
        yield f"sketch has {sketch.n} columns but the data has {len(mats[0])} rows"
    yield from _k_fits_data(cfg, inputs)


def _cmd_eval(cfg, seed, inputs):
    data = make_dataset(inputs["data_files"])
    losses = sketch_loss(inputs["sketch"], data, cfg["k"]).tolist()
    rows = [{"index": i, "loss": v} for i, v in enumerate(losses)]
    return True, {"mean_loss": float(np.mean(losses))}, rows


def _proxy_check_checks(cfg, _):
    if _are_ints(cfg, "k_max", "m_max") and 1 <= cfg["m_max"] < cfg["k_max"]:
        yield f"k_max={cfg['k_max']} exceeds m_max={cfg['m_max']}"


def _cmd_proxy_check(cfg, seed, _):
    rng = named_stream(seed, "proxy-check")
    rows = []
    for idx in range(cfg["instances"]):
        a, sketch, k = random_instance(rng, tuple(cfg["n_range"]),
                                       tuple(cfg["d_range"]), cfg["m_max"],
                                       cfg["k_max"])
        true_loss = sketch_loss(sketch, a, k)
        row = {"index": idx, "k": k, "true_loss": true_loss}
        for eps in cfg["epsilons"]:
            pc = ProxyConfig(eps, cfg["subset_cap"], cfg["q_constant"])
            row[f"delta_eps_{eps}"] = proxy_loss(sketch, a, k, pc) - true_loss
        # the same for every epsilon; where False only the factor 1 + d holds
        row["exhaustive"] = pc.exhaustive(a.shape[1], k)
        rows.append(row)
    ok = True
    metrics = {"greedy_instances": sum(not row["exhaustive"] for row in rows)}
    for eps in cfg["epsilons"]:
        deltas = [row[f"delta_eps_{eps}"] for row in rows]
        metrics[f"max_delta_eps_{eps}"] = max(deltas)
        metrics[f"min_delta_eps_{eps}"] = min(deltas)
        ok = ok and min(deltas) >= -1e-9 and max(deltas) <= eps + 1e-9
    return ok, metrics, rows


def _cmd_shatter_verify(cfg, seed, _):
    if cfg["family"] == "rank1":
        fam = rank1_family(cfg["n"], cfg["d"])
    elif cfg["family"] == "dense":
        fam = dense_family(cfg["n"], cfg["k"])
    else:
        fam = block_family(cfg["n"], cfg["k"], cfg["s"])
    report = verify_shattering(fam, subset_budget=cfg["subset_budget"],
                               gamma=cfg["gamma"], seed=seed)
    return report["all_pass"], report, [report]


def _gj_trace_checks(cfg, _):
    if _are_ints(cfg, "m", "n") and cfg["m"] > cfg["n"]:
        yield f"m={cfg['m']} exceeds n={cfg['n']}"


def _cmd_gj_trace(cfg, seed, _):
    rng = named_stream(seed, "gj-trace")
    if cfg["demo"] == "power":
        _, tr = gjdemos.power_trace(rng.standard_normal((cfg["k"], cfg["k"])),
                                    rng.standard_normal(cfg["k"]), cfg["q"])
    elif cfg["demo"] == "min-of-r":
        _, tr = gjdemos.min_trace(rng.standard_normal(cfg["r"]))
    elif cfg["demo"] == "projection":
        _, tr = gjdemos.rowspace_projection_trace(
            rng.standard_normal((cfg["k"], cfg["k"])))
    elif cfg["demo"] == "knapsack":
        items = cfg["items"]
        values = rng.uniform(1.0, 5.0, items)
        costs = np.sort(rng.uniform(1.0, 3.0, items)) * np.arange(1, items + 1)
        _, tr = gjdemos.knapsack_trace(values, costs,
                                       capacity=float(np.sum(costs) / 2),
                                       rho=1.0)
    else:
        return _pipeline_demo(cfg, rng)
    metrics = tr.report()
    return True, metrics, [metrics]


def _pipeline_demo(cfg, rng):
    """Trace the proxy pipeline and report its float value next to
    ``proxy_loss`` on the same instance.  The trace's counts belong to the
    path its float values took, so the run passes only if the two agree to
    1e-8; ``reason`` names a failure."""
    a = random_unit_matrix(rng, cfg["n"], cfg["d"])
    sketch = random_sparse_sketch(cfg["m"], cfg["n"], 1, rng)
    reference = proxy_loss(sketch, a, 1,
                           ProxyConfig(cfg["epsilon"], q_constant=cfg["q_constant"]))
    metrics = {}
    try:
        value, tr = gjdemos.proxy_pipeline_trace(sketch, a, k=1,
                                                 epsilon=cfg["epsilon"],
                                                 q_constant=cfg["q_constant"])
    except ZeroDivisionError:
        value, reason = None, "the float trace divided by zero"
    else:
        metrics = tr.report()
        reason = (None if abs(value - reference) <= 1e-8 else
                  f"traced value differs from proxy_loss by {value - reference:.3e}")
    metrics.update(value=value, proxy_loss=reference, reason=reason)
    return reason is None, metrics, [metrics]


def _cmd_amg_check(cfg, seed, _):
    rng = named_stream(seed, "amg-check")
    rows = []
    for idx in range(cfg["instances"]):
        n = int(rng.integers(4, cfg["n_max"] + 1))
        m = int(rng.integers(2, min(cfg["m_max"], n) + 1))
        s1 = int(rng.integers(1, cfg["s_max"] + 1))
        s2 = int(rng.integers(1, cfg["s_max"] + 1))
        prob = random_amg_problem(rng, n, m, s1, s2, cfg["noise"])
        x = rng.standard_normal(n)
        x_star = prob.solution()
        dev = float(np.linalg.norm(
            amg_step(prob, x) - amg_step_error_form(prob, x, x_star)))
        fixed = float(np.linalg.norm(amg_step(prob, x_star) - x_star))
        rows.append({
            "index": idx,
            "deviation": dev,
            "allowed": 1e-8 * (1.0 + float(np.linalg.norm(x))),
            "fixed_point_error": fixed,
        })
    ok = all(r["deviation"] <= r["allowed"] for r in rows) and \
        all(r["fixed_point_error"] <= 1e-10 for r in rows)
    metrics = {
        "max_deviation": max(r["deviation"] for r in rows),
        "max_fixed_point_error": max(r["fixed_point_error"] for r in rows),
    }
    return ok, metrics, rows


_DEMOS = ("power", "min-of-r", "projection", "knapsack", "proxy-pipeline")
# subcommand -> ({key: (default, rule)} in rule order, cross-key checks, run).
# A rule maps a value to the error text after its key, or None.  The checks
# and the run also take the files the config names, as ``_READERS`` read them.
_COMMANDS = {
    "gen-data": ({
        "count": (16, _int()), "n": (8, _int()), "d": (8, _int()),
        "k": (2, _int()), "noise": (0.1, _NONNEGATIVE), "out_dir": (None, _path),
        "kind": ("spiked", _one_of(("spiked", "gaussian"), "'spiked' or 'gaussian'")),
    }, _gen_data_checks, _cmd_gen_data),
    "train": ({
        "data_dir": (None, _path), "data_files": (None, _paths),
        "m": (None, _int()), "k": (None, _int()), "s": (1, _int()),
        "epochs": (10, _int()), "batch_size": (8, _int()), "sketch_out": (None, _path),
        "step_size": (0.1, _POSITIVE), "holdout": (0, _int(0)),
    }, _train_checks, _cmd_train),
    "eval": ({
        "data_dir": (None, _path), "data_files": (None, _paths), "k": (None, _int()),
        "sketch": (None, _path),
    }, _eval_checks, _cmd_eval),
    "proxy-check": ({
        "instances": (200, _int()), "subset_cap": (5000, _int()),
        "m_max": (4, _int()), "k_max": (3, _int()),
        "epsilons": ([0.1], _epsilons), "q_constant": (4.0, _POSITIVE),
        "n_range": ([3, 9], _pair(1)),
        "d_range": ([3, 7], _pair(2)),  # instances have k < d
    }, _proxy_check_checks, _cmd_proxy_check),
    "shatter-verify": ({
        "n": (6, _int()), "d": (4, _int()), "k": (2, _int()), "s": (1, _int()),
        "subset_budget": (256, _int()),
        "family": ("rank1", _one_of(("rank1", "dense", "block"), "rank1|dense|block")),
        "gamma": (0.1, _UNIT),
    }, lambda cfg, _: (), _cmd_shatter_verify),
    "gj-trace": ({
        "demo": ("power", _one_of(_DEMOS, f"one of {_DEMOS}")),
        "k": (3, _int()), "r": (5, _int()), "items": (6, _int()),
        "m": (2, _int()), "n": (3, _int()), "d": (3, _int()), "q": (3, _int(0)),
        # the pipeline demo is checked against proxy_loss, which takes eps < 1
        "epsilon": (0.5, _UNIT), "q_constant": (1.0, _POSITIVE),
    }, _gj_trace_checks, _cmd_gj_trace),
    "amg-check": ({
        "instances": (100, _int()), "s_max": (3, _int()), "n_max": (20, _int(4)),
        "m_max": (8, _int(2)), "noise": (0.1, _NONNEGATIVE),
    }, lambda cfg, _: (), _cmd_amg_check),
}


def run_experiment(command: str, cfg: dict, seed: int = 0) -> dict:
    """Run one subcommand and return its report document.  Config faults are
    raised together: unknown keys, a missing dataset, rules, cross-key checks."""
    start = time.monotonic()
    # any int, negative ones too: the mask below takes it mod 2^64
    _check_int("seed", seed)
    table, checks, run = _COMMANDS[command]
    if isinstance(cfg, dict):
        cfg = {key: deepcopy(default) for key, (default, _) in table.items()} | cfg
        errors = [f"unknown config key: {key!r}" for key in cfg if key not in table]
        inputs = {key: read(cfg, errors) for key, read in _READERS.items()
                  if key in table}
        errors += [f"{key} {fault}" for key, (_, rule) in table.items()
                   if (fault := rule(cfg[key]))]
        errors += checks(cfg, inputs)
    else:
        errors = ["config root must be a JSON object"]
    if errors:
        raise ConfigError(errors)
    # every consumer sees the root seed mod 2^64, as named_stream does
    passed, metrics, rows = run(cfg, seed & (2**64 - 1), inputs)
    return {
        "command": command,
        "config": dict(sorted(cfg.items())),
        "seed": seed,
        "pass": bool(passed),
        "metrics": metrics,
        "rows": rows,
        "wall_clock_sec": time.monotonic() - start,
    }


def _write_outputs(report: dict, out_path: str | None) -> None:
    doc = json.dumps(report, indent=2, sort_keys=True, default=float)
    if out_path:
        Path(out_path).write_text(doc)
        rows = report.get("rows") or []
        if rows:
            csv_path = Path(out_path).with_suffix(".csv")
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
    else:
        print(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sketchlab",
        description="Sketch-and-solve toolkit experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="64-bit root seed")
        p.add_argument("--out", help="report JSON path, not ending in .csv "
                                     "(CSV written alongside)")
    args = parser.parse_args(argv)

    if args.out and Path(args.out).suffix.lower() == ".csv":
        print(f"error: --out must not end in .csv, got {args.out!r}", file=sys.stderr)
        return 1
    try:
        cfg = json.loads(Path(args.config).read_text()) if args.config else {}
        report = run_experiment(args.command, cfg, args.seed)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _write_outputs(report, args.out)
    return 0 if report["pass"] else 2


if __name__ == "__main__":
    sys.exit(main())
