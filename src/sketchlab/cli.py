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
from pathlib import Path

import numpy as np

from . import gjdemos
from .amg import amg_step, amg_step_error_form
from .linalg import fro_sq
from .matio import load_sketch, read_matrix, save_sketch, write_matrix
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


def _merge_defaults(cfg: dict, defaults: dict, errors: list) -> dict:
    out = dict(defaults)
    for key, value in cfg.items():
        if key not in defaults:
            errors.append(f"unknown config key: {key!r}")
        out[key] = value
    return out


def _check_int(cfg, keys, errors, least=1):
    for key in keys:
        v = cfg.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            errors.append(f"{key} must be an integer >= {least}, got {v!r}")


def _check_range(cfg, key, least, errors):
    v = cfg.get(key)
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in v)
            or not least <= v[0] <= v[1]):
        errors.append(f"{key} must be a pair [lo, hi] of integers with "
                      f"{least} <= lo <= hi, got {v!r}")


def _is_real(v, ok):
    return not isinstance(v, bool) and isinstance(v, (int, float)) and ok(v)


def _check_real(cfg, key, ok, rule, errors):
    v = cfg.get(key)
    if not _is_real(v, ok):
        errors.append(f"{key} must be a number {rule}, got {v!r}")


# ---------------------------------------------------------------- commands

def _cmd_gen_data(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "kind": "spiked", "count": 16, "n": 8, "d": 8, "k": 2,
        "noise": 0.1, "out_dir": None,
    }, errors)
    _check_int(cfg, ("count", "n", "d", "k"), errors)
    _check_real(cfg, "noise", lambda v: 0 <= v < math.inf, "in [0, inf)", errors)
    if cfg["kind"] not in ("spiked", "gaussian"):
        errors.append(f"kind must be 'spiked' or 'gaussian', got {cfg['kind']!r}")
    if (cfg["kind"] == "spiked" and isinstance(cfg["k"], int)
            and isinstance(cfg["d"], int) and cfg["k"] > cfg["d"]):
        errors.append(f"spiked data needs k <= d, got k={cfg['k']}, d={cfg['d']}")
    if not cfg["out_dir"]:
        errors.append("out_dir is required")
    if errors:
        raise ConfigError(errors)

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
    return True, {"files_written": len(rows)}, rows, cfg


def _load_dataset(cfg, errors):
    files = cfg.get("data_files")
    if not files and cfg.get("data_dir"):
        files = sorted(str(p) for p in Path(cfg["data_dir"]).glob("*.sklb"))
    if not files:
        errors.append("data_dir or data_files must name at least one matrix")
        return []
    return [read_matrix(f) for f in files]


def _cmd_train(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "data_dir": None, "data_files": None, "m": None, "k": None, "s": 1,
        "epochs": 10, "step_size": 0.1, "batch_size": 8, "holdout": 0,
        "sketch_out": None,
    }, errors)
    mats = _load_dataset(cfg, errors)
    _check_int(cfg, ("m", "k", "s", "epochs", "batch_size"), errors)
    _check_real(cfg, "step_size", lambda v: 0 < v < math.inf, "in (0, inf)",
                errors)
    _check_int(cfg, ("holdout",), errors, least=0)
    if isinstance(cfg["m"], int) and isinstance(cfg["s"], int) and cfg["s"] > cfg["m"]:
        errors.append(f"s={cfg['s']} exceeds m={cfg['m']}")
    if isinstance(cfg["m"], int) and isinstance(cfg["k"], int) and cfg["k"] > cfg["m"]:
        errors.append(f"k={cfg['k']} exceeds m={cfg['m']}")
    if mats:
        n, d = mats[0].shape
        if isinstance(cfg["m"], int) and cfg["m"] > n:
            errors.append(f"m={cfg['m']} exceeds the data's n={n}")
        if isinstance(cfg["k"], int) and cfg["k"] > min(n, d):
            errors.append(f"k={cfg['k']} exceeds min(n, d)={min(n, d)}")
    if mats and isinstance(cfg["holdout"], int) and cfg["holdout"] >= len(mats):
        errors.append(
            f"holdout={cfg['holdout']} must leave at least one training "
            f"matrix out of {len(mats)}"
        )
    if errors:
        raise ConfigError(errors)

    data = make_dataset(mats)
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
    if holdout:
        metrics["holdout_loss"] = empirical_loss(trained, holdout, cfg["k"])
    if cfg["sketch_out"]:
        save_sketch(cfg["sketch_out"], trained)
    rows = [{"epoch": i, "train_loss": v} for i, v in enumerate(history)]
    return final <= initial + 1e-12, metrics, rows, cfg


def _cmd_eval(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "data_dir": None, "data_files": None, "sketch": None, "k": None,
    }, errors)
    mats = _load_dataset(cfg, errors)
    _check_int(cfg, ("k",), errors)
    if not cfg["sketch"]:
        errors.append("sketch path is required")
    if errors:
        raise ConfigError(errors)

    sketch = load_sketch(cfg["sketch"])
    data = make_dataset(mats)
    losses = [sketch_loss(sketch, a, cfg["k"]) for a in data]
    rows = [{"index": i, "loss": v} for i, v in enumerate(losses)]
    return True, {"mean_loss": float(np.mean(losses))}, rows, cfg


def _cmd_proxy_check(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "instances": 200, "epsilons": [0.1], "subset_cap": 5000,
        "q_constant": 4.0, "n_range": [3, 9], "d_range": [3, 7],
        "m_max": 4, "k_max": 3,
    }, errors)
    _check_int(cfg, ("instances", "subset_cap", "m_max", "k_max"), errors)
    eps = cfg["epsilons"]
    if (not isinstance(eps, (list, tuple)) or not eps
            or not all(_is_real(e, lambda v: 0 < v < 1) for e in eps)):
        errors.append(f"epsilons must be a nonempty list of numbers in (0, 1), "
                      f"got {eps!r}")
    _check_real(cfg, "q_constant", lambda v: 0 < v < math.inf, "in (0, inf)",
                errors)
    _check_range(cfg, "n_range", 1, errors)
    _check_range(cfg, "d_range", 2, errors)  # instances have k < d
    if (all(isinstance(cfg[key], int) for key in ("k_max", "m_max"))
            and 1 <= cfg["m_max"] < cfg["k_max"]):
        errors.append(f"k_max={cfg['k_max']} exceeds m_max={cfg['m_max']}")
    if errors:
        raise ConfigError(errors)

    rng = named_stream(seed, "proxy-check")
    instances = [
        random_instance(rng, tuple(cfg["n_range"]), tuple(cfg["d_range"]),
                        cfg["m_max"], cfg["k_max"])
        for _ in range(cfg["instances"])
    ]

    rows = []
    for idx, (a, sketch, k) in enumerate(instances):
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
    return ok, metrics, rows, cfg


def _cmd_shatter_verify(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "family": "rank1", "n": 6, "d": 4, "k": 2, "s": 1,
        "gamma": 0.1, "subset_budget": 256,
    }, errors)
    _check_int(cfg, ("n", "d", "k", "s", "subset_budget"), errors)
    if cfg["family"] not in ("rank1", "dense", "block"):
        errors.append(f"family must be rank1|dense|block, got {cfg['family']!r}")
    _check_real(cfg, "gamma", lambda v: 0 < v < 1, "in (0, 1)", errors)
    if errors:
        raise ConfigError(errors)

    if cfg["family"] == "rank1":
        fam = rank1_family(cfg["n"], cfg["d"])
    elif cfg["family"] == "dense":
        fam = dense_family(cfg["n"], cfg["k"])
    else:
        fam = block_family(cfg["n"], cfg["k"], cfg["s"])
    report = verify_shattering(fam, subset_budget=cfg["subset_budget"],
                               gamma=cfg["gamma"], seed=seed)
    return report["all_pass"], report, [report], cfg


def _cmd_gj_trace(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "demo": "power", "k": 3, "q": 3, "r": 5, "items": 6,
        "epsilon": 0.5, "q_constant": 1.0, "m": 2, "n": 3, "d": 3,
    }, errors)
    demos = ("power", "min-of-r", "projection", "knapsack", "proxy-pipeline")
    if cfg["demo"] not in demos:
        errors.append(f"demo must be one of {demos}, got {cfg['demo']!r}")
    _check_int(cfg, ("k", "r", "items", "m", "n", "d"), errors)
    _check_int(cfg, ("q",), errors, least=0)
    _check_real(cfg, "epsilon", lambda v: 0 < v <= 1, "in (0, 1]", errors)
    _check_real(cfg, "q_constant", lambda v: 0 < v < math.inf, "in (0, inf)",
                errors)
    if isinstance(cfg["m"], int) and isinstance(cfg["n"], int) and cfg["m"] > cfg["n"]:
        errors.append(f"m={cfg['m']} exceeds n={cfg['n']}")
    if errors:
        raise ConfigError(errors)

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
        a = random_unit_matrix(rng, cfg["n"], cfg["d"])
        sketch = random_sparse_sketch(cfg["m"], cfg["n"], 1, rng)
        _, tr = gjdemos.proxy_pipeline_trace(sketch, a, k=1,
                                             epsilon=cfg["epsilon"],
                                             q_constant=cfg["q_constant"])
    metrics = tr.report(tr.n_inputs)
    return True, metrics, [metrics], cfg


def _cmd_amg_check(cfg, seed):
    errors = []
    cfg = _merge_defaults(cfg, {
        "instances": 100, "n_max": 20, "m_max": 8, "s_max": 3, "noise": 0.1,
    }, errors)
    _check_int(cfg, ("instances", "s_max"), errors)
    _check_int(cfg, ("n_max",), errors, least=4)
    _check_int(cfg, ("m_max",), errors, least=2)
    _check_real(cfg, "noise", lambda v: 0 <= v < math.inf, "in [0, inf)", errors)
    if errors:
        raise ConfigError(errors)

    rng = named_stream(seed, "amg-check")
    problems = []
    for _ in range(cfg["instances"]):
        n = int(rng.integers(4, cfg["n_max"] + 1))
        m = int(rng.integers(2, min(cfg["m_max"], n) + 1))
        s1 = int(rng.integers(1, cfg["s_max"] + 1))
        s2 = int(rng.integers(1, cfg["s_max"] + 1))
        problems.append((random_amg_problem(rng, n, m, s1, s2, cfg["noise"]),
                         rng.standard_normal(n)))

    rows = []
    for idx, (prob, x) in enumerate(problems):
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
    return ok, metrics, rows, cfg


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "proxy-check": _cmd_proxy_check,
    "shatter-verify": _cmd_shatter_verify,
    "gj-trace": _cmd_gj_trace,
    "amg-check": _cmd_amg_check,
}


def run_experiment(command: str, cfg: dict, seed: int = 0) -> dict:
    """Run one subcommand and return its report document."""
    start = time.monotonic()
    passed, metrics, rows, full_cfg = _COMMANDS[command](dict(cfg), seed)
    return {
        "command": command,
        "config": {k: v for k, v in sorted(full_cfg.items())},
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
        p.add_argument("--out", help="report JSON path (CSV written alongside)")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config:
            cfg = json.loads(Path(args.config).read_text())
            if not isinstance(cfg, dict):
                raise ConfigError(["config root must be a JSON object"])
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
