"""Golden output of the command-line harness.

For every subcommand: the full ``config error:`` listing of a config with
every key wrong, of one with an unknown key and failing cross-key checks,
and the ``report["config"]`` echo of a minimal valid config.  The expected
values are the harness's output from before each subcommand's keys moved
into one (default, rule) table, which kept them byte for byte.  Cases
that differ from that output on purpose are marked FIXED.
"""

import json

import numpy as np
import pytest

from sketchlab.cli import main, run_experiment
from sketchlab.gjtrace import Trace
from sketchlab.matio import write_matrix


@pytest.fixture
def paths(tmp_path):
    """Two 5x2 matrices, a 3x5 sketch trained on them and, in its own
    directory, one 6x2 matrix."""
    data, tall = tmp_path / "data", tmp_path / "tall"
    data.mkdir()
    tall.mkdir()
    for i in range(2):
        write_matrix(data / f"mat_{i}.sklb", np.ones((5, 2)) + i)
    write_matrix(tall / "mat_0.sklb", np.ones((6, 2)))
    sketch = tmp_path / "sk.json"
    run_experiment("train", {"data_dir": str(data), "m": 3, "k": 2, "epochs": 1,
                             "sketch_out": str(sketch)}, seed=0)
    return {"<data>": str(data), "<tall>": str(tall), "<sketch>": str(sketch),
            "<out>": str(tmp_path / "gen")}


def _fill(cfg, paths):
    return {key: paths.get(v, v) if isinstance(v, str) else v
            for key, v in cfg.items()}


def _errors(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path)])
    return code, capsys.readouterr().err.splitlines()


ERROR_CASES = [
    ("gen-data", {"kind": "x", "count": 0, "n": "8", "d": -1, "k": 1.5,
                  "noise": -1, "out_dir": ""}, [
        "count must be an integer >= 1, got 0",
        "n must be an integer >= 1, got '8'",
        "d must be an integer >= 1, got -1",
        "k must be an integer >= 1, got 1.5",
        "noise must be a number in [0, inf), got -1",
        "kind must be 'spiked' or 'gaussian', got 'x'",
        "out_dir is required",
    ]),
    ("gen-data", {"bogus": 1, "k": 9}, [
        "unknown config key: 'bogus'",
        "spiked data needs k <= d, got k=9, d=8",
        "out_dir is required",
    ]),
    ("train", {"m": 0, "k": "2", "s": True, "epochs": -1, "batch_size": 0.5,
               "step_size": 0, "holdout": -1}, [
        "data_dir or data_files must name at least one matrix",
        "m must be an integer >= 1, got 0",
        "k must be an integer >= 1, got '2'",
        "s must be an integer >= 1, got True",
        "epochs must be an integer >= 1, got -1",
        "batch_size must be an integer >= 1, got 0.5",
        "step_size must be a number in (0, inf), got 0",
        "holdout must be an integer >= 0, got -1",
        # FIXED: the cross-key check took True for an integer and listed
        # "s=True exceeds m=0"
    ]),
    ("train", {"data_dir": "<data>", "bogus": 1, "m": 6, "k": 7, "s": 7,
               "holdout": 2}, [
        "unknown config key: 'bogus'",
        "s=7 exceeds m=6",
        "k=7 exceeds m=6",
        "m=6 exceeds the data's n=5",
        "k=7 exceeds min(n, d)=2",
        "holdout=2 must leave at least one training matrix out of 2",
    ]),
    ("eval", {"k": 0, "sketch": ""}, [
        "data_dir or data_files must name at least one matrix",
        "k must be an integer >= 1, got 0",
        "sketch path is required",
    ]),
    # FIXED: the k check against the data was train's alone, so eval
    # listed only the unknown key
    ("eval", {"data_dir": "<data>", "sketch": "<sketch>", "k": 3, "bogus": 1}, [
        "unknown config key: 'bogus'",
        "k=3 exceeds min(n, d)=2",
    ]),
    ("proxy-check", {"instances": 0, "epsilons": [], "subset_cap": "x",
                     "q_constant": -1, "n_range": [3], "d_range": [1, 2],
                     "m_max": 0, "k_max": 0}, [
        "instances must be an integer >= 1, got 0",
        "subset_cap must be an integer >= 1, got 'x'",
        "m_max must be an integer >= 1, got 0",
        "k_max must be an integer >= 1, got 0",
        "epsilons must be a nonempty list of numbers in (0, 1), got []",
        "q_constant must be a number in (0, inf), got -1",
        "n_range must be a pair [lo, hi] of integers with 1 <= lo <= hi, got [3]",
        "d_range must be a pair [lo, hi] of integers with 2 <= lo <= hi, "
        "got [1, 2]",
    ]),
    ("proxy-check", {"bogus": 1, "k_max": 5}, [
        "unknown config key: 'bogus'",
        "k_max=5 exceeds m_max=4",
    ]),
    ("shatter-verify", {"family": "x", "n": 0, "d": 0, "k": 0, "s": 0,
                        "gamma": 1, "subset_budget": 0}, [
        "n must be an integer >= 1, got 0",
        "d must be an integer >= 1, got 0",
        "k must be an integer >= 1, got 0",
        "s must be an integer >= 1, got 0",
        "subset_budget must be an integer >= 1, got 0",
        "family must be rank1|dense|block, got 'x'",
        "gamma must be a number in (0, 1), got 1",
    ]),
    ("shatter-verify", {"bogus": 1, "also": 2}, [
        "unknown config key: 'bogus'",
        "unknown config key: 'also'",
    ]),
    ("gj-trace", {"demo": "x", "k": 0, "q": -1, "r": 0, "items": 0,
                  "epsilon": 1, "q_constant": 0, "m": 0, "n": 0, "d": 0}, [
        "demo must be one of ('power', 'min-of-r', 'projection', 'knapsack', "
        "'proxy-pipeline'), got 'x'",
        "k must be an integer >= 1, got 0",
        "r must be an integer >= 1, got 0",
        "items must be an integer >= 1, got 0",
        "m must be an integer >= 1, got 0",
        "n must be an integer >= 1, got 0",
        "d must be an integer >= 1, got 0",
        "q must be an integer >= 0, got -1",
        "epsilon must be a number in (0, 1), got 1",
        "q_constant must be a number in (0, inf), got 0",
    ]),
    ("gj-trace", {"bogus": 1, "m": 4}, [
        "unknown config key: 'bogus'",
        "m=4 exceeds n=3",
    ]),
    ("amg-check", {"instances": 0, "n_max": 3, "m_max": 1, "s_max": 0,
                   "noise": "x"}, [
        "instances must be an integer >= 1, got 0",
        "s_max must be an integer >= 1, got 0",
        "n_max must be an integer >= 4, got 3",
        "m_max must be an integer >= 2, got 1",
        "noise must be a number in [0, inf), got 'x'",
    ]),
    ("amg-check", {"bogus": 1}, [
        "unknown config key: 'bogus'",
    ]),
    # FIXED: a string data_files was read as a list of one-letter paths and
    # failed with "error: [Errno 2] No such file or directory: 'd'"
    ("train", {"data_files": "data/mat_0000.sklb", "m": 3, "k": 2}, [
        "data_files must be a list of paths, got 'data/mat_0000.sklb'",
    ]),
    ("eval", {"data_files": "data/mat_0000.sklb", "sketch": "<sketch>", "k": 2}, [
        "data_files must be a list of paths, got 'data/mat_0000.sklb'",
    ]),
    # FIXED: a data file that could not be read hid every other error
    # behind "error: [Errno 2] No such file or directory: 'missing.sklb'"
    ("train", {"data_files": ["missing.sklb"], "m": 0, "k": 2}, [
        "data file cannot be read: [Errno 2] No such file or directory: "
        "'missing.sklb'",
        "m must be an integer >= 1, got 0",
        "s=1 exceeds m=0",
        "k=2 exceeds m=0",
    ]),
    # FIXED: the width mismatch surfaced from the library after validation,
    # as "error: sketch has 5 columns but the matrix has 6 rows"
    ("eval", {"data_dir": "<tall>", "sketch": "<sketch>", "k": 2}, [
        "sketch has 5 columns but the data has 6 rows",
    ]),
]


@pytest.mark.parametrize("command, cfg, lines", ERROR_CASES)
def test_bad_configs_list_every_error_in_order(tmp_path, capsys, paths,
                                               command, cfg, lines):
    code, err = _errors(tmp_path, capsys, command, _fill(cfg, paths))
    assert code == 1
    assert err == [f"config error: {line}" for line in lines]


CONFIG_ECHOES = [
    ("gen-data", {"out_dir": "<out>"},
     {"count": 16, "d": 8, "k": 2, "kind": "spiked", "n": 8, "noise": 0.1,
      "out_dir": "<out>"}),
    ("train", {"data_dir": "<data>", "m": 3, "k": 2},
     {"batch_size": 8, "data_dir": "<data>", "data_files": None, "epochs": 10,
      "holdout": 0, "k": 2, "m": 3, "s": 1, "sketch_out": None,
      "step_size": 0.1}),
    ("eval", {"data_dir": "<data>", "sketch": "<sketch>", "k": 2},
     {"data_dir": "<data>", "data_files": None, "k": 2, "sketch": "<sketch>"}),
    ("proxy-check", {"instances": 2},
     {"d_range": [3, 7], "epsilons": [0.1], "instances": 2, "k_max": 3,
      "m_max": 4, "n_range": [3, 9], "q_constant": 4.0, "subset_cap": 5000}),
    ("shatter-verify", {},
     {"d": 4, "family": "rank1", "gamma": 0.1, "k": 2, "n": 6, "s": 1,
      "subset_budget": 256}),
    ("gj-trace", {},
     {"d": 3, "demo": "power", "epsilon": 0.5, "items": 6, "k": 3, "m": 2,
      "n": 3, "q": 3, "q_constant": 1.0, "r": 5}),
    ("amg-check", {"instances": 2},
     {"instances": 2, "m_max": 8, "n_max": 20, "noise": 0.1, "s_max": 3}),
]


@pytest.mark.parametrize("command, cfg, echo", CONFIG_ECHOES)
def test_minimal_configs_echo_every_default(paths, command, cfg, echo):
    report = run_experiment(command, _fill(cfg, paths), seed=7)
    assert json.dumps(report["config"]) == json.dumps(_fill(echo, paths))


def test_echoed_defaults_are_not_shared_between_runs():
    first = run_experiment("proxy-check", {"instances": 1}, seed=7)
    first["config"]["epsilons"].append(0.5)
    second = run_experiment("proxy-check", {"instances": 1}, seed=7)
    assert second["config"]["epsilons"] == [0.1]


# FIXED: a negative --seed reached numpy unmasked and failed the run
@pytest.mark.parametrize("command, cfg", [
    ("train", {"data_dir": "<data>", "m": 3, "k": 2, "epochs": 1}),
    ("shatter-verify", {"family": "block", "n": 18, "k": 2, "s": 1}),
])
def test_a_negative_seed_runs_as_its_value_mod_2_to_the_64(paths, command, cfg):
    low = run_experiment(command, _fill(cfg, paths), seed=-3)
    high = run_experiment(command, _fill(cfg, paths), seed=2**64 - 3)
    assert low["seed"] == -3
    for key in ("pass", "metrics", "rows"):
        assert low[key] == high[key]


# FIXED: a float seed failed in the mod-2^64 mask with a bare TypeError
@pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), (True, "True"), ("3", "'3'")])
def test_a_seed_that_is_not_an_integer_is_refused_by_name(seed, shown):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {shown}$"):
        run_experiment("shatter-verify", {}, seed=seed)


# FIXED: the JSON report went to r.csv and the CSV table then overwrote it
@pytest.mark.parametrize("out", ["r.csv", "R.CSV"])
def test_out_path_ending_in_csv_is_refused_before_running(tmp_path, capsys, out):
    target = tmp_path / out
    assert main(["shatter-verify", "--out", str(target)]) == 1
    assert capsys.readouterr().err == \
        f"error: --out must not end in .csv, got {str(target)!r}\n"
    assert not list(tmp_path.iterdir())


# each default tracer demo's counts at seed 0, as the reports gave them
@pytest.mark.parametrize("demo, n_inputs, max_degree, predicate_count, pdim_bound", [
    ("power", 12, 4, 0, 24.0),
    ("min-of-r", 5, 1, 10, 16.609640474436812),
    ("projection", 9, 6, 6, 46.529325012980806),
    ("knapsack", 1, 1, 15, 3.9068905956085187),
    ("proxy-pipeline", 3, 152, 14, 33.165847306503565),
])
def test_default_gj_trace_reports(demo, n_inputs, max_degree, predicate_count,
                                  pdim_bound):
    report = run_experiment("gj-trace", {"demo": demo}, seed=0)
    metrics = report["metrics"]
    assert report["pass"]
    assert (metrics["n_inputs"], metrics["max_degree"], metrics["predicate_count"]) \
        == (n_inputs, max_degree, predicate_count)
    assert metrics["pdim_bound"] == pytest.approx(pdim_bound, rel=1e-12)


# the Trace.op calls each default tracer demo makes at seed 0: the
# benchmark's gjtrace.ops counter counts them by rebinding Trace.op
@pytest.mark.parametrize("demo, ops", [
    ("power", 45), ("min-of-r", 10), ("projection", 369), ("knapsack", 15),
    ("proxy-pipeline", 731),
])
def test_default_gj_trace_op_counts(monkeypatch, demo, ops):
    kinds = []
    op = Trace.op

    def counted(self, a, b, kind):
        kinds.append(kind)
        return op(self, a, b, kind)

    monkeypatch.setattr(Trace, "op", counted)
    assert run_experiment("gj-trace", {"demo": demo}, seed=0)["pass"]
    assert len(kinds) == ops
