import json
import struct

import numpy as np
import pytest

from sketchlab import cli
from sketchlab.cli import ConfigError, main, named_stream, run_experiment
from sketchlab.matio import (
    MatrixFormatError,
    load_sketch,
    read_matrix,
    save_sketch,
    write_matrix,
)
from sketchlab.sketching import random_sparse_sketch


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-30, 30, (7, 3)))
    path = tmp_path / "a.sklb"
    write_matrix(path, a)
    back = read_matrix(path)
    assert a.tobytes() == back.tobytes()


def test_read_rejects_bad_magic(tmp_path):
    empty = tmp_path / "empty.sklb"
    empty.write_bytes(b"")
    with pytest.raises(MatrixFormatError, match="magic"):
        read_matrix(empty)
    wrong = tmp_path / "wrong.sklb"
    wrong.write_bytes(b"NOPE!" + b"\x00" * 32)
    with pytest.raises(MatrixFormatError, match="magic"):
        read_matrix(wrong)


def test_read_rejects_truncation_and_overflow(tmp_path):
    path = tmp_path / "bad.sklb"
    path.write_bytes(b"SKLB1" + struct.pack("<QQ", 2, 2) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="truncated"):
        read_matrix(path)
    path.write_bytes(b"SKLB1" + struct.pack("<QQ", 2**50, 2) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="overflow"):
        read_matrix(path)


def test_read_csv_by_extension(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(read_matrix(path),
                                  [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text, match", [
    ("a,b\n", "could not convert"),
    ("1,nan\n", "non-finite"),
    ("1,2\n3\n", "not a finite CSV matrix"),
])
def test_read_rejects_unparsable_or_nonfinite_csv(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match=match) as info:
        read_matrix(path)
    assert str(path) in str(info.value)


def test_read_rejects_nonfinite_sklb_payload(tmp_path):
    path = tmp_path / "nan.sklb"
    path.write_bytes(b"SKLB1" + struct.pack("<QQ", 1, 2)
                     + struct.pack("<dd", 1.0, np.nan))
    with pytest.raises(MatrixFormatError, match="nan.sklb: .*non-finite"):
        read_matrix(path)


def test_sketch_round_trip(tmp_path):
    sk = random_sparse_sketch(3, 6, 2, 5)
    path = tmp_path / "sk.json"
    save_sketch(path, sk)
    back = load_sketch(path)
    np.testing.assert_array_equal(back.pattern, sk.pattern)
    np.testing.assert_array_equal(back.values, sk.values)
    assert (back.m, back.n, back.s) == (sk.m, sk.n, sk.s)


@pytest.mark.parametrize("text, match", [
    ("[1, 2]", "must be a JSON object, got list"),
    ('{"m": 3, "s": 1, "values": []}', r"lacks field\(s\) n, pattern$"),
    ('{"m": 3, ', "not a JSON sketch"),
    (json.dumps({"m": 3, "n": 2, "s": 1, "pattern": None,
                 "values": [[1.0], [2.0]]}), "invalid sketch"),
    # an int64 cast would load these rows as [0, 1, 0]
    (json.dumps({"m": 2, "n": 3, "s": 1, "pattern": [[0.9], [1.7], [0.2]],
                 "values": [[1.0], [1.0], [1.0]]}),
     r"invalid sketch \(pattern entries must be integers\)"),
    (json.dumps({"m": 2.0, "n": 2, "s": 1, "pattern": [[0], [1]],
                 "values": [[1.0], [1.0]]}), r"invalid sketch \(m must be"),
    (json.dumps({"m": True, "n": 2, "s": 1, "pattern": [[0], [0]],
                 "values": [[1.0], [1.0]]}), r"invalid sketch \(m must be"),
])
def test_load_sketch_rejects_malformed_documents(tmp_path, text, match):
    path = tmp_path / "sk.json"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match=match) as exc:
        load_sketch(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_named_streams_are_deterministic_and_distinct():
    a1 = named_stream(7, "alpha").standard_normal(4)
    a2 = named_stream(7, "alpha").standard_normal(4)
    b = named_stream(7, "beta").standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_config_errors_are_collected_all_at_once():
    with pytest.raises(ConfigError) as exc:
        run_experiment("train", {"s": 0, "epochs": -1, "bogus": 1}, seed=0)
    messages = " | ".join(exc.value.errors)
    assert "bogus" in messages
    assert "m" in messages
    assert "epochs" in messages
    assert len(exc.value.errors) >= 4


@pytest.mark.parametrize("command, cfg, starts", [
    ("gj-trace", {"demo": "power", "k": 0}, ["k must"]),
    ("gj-trace", {"demo": "proxy-pipeline", "epsilon": 2}, ["epsilon must"]),
    ("gj-trace", {"demo": "min-of-r", "r": 0}, ["r must"]),
    ("gj-trace", {"demo": "proxy-pipeline", "m": 4, "q": -1, "q_constant": 0},
     ["q must", "q_constant must", "m=4 exceeds n=3"]),
    ("amg-check", {"n_max": 3}, ["n_max must"]),
    ("amg-check", {"m_max": 1, "noise": "x", "bogus": 1},
     ["unknown config key: 'bogus'", "m_max must", "noise must"]),
    ("proxy-check", {"k_max": 0}, ["k_max must"]),
    ("proxy-check", {"n_range": [3, 2], "m_max": 0},
     ["m_max must", "n_range must"]),
    ("proxy-check", {"d_range": [1, 4], "n_range": [2, "x"]},
     ["n_range must", "d_range must"]),
    ("proxy-check", {"k_max": 5}, ["k_max=5 exceeds m_max=4"]),
    ("shatter-verify", {"gamma": "x"}, ["gamma must"]),
    ("shatter-verify", {"n": 0, "gamma": 1.0}, ["n must", "gamma must"]),
    ("proxy-check", {"q_constant": 0}, ["q_constant must"]),
    ("proxy-check", {"q_constant": "x", "epsilons": 0.1},
     ["epsilons must", "q_constant must"]),
    ("proxy-check", {"epsilons": ["a"]}, ["epsilons must"]),
    ("train", {"m": 2, "k": 1, "holdout": 1.5},
     ["data_dir or data_files", "holdout must"]),
    ("train", {"m": 2, "k": 1, "holdout": "x"},
     ["data_dir or data_files", "holdout must"]),
    ("gen-data", {"noise": "x"}, ["noise must", "out_dir is required"]),
    ("gen-data", {"noise": -0.1}, ["noise must", "out_dir is required"]),
    ("gen-data", {"noise": float("inf")}, ["noise must", "out_dir is required"]),
    ("gj-trace", {"seed": 5}, ["unknown config key: 'seed'"]),
    ("proxy-check", {"command": "train"}, ["unknown config key: 'command'"]),
    ("gj-trace", {"demo": "proxy-pipeline", "epsilon": 1},
     ["epsilon must be a number in (0, 1), got 1"]),
    # path keys are strings, checked before any file is read or written
    ("train", {"m": 2, "k": 1, "sketch_out": 5},
     ["data_dir or data_files", "sketch_out must be a path string, got 5"]),
    ("train", {"data_dir": 5, "m": 2, "k": 1},
     ["data_dir or data_files", "data_dir must be a path string, got 5"]),
    ("gen-data", {"out_dir": 5}, ["out_dir must be a path string, got 5"]),
    ("eval", {"data_dir": 5, "sketch": 5, "k": 1},
     ["data_dir or data_files", "data_dir must be a path string, got 5",
      "sketch must be a path string, got 5"]),
    ("eval", {"data_dir": [5], "k": 1},
     ["data_dir or data_files", "data_dir must be a path string, got [5]",
      "sketch path is required"]),
    # the sketch is read before the rules run; a file it cannot read is
    # listed with them
    ("eval", {"sketch": "no/such/sketch.json", "k": 0},
     ["data_dir or data_files", "sketch cannot be read: [Errno 2]", "k must"]),
])
def test_bad_keys_are_config_errors_listed_together(tmp_path, capsys, command,
                                                    cfg, starts):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(starts)
    for line, start in zip(lines, starts):
        assert line.startswith(f"config error: {start}")


@pytest.mark.parametrize("cfg, starts", [
    ({"m": 6, "k": 2}, ["m=6 exceeds the data's n=5"]),
    ({"m": 3, "k": 3}, ["k=3 exceeds min(n, d)=2"]),
    ({"m": 3, "k": 2, "step_size": 0}, ["step_size must"]),
    ({"m": 3, "k": 2, "step_size": "x"}, ["step_size must"]),
    ({"m": 6, "k": 6, "step_size": -1.0},
     ["step_size must", "m=6 exceeds the data's n=5", "k=6 exceeds min(n, d)=2"]),
    ({"m": 3, "k": 2, "holdout": 1.5}, ["holdout must"]),
])
def test_train_config_errors_against_the_data_are_listed_together(
        tmp_path, capsys, cfg, starts):
    for i in range(2):
        write_matrix(tmp_path / f"mat_{i}.sklb", np.ones((5, 2)) + i)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"data_dir": str(tmp_path), **cfg}))
    assert main(["train", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(starts)
    for line, start in zip(lines, starts):
        assert line.startswith(f"config error: {start}")


def test_unparsable_csv_data_file_is_listed_with_other_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"data_files": [str(bad)], "m": 0, "k": 2}))
    assert main(["train", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(
        f"config error: data file cannot be read: {bad}: not a finite CSV matrix")
    assert lines[1] == "config error: m must be an integer >= 1, got 0"


def test_reports_are_deterministic_modulo_wall_clock():
    cfg = {"instances": 5, "epsilons": [0.2]}
    r1 = run_experiment("proxy-check", cfg, seed=11)
    r2 = run_experiment("proxy-check", cfg, seed=11)
    for r in (r1, r2):
        r.pop("wall_clock_sec")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_proxy_check_counts_greedy_instances():
    cfg = {"instances": 4, "epsilons": [0.5]}
    greedy = run_experiment("proxy-check", {**cfg, "subset_cap": 1}, seed=3)
    assert greedy["metrics"]["greedy_instances"] == 4
    assert not any(row["exhaustive"] for row in greedy["rows"])
    default = run_experiment("proxy-check", cfg, seed=3)
    assert default["metrics"]["greedy_instances"] == 0
    assert all(row["exhaustive"] for row in default["rows"])


def test_report_embeds_config_and_seed():
    report = run_experiment("gj-trace", {"demo": "min-of-r", "r": 4}, seed=9)
    assert report["config"]["demo"] == "min-of-r"
    assert report["seed"] == 9
    assert set(report["metrics"]) == {"n_inputs", "max_degree",
                                      "predicate_count", "pdim_bound"}


def test_cli_exit_codes(tmp_path):
    ok_cfg = tmp_path / "ok.json"
    ok_cfg.write_text(json.dumps({"family": "rank1", "n": 4, "d": 2,
                                  "gamma": 0.4}))
    out = tmp_path / "report.json"
    assert main(["shatter-verify", "--config", str(ok_cfg),
                 "--seed", "1", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "report.csv").exists()

    fail_cfg = tmp_path / "fail.json"
    fail_cfg.write_text(json.dumps({"family": "rank1", "n": 4, "d": 2,
                                    "gamma": 0.6}))
    assert main(["shatter-verify", "--config", str(fail_cfg),
                 "--seed", "1"]) == 2

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"family": "nope"}))
    assert main(["shatter-verify", "--config", str(bad_cfg)]) == 1


def test_gen_train_eval_workflow(tmp_path):
    gen_cfg = {"kind": "spiked", "count": 6, "n": 6, "d": 6, "k": 2,
               "out_dir": str(tmp_path / "data")}
    assert run_experiment("gen-data", gen_cfg, seed=5)["pass"]
    train_cfg = {"data_dir": str(tmp_path / "data"), "m": 4, "k": 2, "s": 1,
                 "epochs": 2, "step_size": 0.3, "batch_size": 6,
                 "sketch_out": str(tmp_path / "sk.json")}
    train_report = run_experiment("train", train_cfg, seed=5)
    assert train_report["pass"]
    assert train_report["metrics"]["final_loss"] <= \
        train_report["metrics"]["initial_loss"] + 1e-12
    assert "holdout_loss" not in train_report["metrics"]
    eval_cfg = {"data_dir": str(tmp_path / "data"),
                "sketch": str(tmp_path / "sk.json"), "k": 2}
    eval_report = run_experiment("eval", eval_cfg, seed=5)
    assert eval_report["pass"]
    assert 0.0 <= eval_report["metrics"]["mean_loss"] <= 1.0


def test_eval_refuses_k_above_the_sketch_rows_and_reads_the_sketch_once(
        tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run_experiment("gen-data", {"kind": "gaussian", "count": 3, "n": 6, "d": 4,
                                "out_dir": str(data)}, seed=2)
    sketch = str(tmp_path / "sk.json")
    run_experiment("train", {"data_dir": str(data), "m": 3, "k": 2, "epochs": 1,
                             "sketch_out": sketch}, seed=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"data_dir": str(data), "sketch": sketch, "k": 4}))
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: k=4 exceeds the sketch's m=3"]

    reads = []

    def counted(p):
        reads.append(p)
        return load_sketch(p)

    monkeypatch.setattr(cli, "load_sketch", counted)
    report = run_experiment("eval", {"data_dir": str(data), "sketch": sketch,
                                     "k": 3}, seed=2)
    assert report["pass"] and reads == [sketch]


def test_train_rejects_oversized_holdout(tmp_path):
    gen_cfg = {"kind": "gaussian", "count": 4, "n": 5, "d": 4,
               "out_dir": str(tmp_path / "data")}
    run_experiment("gen-data", gen_cfg, seed=2)
    train_cfg = {"data_dir": str(tmp_path / "data"), "m": 3, "k": 2,
                 "holdout": 4}
    with pytest.raises(ConfigError, match="holdout"):
        run_experiment("train", train_cfg, seed=2)


def test_train_holdout_is_eval_of_the_trained_sketch(tmp_path):
    data = tmp_path / "data"
    run_experiment("gen-data", {"kind": "gaussian", "count": 5, "n": 5, "d": 4,
                                "out_dir": str(data)}, seed=2)
    cfg = {"data_dir": str(data), "m": 3, "k": 2, "epochs": 2, "holdout": 2,
           "sketch_out": str(tmp_path / "sk.json")}
    report = run_experiment("train", cfg, seed=2)
    metrics, rows = report["metrics"], report["rows"]
    assert [row["epoch"] for row in rows] == [0, 1]
    assert metrics["final_loss"] == rows[-1]["train_loss"]
    held = sorted(str(p) for p in data.glob("*.sklb"))[-2:]
    evaluated = run_experiment("eval", {"data_files": held, "k": 2,
                                        "sketch": cfg["sketch_out"]}, seed=2)
    assert metrics["holdout_loss"] == evaluated["metrics"]["mean_loss"]


def test_train_rejects_the_unused_fd_step_key(tmp_path):
    data = tmp_path / "data"
    run_experiment("gen-data", {"kind": "gaussian", "count": 2, "n": 5, "d": 4,
                                "out_dir": str(data)}, seed=2)
    with pytest.raises(ConfigError) as exc:
        run_experiment("train", {"data_dir": str(data), "m": 3, "k": 2,
                                 "fd_step": 1e-5}, seed=2)
    assert exc.value.errors == ["unknown config key: 'fd_step'"]


def test_config_root_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["gj-trace", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "config error: config root must be a JSON object\n"


@pytest.mark.parametrize("cfg, expect", [
    ({"demo": "power", "k": 3, "q": 4},
     {"max_degree": 5, "predicate_count": 0, "n_inputs": 12}),
    ({"demo": "projection", "k": 3},
     {"max_degree": 6, "n_inputs": 9}),
    ({"demo": "knapsack", "items": 5},
     {"max_degree": 1, "predicate_count": 10, "n_inputs": 1}),
    ({"demo": "proxy-pipeline", "n": 4, "d": 3, "m": 2},
     {"n_inputs": 4}),
], ids=["power", "projection", "knapsack", "proxy-pipeline"])
def test_gj_trace_demos_report_their_closed_form_counts(cfg, expect):
    # power: q + 1; projection: 2k; knapsack: C(items, 2) degree-1
    # predicates on one input; pipeline: one input per sketch column
    report = run_experiment("gj-trace", cfg, seed=3)
    assert report["pass"]
    assert {key: report["metrics"][key] for key in expect} == expect


@pytest.mark.parametrize("epsilon, reason", [
    (0.5, None),
    (0.05, "the float trace divided by zero"),
    (0.02, "traced value differs from proxy_loss"),
])
def test_gj_trace_pipeline_passes_only_where_its_value_is_proxy_loss(epsilon, reason):
    # seed 7 draws a 3x3 instance whose float trace at small epsilon either
    # divides by zero or follows a path on which the value is 0.99999
    report = run_experiment("gj-trace", {"demo": "proxy-pipeline",
                                         "epsilon": epsilon}, seed=7)
    metrics = report["metrics"]
    assert metrics["proxy_loss"] == pytest.approx(0.50484, abs=1e-5)
    if reason is None:
        assert report["pass"] and metrics["reason"] is None
        assert abs(metrics["value"] - metrics["proxy_loss"]) <= 1e-8
        assert metrics["predicate_count"] == 14
    else:
        assert not report["pass"] and metrics["reason"].startswith(reason)


@pytest.mark.parametrize("family", ["dense", "block"])
def test_shatter_verify_dense_and_block_families(family):
    report = run_experiment("shatter-verify", {"family": family, "n": 6, "k": 2,
                                               "gamma": 0.1}, seed=1)
    metrics = report["metrics"]
    assert report["pass"] and metrics["all_pass"]
    assert metrics["family"] == f"{family}-subset"
    assert metrics["subsets_checked"] == 2 ** metrics["N"]
    assert metrics["min_margin"] >= metrics["gamma"]


def test_amg_check_passes_on_random_problems():
    report = run_experiment("amg-check", {"instances": 6, "n_max": 12}, seed=4)
    assert report["pass"]
    assert len(report["rows"]) == 6
    for row in report["rows"]:
        assert row["deviation"] <= row["allowed"]
        assert row["fixed_point_error"] <= 1e-10
