import json

import pytest

from liftlab import (Q, Solution, instance_to_json, integer_to_moment,
                     make_instance, setvector_to_json, uniform_gap_instance)
from liftlab.cli import main


@pytest.fixture
def inst_file(tmp_path):
    inst = make_instance([1, 2], [3, 2], 2)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(inst), encoding="utf-8")
    return inst, str(path)


def test_sa_cert_success(capsys):
    code = main(["sa-cert", "--n", "10", "--eps", "1/10", "--t", "3",
                 "--delta", "3/10", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "90/59"
    assert out["bound_ok"] and out["accepted"]
    assert out["violations"] == 0


def test_sa_cert_usage_error_when_level_exceeds_delta_n(capsys):
    code = main(["sa-cert", "--n", "10", "--eps", "1/10", "--t", "3",
                 "--delta", "1/10"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sa_cert_emits_violation_file(tmp_path, capsys):
    path = tmp_path / "violations.json"
    code = main(["sa-cert", "--n", "6", "--eps", "1/10", "--t", "2",
                 "--delta", "1/2", "--emit-violations", str(path)])
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8")) == []


def test_sa_value(inst_file, capsys):
    _, path = inst_file
    code = main(["sa-value", "--instance", path, "--t", "2", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": "3", "mode": "sa", "residual": 0.0, "iterations": 0}


def test_lasserre_value(inst_file, capsys):
    _, path = inst_file
    code = main(["lasserre-value", "--instance", path, "--t", "1",
                 "--tol", "1e-3", "--max-sweeps", "3000", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "lasserre"
    assert set(out) == {"value", "mode", "residual", "iterations"}
    assert out["value"] >= 3.0 - 1e-3  # never below the integer optimum


def test_lasserre_value_rejects_nonpositive_sweep_budget(inst_file, capsys):
    _, path = inst_file
    code = main(["lasserre-value", "--instance", path, "--t", "1",
                 "--max-sweeps", "-3"])
    assert code == 2
    assert "max_sweeps" in capsys.readouterr().err


def test_verify_accepts_integer_point(inst_file, tmp_path, capsys):
    inst, path = inst_file
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, Solution(1), 4)),
                     encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "lasserre", "--t", "2"])
    assert code == 0
    assert "accepted" in capsys.readouterr().out


def test_verify_rejects_bad_point(inst_file, tmp_path, capsys):
    inst, path = inst_file
    y = integer_to_moment(inst, Solution(1), 2)
    y.values[0b10] = Q(2)  # out of range
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(y), encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "sa", "--t", "2", "--json"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["accepted"] and out["violations"] >= 1


def test_decompose_round_trip(tmp_path, capsys):
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, Solution(1), 6)),
                     encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "3", "--k", "2", "--s", "1,2", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"]
    assert out["parts"] == [{"x": [], "weight": "1"}]


def test_decompose_failure_exits_one(tmp_path, capsys):
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    values = {"[]": "1"}
    for i in range(4):
        values[f"[{i}]"] = "3/5"
    point = tmp_path / "pt.json"
    point.write_text(json.dumps(values), encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "3", "--k", "2", "--s", "0,1"])
    assert code == 1
    assert "not Lasserre-feasible" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--t", "2", "--k", "2"],
                                   ["--t", "3", "--k", "2", "--s", "5"],
                                   ["--t", "3", "--k", "2", "--s", "-1"]])
def test_decompose_usage_errors_exit_two(tmp_path, capsys, flags):
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, Solution(1), 6)),
                     encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point)] + flags)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if "-1" in flags:
        assert "-1" in err[0]


def test_missing_file_is_usage_error(capsys):
    code = main(["sa-value", "--instance", "/nonexistent.json", "--t", "1"])
    assert code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sa-value", "--bogus"])
    assert exc.value.code == 2


def test_sweep_csv_to_stdout(capsys):
    code = main(["sweep", "--family", "uniform", "--n", "10,20",
                 "--eps", "1/10", "--t", "2:5", "--modes", "sa-cert"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "instance,n,eps,t,mode,value,ratio,status,runtime_ms"
    assert len(lines) == 9
    assert lines[1].startswith("uniform-n10-e1/10,10,1/10,2,sa-cert,180/109")


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"family": "uniform", "n_values": [6], "eps_values": ["1/10"],
           "t_values": [2], "modes": ["sa-cert"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out_path = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(cfg_path), "--t", "2,3",
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # override widened the level range


def test_sweep_rejects_empty_levels(capsys):
    code = main(["sweep", "--family", "uniform", "--n", "6",
                 "--eps", "1/10", "--t", "", "--modes", "sa-cert"])
    assert code == 2


def test_decompose_point_missing_entries_fails_cleanly(tmp_path):
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text('{"[]": "1"}', encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "3", "--k", "2"])
    assert code in (1, 2)


@pytest.mark.parametrize("argv", [
    ["sa-value", "--instance", "i.json", "--t", "1", "--full"],
    ["sa-cert", "--n", "6", "--eps", "1/10", "--t", "2", "--delta", "1/2",
     "--families", "all"],
    ["verify", "--instance", "i.json", "--point", "p.json", "--mode", "sa",
     "--t", "1", "--families", "all"],
    ["sa-value", "--instance", "i.json", "--t", "1", "--threads", "2"],
    ["lasserre-value", "--instance", "i.json", "--t", "1", "--threads", "2"],
    ["sweep", "--family", "uniform", "--threads", "2"],
    ["decompose", "--instance", "i.json", "--point", "p.json", "--t", "2",
     "--k", "1", "--seed", "1"],
    ["sa-cert", "--n", "6", "--eps", "1/10", "--t", "2", "--delta", "1/2",
     "--seed", "1"],
])
def test_removed_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_config_with_threads_is_rejected(tmp_path, capsys):
    cfg = {"family": "uniform", "n_values": [6], "eps_values": ["1/10"],
           "t_values": [2], "modes": ["sa-cert"], "threads": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["1.5", "true"])
def test_float_or_bool_in_instance_is_usage_error(tmp_path, capsys, size):
    path = tmp_path / "inst.json"
    path.write_text('{"n": 1, "capacity": "2", "items": '
                    f'[{{"size": {size}, "value": "1"}}]}}', encoding="utf-8")
    code = main(["sa-value", "--instance", str(path), "--t", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_float_in_point_is_usage_error(inst_file, tmp_path, capsys):
    _, path = inst_file
    point = tmp_path / "pt.json"
    point.write_text('{"[]": "1", "[0]": 0.5, "[1]": "0"}', encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "sa", "--t", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_json_says_why_a_row_failed(inst_file, capsys):
    _, path = inst_file
    code = main(["sweep", "--family", "files", "--files", path, "--t", "2",
                 "--modes", "sa-cert", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "error"
    assert row["error"].startswith("ValueError: ") and "uniform" in row["error"]


def test_sweep_stdout_and_file_csv_agree(tmp_path, capsys):
    # a comma in the instance name must be quoted on both outputs
    path = tmp_path / "a,b.json"
    path.write_text(instance_to_json(make_instance([1, 2], [3, 2], 2)),
                    encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "files", "files": [str(path)],
                                    "t_values": [1], "modes": ["sa-lp"]}),
                        encoding="utf-8")
    argv = ["sweep", "--config", str(cfg_path)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out_path = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(out_path.read_bytes().decode("utf-8")) == strip(stdout)
    assert stdout.splitlines()[1].startswith('"a,b",2,,1,sa-lp,4,4/3,exact,')
