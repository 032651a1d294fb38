import json
import re

import pytest

from liftlab import (Q, SetVector, Violation, convex_combination,
                     family_p_t, instance_to_json, integer_to_moment,
                     lasserre_membership, make_instance, rat_str,
                     setvector_to_json, uniform_gap_instance)
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


def test_json_says_which_membership_path_ran(inst_file, tmp_path, capsys):
    code = main(["sa-cert", "--n", "10", "--eps", "1/10", "--t", "3",
                 "--delta", "3/10", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced"] is True and out["checks"] == 4 + 3
    inst, path = inst_file  # sizes 1 and 2: no orbit reduction
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, 1, 2)),
                     encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "sa", "--t", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["reduced"] is False


def test_sa_cert_usage_error_when_level_exceeds_delta_n(capsys):
    code = main(["sa-cert", "--n", "10", "--eps", "1/10", "--t", "3",
                 "--delta", "1/10"])
    assert code == 2
    assert "error" in capsys.readouterr().err


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
    assert set(out) == {"value", "mode", "residual", "iterations", "notes"}
    assert out["value"] >= 3.0 - 1e-3  # never below the integer optimum
    assert out["notes"][0].startswith("lower estimate")
    # ten Newton steps stop the path short: the notes say so, and that the
    # 0/1 start stands, as the text does
    argv = ["lasserre-value", "--instance", path, "--t", "2", "--tol", "0.5",
            "--max-sweeps", "10"]
    assert main(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 3.0 and len(out["notes"]) == 3
    assert out["notes"][-1].endswith("the integer optimum 3")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"  note: {note}" for note in out["notes"]]


def test_lasserre_value_rejects_nonpositive_sweep_budget(inst_file, capsys):
    _, path = inst_file
    code = main(["lasserre-value", "--instance", path, "--t", "1",
                 "--max-sweeps", "-3"])
    assert code == 2
    assert "max_sweeps" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_lasserre_value_rejects_a_non_finite_tol(inst_file, capsys, tol):
    _, path = inst_file
    code = main(["lasserre-value", "--instance", path, "--t", "1", "--tol", tol])
    assert code == 2
    assert "tol" in capsys.readouterr().err


def test_verify_accepts_integer_point(inst_file, tmp_path, capsys):
    inst, path = inst_file
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, 1, 4)),
                     encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "lasserre", "--t", "2"])
    assert code == 0
    assert "accepted" in capsys.readouterr().out


def test_lasserre_verify_says_when_the_orbit_blocks_decided(inst_file, tmp_path,
                                                             capsys):
    # the 6/5 point at uniform n=8: y_i = 3/20, y_ij = 9/1000, larger sets 0
    inst_path = tmp_path / "u8.json"
    inst_path.write_text(instance_to_json(uniform_gap_instance(8, "1/10")),
                         encoding="utf-8")
    level = [Q(1), Q(3, 20), Q(9, 1000), Q(0), Q(0)]
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(SetVector(8, {
        m: level[m.bit_count()] for m in family_p_t(8, 4)})), encoding="utf-8")
    code = main(["verify", "--instance", str(inst_path), "--point", str(point),
                 "--mode", "lasserre", "--t", "2", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is True and out["reduced"] is True
    inst, path = inst_file  # sizes 1 and 2: the dense matrices decide
    point.write_text(setvector_to_json(integer_to_moment(inst, 1, 4)),
                     encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "lasserre", "--t", "2", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is True and out["reduced"] is False


def test_verify_prints_a_long_margin_as_a_float(tmp_path, capsys):
    # a profile with 20- and 25-digit denominators off the 31/25 point: both
    # rejected pivots have long exact forms, printed as floats in the text
    # and exactly in the JSON's margins
    inst_path = tmp_path / "u4.json"
    inst_path.write_text(instance_to_json(uniform_gap_instance(4, "1/10")),
                         encoding="utf-8")
    level = [Q(1), Q(31, 100) + Q(1, 10 ** 20 + 39), Q(9, 1000) - Q(1, 10 ** 25 + 13),
             Q(0), Q(0)]
    y = SetVector(4, {m: level[m.bit_count()] for m in family_p_t(4, 4)})
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(y), encoding="utf-8")
    argv = ["verify", "--instance", str(inst_path), "--point", str(point),
            "--mode", "lasserre", "--t", "2"]
    report = lasserre_membership(y, uniform_gap_instance(4, "1/10"), 2)
    margins = [v.margin for v in report.violations]
    assert len(margins) == 2 and all(len(rat_str(m)) > 40 for m in margins)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        f"  {v.kind} at {list(v.witness)} (margin ~{float(v.margin):.6g})"
        for v in report.violations]
    assert lines[1].endswith("(margin ~-0.1896)"), lines
    assert main(argv + ["--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["margins"] == [rat_str(m) for m in margins]
    assert [Q(m) for m in out["margins"]] == margins
    # a margin of exactly 40 characters still prints exactly
    edge = Q(-1, 10 ** 36)
    assert len(rat_str(edge)) == 40
    assert Violation("k", (0,), edge).describe() == f"k at [0] (margin {rat_str(edge)})"
    assert Violation("k", (0,), edge / 10).describe() == "k at [0] (margin ~-1e-37)"


def test_verify_rejects_bad_point(inst_file, tmp_path, capsys):
    inst, path = inst_file
    y = integer_to_moment(inst, 1, 2)
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
    point.write_text(setvector_to_json(integer_to_moment(inst, 1, 6)),
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


def test_decompose_json_lists_the_violations_of_a_rejected_split(tmp_path, capsys):
    # the 0/1 point of items {2, 3} costs 2 > C = 9/5: its one part carries
    # it whole and fails both membership checks, each margin the count of
    # violations inside
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(SetVector(
        4, {m: Q(int(m & ~0b1100 == 0)) for m in range(16)})), encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "3", "--k", "2", "--s", "0,1", "--json"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["accepted"], out["violations"], out["margins"]) == (False, 2, ["1", "1"])


@pytest.mark.parametrize("flags", [["--t", "2", "--k", "2"],
                                   ["--t", "3", "--k", "2", "--s", "5"],
                                   ["--t", "3", "--k", "2", "--s", "-1"]])
def test_decompose_usage_errors_exit_two(tmp_path, capsys, flags):
    inst = uniform_gap_instance(4, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, 1, 6)),
                     encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point)] + flags)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if "-1" in flags:
        assert "-1" in err[0]


def test_decompose_with_too_few_items_outside_s_exits_two(tmp_path, capsys):
    # S = {0, 1, 2} leaves item 3 alone outside it, but the residual check
    # of the parts runs at level t-k = 2; a sweep row reads the same error
    inst = make_instance([3, 1, 1, 3], [5, 4, 4, 1], 4)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    y = convex_combination([(Q(1, 2), integer_to_moment(inst, m, 6))
                            for m in (0, 0b1000)])
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(y), encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "3", "--k", "1", "--s", "0,1,2"])
    assert code == 2
    says = "items [3] outside S are too few for the residual check at level t-k = 2"
    assert capsys.readouterr().err.splitlines() == [f"error: {says}"]
    # at t = 4 the sweep takes k = 2 and S = the items worth more than OPT/3
    code = main(["sweep", "--files", str(inst_path),
                 "--t", "4", "--modes", "decompose", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "error" and row["error"] == f"ValueError: {says}"


def test_decompose_above_n_exits_two(tmp_path, capsys):
    # S = V leaves nothing for the residual check, but the parts would still
    # be checked at level t-k = 3 > n = 2; a sweep row reads the same error
    inst = uniform_gap_instance(2, "1/10")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point = tmp_path / "pt.json"
    point.write_text(setvector_to_json(integer_to_moment(inst, 0, 8)),
                     encoding="utf-8")
    code = main(["decompose", "--instance", str(inst_path), "--point",
                 str(point), "--t", "4", "--k", "1", "--s", "0,1"])
    assert code == 2
    says = "level t-k = 3 exceeds n = 2"
    assert capsys.readouterr().err.splitlines() == [f"error: {says}"]
    # at t = 5 the sweep takes k = 2
    code = main(["sweep", "--files", str(inst_path),
                 "--t", "5", "--modes", "decompose", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "error" and row["error"] == f"ValueError: {says}"


def test_missing_file_is_usage_error(capsys):
    code = main(["sa-value", "--instance", "/nonexistent.json", "--t", "1"])
    assert code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sa-value", "--bogus"])
    assert exc.value.code == 2


def test_sweep_csv_to_stdout(capsys):
    code = main(["sweep", "--n", "10,20",
                 "--eps", "1/10", "--t", "2:5", "--modes", "sa-cert"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "instance,n,eps,t,mode,value,ratio,status,runtime_ms"
    assert len(lines) == 9
    assert lines[1].startswith("uniform-n10-e1/10,10,1/10,2,sa-cert,180/109")


def test_sweep_out_gets_the_stdout_text(tmp_path, capsys):
    # --json picks the format and --out the destination: the file holds what
    # stdout would, with LF endings, and nothing is printed
    runtime = re.compile(r'(?<="runtime_ms": )\d+|\d+$', re.M)
    for fmt in ([], ["--json"]):
        argv = ["sweep", "--n", "6", "--eps", "1/10", "--t", "2",
                "--modes", "sa-cert,sa-lp"] + fmt
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out_path = tmp_path / "rows.out"
        assert main(argv + ["--out", str(out_path)]) == 0
        assert capsys.readouterr() == ("", "")
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert runtime.sub("0", raw.decode("utf-8")) == runtime.sub("0", stdout)
    assert [row["value"] for row in json.loads(stdout)] == ["36/23", "9/5"]


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"n_values": [6], "eps_values": ["1/10"],
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
    code = main(["sweep", "--n", "6",
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
    ["sweep", "--threads", "2"],
    ["decompose", "--instance", "i.json", "--point", "p.json", "--t", "2",
     "--k", "1", "--seed", "1"],
    ["sa-cert", "--n", "6", "--eps", "1/10", "--t", "2", "--delta", "1/2",
     "--seed", "1"],
    ["lasserre-value", "--instance", "i.json", "--t", "1", "--symmetry"],
    ["sa-cert", "--n", "6", "--eps", "1/10", "--t", "2", "--delta", "1/2",
     "--emit-violations", "v.json"],
    ["sweep", "--family", "uniform", "--n", "6", "--eps", "1/10", "--t", "2"],
])
def test_removed_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_config_with_threads_is_rejected(tmp_path, capsys):
    cfg = {"n_values": [6], "eps_values": ["1/10"],
           "t_values": [2], "modes": ["sa-cert"], "threads": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("change, says", [
    ({"t_values": [2.5]}, "levels t must be integers"),
    ({"n_values": [True]}, "item counts n must be integers"),
    ({"output": 2}, "output must be a path string"),
    # the files named do not exist: the sweep stops before it opens any
    ({"files": ["x.json"]}, "instance files take no n or eps ranges"),
    # the inputs decide the grid: there is no family to name
    ({"family": "files"}, "unknown config keys: ['family']"),
])
def test_sweep_config_with_malformed_fields_exits_two(tmp_path, capsys, change, says):
    cfg = {"n_values": [6], "eps_values": ["1/10"],
           "t_values": [2], "modes": ["sa-lp"], **change}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {says}\n"


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


@pytest.mark.parametrize("text, says", [
    ('[1, 2]', "point must be a JSON object"),
    ('{"[]": "1", "[-1]": "1/2", "[0]": "0", "[1]": "0"}',
     "point key '[-1]' has a negative item index"),
    ('{"[]": "1", "[0,0]": "1/2", "[0]": "1/3", "[1]": "0"}', "subset [0] is given twice"),
    ('{"[]": "1", "[0]": "1/2", "[0]": "1/3", "[1]": "0"}', "subset [0] is given twice"),
    ('{"[]": "1", "0": "1/2", "[1]": "0"}', "point key '0' is not a list of item indices"),
    ('{"[]": "1", "[0": "1/2", "[1]": "0"}', "point key '[0' is not a list of item indices"),
    ('{"[]": "1", "[0]": "1/0", "[1]": "0"}', "zero denominator in '1/0'"),
])
def test_malformed_point_names_the_problem(inst_file, tmp_path, capsys, text, says):
    _, path = inst_file
    point = tmp_path / "pt.json"
    point.write_text(text, encoding="utf-8")
    code = main(["verify", "--instance", path, "--point", str(point),
                 "--mode", "sa", "--t", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


def test_sweep_json_says_why_a_row_failed(inst_file, capsys):
    _, path = inst_file
    code = main(["sweep", "--files", path, "--t", "2",
                 "--modes", "sa-cert", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "error"
    assert row["error"].startswith("ValueError: ") and "uniform" in row["error"]


def test_sweep_json_lasserre_row_above_the_search_cap(tmp_path, capsys):
    # 25 non-uniform items: no exact OPT, so the optimizer starts from greedy
    # and the row has a value but no ratio
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(make_instance([1] * 24 + [2], [1] * 24 + [3],
                                                   "5/2")), encoding="utf-8")
    code = main(["sweep", "--files", str(path), "--t", "1",
                 "--modes", "lasserre", "--tol", "1e-3", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["status"], row["ratio"]) == ("approx", "")
    assert 3 <= float(row["value"]) <= 3.5 + 1e-3
    assert row["error"].startswith("ratio: ValueError: ")


def test_sweep_decompose_row_above_the_search_cap(tmp_path, capsys):
    # 25 non-uniform items: S = big_items falls back to the greedy value 3
    path = tmp_path / "big.json"
    path.write_text(instance_to_json(make_instance([1] * 24 + [2], [1] * 24 + [3],
                                                   "5/2")), encoding="utf-8")
    code = main(["sweep", "--files", str(path), "--t", "2",
                 "--modes", "decompose", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "exact", row["error"]


def test_sweep_stdout_and_file_csv_agree(tmp_path, capsys):
    # a comma in the instance name must be quoted on both outputs
    path = tmp_path / "a,b.json"
    path.write_text(instance_to_json(make_instance([1, 2], [3, 2], 2)),
                    encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"files": [str(path)],
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


@pytest.mark.parametrize("text, says", [
    ('{"n": 1, "capacity": "2"}', "instance has no 'items' key"),
    ('{"capacity": "2", "items": [{"value": "1"}]}', "item 0 has no 'size' key"),
    ('{"capacity": "2", "items": [{"size": "1", "value": "1"}, {"size": "1"}]}',
     "item 1 has no 'value' key"),
    ('{"items": [{"size": "1", "value": "1"}]}', "instance has no 'capacity' key"),
    ('[{"size": "1", "value": "1"}]', "instance must be a JSON object"),
    ('{"capacity": "2", "items": 5}', "instance 'items' must be a list"),
    ('{"capacity": "1/0", "items": [{"size": "1", "value": "1"}]}',
     "zero denominator in '1/0'"),
])
def test_malformed_instance_names_what_is_missing(tmp_path, capsys, text, says):
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    code = main(["sa-value", "--instance", str(path), "--t", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert says in err


@pytest.mark.parametrize("argv", [
    ["sa-cert", "--n", "10", "--eps", "1/0", "--t", "3", "--delta", "1/2"],
    ["sweep", "--n", "4", "--eps", "1/0", "--t", "2"],
])
def test_zero_denominator_flag_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: zero denominator in '1/0'\n"


def test_sweep_json_keeps_a_value_whose_ratio_is_out_of_reach(tmp_path, capsys):
    # 25 items, not uniform: OPT needs the branch and bound, capped at 24
    # items, but the level-1 value is exact: 24 unit items fill 3 exactly
    path = tmp_path / "wide.json"
    path.write_text(instance_to_json(make_instance([1] * 24 + [2], [1] * 25, 3)),
                    encoding="utf-8")
    code = main(["sweep", "--files", str(path), "--t", "1",
                 "--modes", "sa-lp", "--json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["status"], row["value"], row["ratio"]) == ("exact", "3", "")
    assert row["error"] == "ratio: ValueError: brute force capped at n <= 24"


def test_dense_sa_lp_over_the_cap_is_refused_up_front(tmp_path, capsys):
    # 9185 rows x 793 variables; sa-value and the sweep both exit 2 at once
    path = tmp_path / "skewed.json"
    path.write_text(instance_to_json(make_instance([1] * 11 + ["3/2"], [1] * 12,
                                                   "19/10")), encoding="utf-8")
    for argv in (["sa-value", "--instance", str(path), "--t", "4"],
                 ["sweep", "--files", str(path), "--t", "1,4",
                  "--modes", "sa-lp"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense SA LP at n=12, t=4 has 9185 rows")


def test_dense_lasserre_over_the_cap_is_refused_up_front(tmp_path, capsys):
    # non-uniform n = 12, t = 3: lasserre-value and the sweep both exit 2 at once
    path = tmp_path / "skewed.json"
    path.write_text(instance_to_json(make_instance([1] * 11 + ["3/2"], [1] * 12,
                                                   "19/10")), encoding="utf-8")
    for argv in (["lasserre-value", "--instance", str(path), "--t", "3"],
                 ["sweep", "--files", str(path), "--t", "1,3",
                  "--modes", "lasserre"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense Lasserre blocks at n=12, t=3 hold "
                              "224396510 floats")
