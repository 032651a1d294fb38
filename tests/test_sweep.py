import math
import time

import pytest

from liftlab import (Q, instance_to_json, lp_value, make_instance, rat_str,
                     uniform_gap_instance)
from liftlab.sweep import (CSV_HEADER, ResultRow, SweepConfig, _decompose_parts,
                           emit_csv, rows_to_csv_text, run_sweep)


def uniform_cert_value(n, eps, t):
    return 2 * (1 - eps) * n / (n + (t - 1) * (1 - eps))


def test_sa_cert_grid_matches_closed_form():
    cfg = SweepConfig(family="uniform", n_values=(10, 20),
                      eps_values=("1/10",), t_values=(2, 3, 4, 5),
                      modes=("sa-cert",))
    rows = run_sweep(cfg)
    assert len(rows) == 8
    eps = Q(1, 10)
    by_key = {(r.n, r.t): r for r in rows}
    for n in (10, 20):
        for t in (2, 3, 4, 5):
            row = by_key[(n, t)]
            assert row.status == "exact"
            assert row.value == rat_str(uniform_cert_value(n, eps, t))
            assert row.ratio == row.value  # OPT = 1 on these instances
    # deterministic order: instance major, then t, then mode
    assert [(r.n, r.t) for r in rows] == [(10, 2), (10, 3), (10, 4), (10, 5),
                                          (20, 2), (20, 3), (20, 4), (20, 5)]


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(t_values=()).validate()
    with pytest.raises(ValueError):
        SweepConfig(family="uniform", n_values=(4,), eps_values=(),
                    t_values=(1,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(family="grid", t_values=(1,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(family="files", files=(), t_values=(1,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                    t_values=(1,), modes=("simplex",)).validate()
    with pytest.raises(ValueError):
        SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                    t_values=(0,)).validate()
    with pytest.raises(ValueError, match="no modes requested"):
        SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                    t_values=(1,), modes=()).validate()
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                        t_values=(1,), tol=tol).validate()
    # malformed levels, sizes, files, output or tol name the field, where
    # they ran as n = 1 or t = 1, wrote to a file descriptor or made an
    # error row; the other family's inputs, once silently ignored, are refused
    base = dict(family="uniform", n_values=(4,), eps_values=("1/10",), t_values=(1,))
    for change, says in [({"t_values": (2.5,)}, "levels t must be integers"),
                         ({"t_values": (True,)}, "levels t must be integers"),
                         ({"t_values": ("2",)}, "levels t must be integers"),
                         ({"n_values": (True,)}, "item counts n must be integers"),
                         ({"n_values": (6.0,)}, "item counts n must be integers"),
                         ({"output": 2}, "output must be a path string"),
                         ({"family": "files", "files": ("a.json", 3)},
                          "instance files must be path strings"),
                         ({"tol": True}, "tol must be a number"),
                         ({"tol": "1e-4"}, "tol must be a number"),
                         ({"files": ("a.json",)},
                          "uniform family takes no instance files"),
                         ({"family": "files", "files": ("a.json",)},
                          "files family takes no n or eps ranges"),
                         ({"family": "files", "files": ("a.json",), "n_values": ()},
                          "files family takes no n or eps ranges")]:
        with pytest.raises(ValueError) as exc:
            SweepConfig(**{**base, **change}).validate()
        assert str(exc.value) == says, change


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"n_values": [4], "delta": "1/4"})
    # a config of the wrong shape names what is wrong, not a symptom of it
    for obj, says in [([1], "sweep config must be a JSON object"),
                      ({"files": "inst.json"}, "config key 'files' must be a list"),
                      ({"modes": "sa-lp"}, "config key 'modes' must be a list"),
                      ({"n_values": 6}, "config key 'n_values' must be a list"),
                      ({"eps_values": "1/10"}, "config key 'eps_values' must be a list"),
                      ({"t_values": 2}, "config key 't_values' must be a list")]:
        with pytest.raises(ValueError) as exc:
            SweepConfig.from_dict(obj)
        assert str(exc.value) == says


def test_decompose_rows_on_the_gap_family_are_fast():
    # every item of uniform(10, 1/10) is big, so S is the ground set: the
    # split visits the 11 X with |X| < 2, not all 1024
    inst = uniform_gap_instance(10, "1/10")
    start = time.perf_counter()
    assert [_decompose_parts(inst, t) for t in (3, 4)] == [11, 11]
    assert time.perf_counter() - start < 5


def test_caps_enforced_before_dispatch(tmp_path):
    # the rows x variables cap guards the dense LP, so it needs a non-uniform instance
    path = tmp_path / "skewed.json"
    path.write_text(instance_to_json(make_instance([1] * 19 + [2], [1] * 20, 2)),
                    encoding="utf-8")
    cfg = SweepConfig(family="files", files=(str(path),), t_values=(6,),
                      modes=("sa-lp",))
    with pytest.raises(ValueError):
        run_sweep(cfg)


def test_uniform_sa_lp_rows_pass_the_dense_cap():
    # 21700 and 60460 lifted variables, far over the cap, but the uniform
    # LP has t + 1 orbit variables
    cfg = SweepConfig(family="uniform", n_values=(20,), eps_values=("1/10",),
                      t_values=(5, 6), modes=("sa-lp",))
    rows = run_sweep(cfg)
    assert [(r.status, r.value) for r in rows] == [("exact", "45/29"),
                                                   ("exact", "3/2")]


def test_sa_rows_reach_past_the_search_cap():
    # n = 30 > 24: OPT = 1 comes from the uniform closed form
    cfg = SweepConfig(family="uniform", n_values=(30,), eps_values=("1/10",),
                      t_values=(5,), modes=("sa-lp", "sa-cert"))
    rows = run_sweep(cfg)
    assert [(r.mode, r.status, r.value) for r in rows] == [
        ("sa-lp", "exact", "135/83"), ("sa-cert", "exact", "45/28")]
    assert all(r.ratio == r.value for r in rows)


def test_lasserre_cap_enforced_before_dispatch(tmp_path):
    # non-uniform n = 12, t = 3: |P_6| |P_3|^2 = 224396510 floats, over the
    # dense cap; the whole sweep is refused, its t = 1 row included
    path = tmp_path / "skewed.json"
    path.write_text(instance_to_json(make_instance([1] * 11 + ["3/2"], [1] * 12,
                                                   "19/10")), encoding="utf-8")
    cfg = SweepConfig(family="files", files=(str(path),), t_values=(1, 3),
                      modes=("lasserre",))
    with pytest.raises(ValueError, match="hold 224396510 floats"):
        run_sweep(cfg)


def test_uniform_lasserre_curve_at_two_hundred_items():
    # the orbit path enumerates no subsets: n = 200 runs at every level
    cfg = SweepConfig(family="uniform", n_values=(200,), eps_values=("1/10",),
                      t_values=(2, 3, 4, 5), modes=("lasserre",))
    rows = run_sweep(cfg)
    assert [(r.t, r.status) for r in rows] == [(t, "approx") for t in range(2, 6)]
    assert abs(float(rows[0].value) - 81 / 65) <= 1e-4
    assert [r.value for r in rows[1:]] == ["1"] * 3


def test_ratio_is_value_over_opt(tmp_path):
    # OPT = 3 (item 0 alone); level 1 is the base LP, 3 + 1/2 * 2 = 4, and
    # the Lasserre estimate stays below that bound
    inst = make_instance([1, 2], [3, 2], 2)
    path = tmp_path / "i.json"
    path.write_text(instance_to_json(inst), encoding="utf-8")
    cfg = SweepConfig(family="files", files=(str(path),), t_values=(1,),
                      modes=("sa-lp", "lasserre"), tol=1e-3)
    lp_row, las_row = run_sweep(cfg)
    assert (lp_row.value, lp_row.ratio) == (rat_str(lp_value(inst)), "4/3")
    assert float(las_row.value) <= float(lp_value(inst)) + 1e-3
    assert abs(float(las_row.ratio) - float(las_row.value) / 3) < 1e-9


def test_lasserre_rows_carry_approx_status_and_residual(tmp_path):
    path = tmp_path / "i.json"
    path.write_text(instance_to_json(make_instance([1, 2], [3, 2], 2)),
                    encoding="utf-8")
    cfg = SweepConfig(family="files", files=(str(path),), t_values=(1,),
                      modes=("lasserre",), tol=1e-3)
    rows = run_sweep(cfg)
    assert rows[0].status == "approx"
    assert rows[0].residual >= 0.0
    assert rows[0].eps == ""


def test_decompose_mode_counts_parts():
    cfg = SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                      t_values=(3,), modes=("decompose",))
    rows = run_sweep(cfg)
    assert rows[0].status == "exact"
    assert int(rows[0].value) >= 1
    assert rows[0].ratio == ""
    cfg = SweepConfig(family="uniform", n_values=(4,), eps_values=("1/10",),
                      t_values=(1,), modes=("decompose",))
    row, = run_sweep(cfg)
    assert (row.status, row.value) == ("error", "")
    assert row.error == "ValueError: decompose mode needs t >= 2"


def test_per_row_errors_do_not_abort(tmp_path):
    # sa-cert is undefined off the uniform family: that row errors out
    # while the sa-lp row on the same instance still succeeds
    path = tmp_path / "i.json"
    path.write_text(instance_to_json(make_instance([1, 2], [3, 2], 2)),
                    encoding="utf-8")
    cfg = SweepConfig(family="files", files=(str(path),), t_values=(2,),
                      modes=("sa-cert", "sa-lp"))
    rows = run_sweep(cfg)
    assert [r.status for r in rows] == ["error", "exact"]
    assert rows[0].value == "" and rows[0].ratio == ""
    assert rows[1].value == "3"
    # the failed row says why, outside the CSV columns
    assert rows[0].error.startswith("ValueError: ") and "uniform" in rows[0].error
    assert rows[1].error == ""
    assert "error" not in CSV_HEADER


def test_sa_cert_runs_on_unit_sizes_and_values_only(tmp_path):
    # the certificate's value n*alpha assumes every value is 1: with values
    # 3 it would read 36/23, below OPT = 3, so that row must be an error
    files = []
    for name, value in (("unit", 1), ("values3", 3)):
        path = tmp_path / f"{name}.json"
        path.write_text(instance_to_json(
            make_instance([1] * 6, [value] * 6, Q(9, 5))), encoding="utf-8")
        files.append(str(path))
    cfg = SweepConfig(family="files", files=tuple(files), t_values=(2,),
                      modes=("sa-cert",))
    unit, values3 = run_sweep(cfg)
    assert (unit.status, unit.value, unit.ratio) == ("exact", "36/23", "36/23")
    assert (values3.status, values3.value, values3.ratio) == ("error", "", "")
    assert "every size and value must be 1" in values3.error


def test_emit_csv_contracts(tmp_path):
    row = ResultRow("uniform-n20-e1/10", 20, "1/10", 5, "sa-cert",
                    "90/59", "90/59", "exact", 12)
    path = tmp_path / "out.csv"
    emit_csv([row], str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].split(",")[5] == "90/59"

    emit_csv([], str(path))
    assert path.read_text(encoding="utf-8").splitlines() == [",".join(CSV_HEADER)]


def test_rows_to_csv_text(tmp_path):
    row = ResultRow("x", 2, "", 1, "sa-lp", "3", "1", "exact", 1)
    text = rows_to_csv_text([row])
    assert text == ("instance,n,eps,t,mode,value,ratio,status,runtime_ms\n"
                    "x,2,,1,sa-lp,3,1,exact,1\n")
    # a comma in a field is quoted, and the file gets exactly the stdout text
    rows = [row, ResultRow("a,b", 2, "", 1, "sa-lp", "3", "1", "exact", 1)]
    text = rows_to_csv_text(rows)
    assert text.splitlines()[2] == '"a,b",2,,1,sa-lp,3,1,exact,1'
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    assert path.read_bytes() == text.encode("utf-8")


def test_exact_columns_reproduce_byte_identically():
    cfg = SweepConfig(family="uniform", n_values=(6,), eps_values=("1/10",),
                      t_values=(2,), modes=("sa-cert", "sa-lp"))
    first = [(r.instance, r.value, r.ratio, r.status) for r in run_sweep(cfg)]
    second = [(r.instance, r.value, r.ratio, r.status) for r in run_sweep(cfg)]
    assert first == second
