import ast
import fractions
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import liftlab
from liftlab import instance_to_json, uniform_gap_instance
from liftlab.cli import main

# names the package once exported and no longer has
REMOVED = ("overflow_vanishing_check", "t_families", "project",
           "supersets_within", "LinearConstraint", "capacity_constraint",
           "box_constraints", "all_constraints", "MultilinearPoly", "char_poly",
           "poly_shift", "min_eigenvalue", "psd_float", "matrix_to_float",
           "sa_linear_constraints", "LiftedInequality", "w_normalize",
           "LPInfeasible", "Solution", "SubsetFamily", "emit_csv")


def test_every_export_resolves():
    missing = [name for name in liftlab.__all__ if not hasattr(liftlab, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(liftlab.__all__) == len(set(liftlab.__all__))


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(liftlab.__all__)
    assert not any(hasattr(liftlab, name) for name in REMOVED)


def test_declared_dependencies_import():
    # every runtime dependency in pyproject.toml imports, and the one
    # rational type is the standard library's
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    for dep in deps:
        importlib.import_module(re.match(r"[A-Za-z0-9_.]+", dep).group())
    assert liftlab.Q is fractions.Fraction


def test_every_imported_name_is_read():
    # __init__.py imports to re-export; every other module must read each
    # name it imports (annotations count, __future__ features do not), unless
    # the import is marked "noqa: F401" as kept for its side effect or for
    # callers that reach the name through the module
    package = os.path.dirname(liftlab.__file__)
    unused = []
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(package, fname), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (getattr(node, "module", None) == "__future__"
                    or any("noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{fname}: {name}" for name in sorted(imported - read)]
    assert unused == []


# private helpers that only the tests call, as oracles for the fast paths
TEST_ORACLES = {"_sa_membership_dense", "_lasserre_membership_dense"}


def test_every_private_helper_is_used():
    # a module-level _name function or class must be read somewhere in the
    # package outside its own definition; a recursive call does not count
    package = os.path.dirname(liftlab.__file__)
    top_level = []  # (module, node, names the node reads)
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            top_level.append((fname, node, {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}))
    dead = []
    for fname, node, _ in top_level:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in TEST_ORACLES
                and not any(node.name in names
                            for _, other, names in top_level if other is not node)):
            dead.append(f"{fname}: {node.name}")
    assert dead == []


def _child_env():
    # the child imports the same liftlab as this process, ahead of PYTHONPATH
    src = os.path.dirname(os.path.dirname(liftlab.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# run in a fresh interpreter: argv[1] and argv[2] are the instance files of
# uniform n=12 and n=8, argv[3] the path for the 6/5 point; prints the exit
# codes and whether numpy was loaded after the exact commands and after the
# float call, `lasserre_value`, and whether that call loaded scipy (a test-only
# dependency)
NUMPY_PROBE = """
import contextlib, io, json, sys
import liftlab, liftlab.cli
from liftlab import (Q, SetVector, family_p_t, lasserre_value,
                     setvector_to_json, uniform_gap_instance)
u12, u8, point = sys.argv[1:]
level = [Q(1), Q(3, 20), Q(9, 1000), Q(0), Q(0)]
with open(point, "w", encoding="utf-8") as fh:
    fh.write(setvector_to_json(SetVector(8, {
        m: level[m.bit_count()] for m in family_p_t(8, 4)})))
commands = [
    ["sa-cert", "--n", "20", "--eps", "1/10", "--t", "5", "--delta", "1/4"],
    ["sa-value", "--instance", u12, "--t", "3"],
    ["verify", "--instance", u8, "--point", point, "--mode", "lasserre",
     "--t", "2"],
    ["sweep", "--n", "6", "--eps", "1/10", "--t", "2:3",
     "--modes", "sa-cert,sa-lp,decompose"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(liftlab.cli.main(argv))
exact = "numpy" in sys.modules
value = lasserre_value(uniform_gap_instance(4, "1/10"), 2).value
print(json.dumps({"codes": codes, "numpy_after_exact": exact, "value": value,
                  "numpy_after_float": "numpy" in sys.modules,
                  "scipy_after_float": "scipy" in sys.modules}))
"""


def test_exact_commands_never_load_numpy(tmp_path):
    files = []
    for n in (12, 8):
        path = tmp_path / f"u{n}.json"
        path.write_text(instance_to_json(uniform_gap_instance(n, "1/10")),
                        encoding="utf-8")
        files.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *files, str(tmp_path / "pt.json")],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["numpy_after_exact"] is False
    assert out["value"] > 1
    assert out["numpy_after_float"] is True
    assert out["scipy_after_float"] is False


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["sa-cert", "--n", "8", "--eps", "1/10", "--t", "2", "--delta",
            "1/4", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "liftlab", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
