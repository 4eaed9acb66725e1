"""The verdict protocol of verify.py and the suite modules.

Every comparison goes through verify._same, which raises verify.Mismatch
(an ArithmeticError) naming the comparison and its case; checks and
identity functions return nothing, and _row reads ok only when a check
raised nothing and made a comparison.  The static tests read the source
of verify.py and of every module of suites/, so a check that returns a
verdict or compares outside _same, or a REGISTRY row that names no check
of its suite, fails here before it can pass silently.
"""

import ast
import json
import os
import random
from functools import partial

import pytest

from riordan_gep import dirichlet, gep, verify
from riordan_gep.cli import main
from riordan_gep.matrix import RMatrix
from riordan_gep.riordan import RiordanArray, RiordanKind
from riordan_gep.series import Poly, Series
from riordan_gep.suites import gep as gep_suite
from riordan_gep.suites import w as w_suite
from riordan_gep.suites.riordan import row_numerator
from riordan_gep.wmatrix import w_matrix

SUITES = os.path.join(os.path.dirname(verify.__file__), "suites")


def _trees():
    """verify.py and every suite module, parsed: module name -> tree."""
    paths = {"verify": verify.__file__}
    for fname in sorted(os.listdir(SUITES)):
        name, ext = os.path.splitext(fname)
        if ext == ".py" and name != "__init__":
            paths[f"suites.{name}"] = os.path.join(SUITES, fname)
    trees = {}
    for mod, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            trees[mod] = ast.parse(fh.read())
    return trees


def _registry_rows():
    """The (suite, label, check name) rows of REGISTRY as verify.py spells them."""
    (registry,) = [
        node.value for node in _trees()["verify"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REGISTRY"]
    ]
    return [
        tuple(e.value for e in row.elts)
        for row in ast.walk(registry)
        if isinstance(row, ast.Tuple) and len(row.elts) == 3
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in row.elts)
    ]


def test_no_function_returns_a_verdict():
    verdicts = [
        (mod, node.lineno)
        for mod, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Return)
        and (
            isinstance(node.value, ast.Compare)
            or isinstance(node.value, ast.Constant) and isinstance(node.value.value, bool)
        )
    ]
    assert verdicts == []


def test_registry_rows_name_functions_of_their_suites():
    rows = _registry_rows()
    assert [row[:2] for row in rows] == [(suite, label) for suite, label, _ in verify.REGISTRY]
    assert [row[2] for row in rows] == [check.__name__ for _, _, check in verify.REGISTRY]
    trees = _trees()
    defined = {
        (mod, f.name) for mod, tree in trees.items() for f in tree.body if isinstance(f, ast.FunctionDef)
    }
    assert [row for row in rows if (f"suites.{row[0]}", row[2]) not in defined] == []


def test_every_registry_check_reaches_same():
    trees = _trees()
    calls = {}
    for mod, tree in trees.items():
        own = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        from_verify = {
            a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "verify" for a in node.names
        }
        for f in tree.body:
            if isinstance(f, ast.FunctionDef):
                called = {c.func.id for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                calls[mod, f.name] = {(mod, c) for c in called & own} | {("verify", c) for c in called & from_verify}

    def reaches(key, seen):
        if key == ("verify", "_same"):
            return True
        seen.add(key)
        return any(reaches(c, seen) for c in calls.get(key, set()) - seen)

    checks = [(f"suites.{suite}", check) for suite, _, check in _registry_rows()]
    assert len(checks) == len(verify.REGISTRY)
    assert [c for c in checks if not reaches(c, set())] == []


def test_every_same_call_fits_on_one_line():
    # the Mismatch text quotes the caller's line
    split = [
        (mod, node.lineno)
        for mod, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_same"
        and node.lineno != node.end_lineno
    ]
    assert split == []


@pytest.mark.parametrize(
    "suite, label, check", verify.REGISTRY, ids=[f"{suite}: {label}" for suite, label, _ in verify.REGISTRY]
)
def test_registry_row_holds(suite, label, check):
    rng = random.Random(f"0:{suite}:{label}")  # the seed of `verify --seed 0`
    assert verify._row(suite, label, partial(check, rng, 3)) == [suite, label, "ok", ""]


def test_a_check_that_compares_nothing_fails(capsys, monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", [("gep", "compares nothing", lambda rng, max_n: None)])
    assert main(["verify", "gep", "--format", "json"]) == 1
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries == [["gep", "compares nothing", "FAIL", "made no comparison"]]


def _u_inv_off_at_three(monkeypatch):
    """gep.matrix_u_inv with one entry of U_3^-1 off by one."""
    real = gep.matrix_u_inv

    def off(n):
        m = real(n)
        if n != 3:
            return m
        rows = [list(row) for row in m.entries]
        rows[1][0] += 1
        return RMatrix(rows)

    monkeypatch.setattr(gep, "matrix_u_inv", off)


def test_a_fail_names_the_comparison_and_its_case(capsys, monkeypatch):
    _u_inv_off_at_three(monkeypatch)
    assert main(["verify", "gep", "--format", "json"]) == 1
    rows = {row[1]: row for row in json.loads(capsys.readouterr().out)["entries"]}
    _, _, status, detail = rows["U U^-1 = I"]
    assert status == "FAIL"
    assert detail.startswith("Mismatch: _same(gep.matrix_u(n) * gep.matrix_u_inv(n), _diag([1] * n)")
    assert detail.endswith(" at n=3")


def test_carlitz_hoggatt_is_checked_above_its_degree(capsys, monkeypatch):
    real = dirichlet.carlitz_hoggatt
    monkeypatch.setattr(dirichlet, "carlitz_hoggatt", lambda r, p: Poly(real(r, p).coeffs[:-1]))
    assert main(["verify", "dirichlet", "--format", "json"]) == 1
    rows = {row[1]: row for row in json.loads(capsys.readouterr().out)["entries"]}
    assert rows["Carlitz-Hoggatt values and palindromy"][2:] == [
        "FAIL", "Mismatch: _same(Poly(head.coeffs), g, r=r, p=p) at r=1, p=1"
    ]


def test_row_numerator_is_checked_above_degree_n(monkeypatch):
    A = RiordanArray(RiordanKind.SQUARE, Series.one(8), Series([1, 1], order=8))
    row_numerator(A, 2)
    monkeypatch.setattr(A, "g", Series([2, 1], order=8))  # a(0) = 2: row 2 is x^2 / (1 - 2x)^3
    with pytest.raises(verify.Mismatch, match=r"_same\(Poly\(prod.coeffs\[n \+ 1 : cols\]\), Poly\(\), n=n\) at n=2"):
        row_numerator(A, 2)


def test_identity_functions_raise_mismatch(monkeypatch):
    with pytest.raises(verify.Mismatch, match="n=4, m=2"):
        w_suite.w_routes_agree(w_matrix(4, 3), 2)
    w_suite.w_routes_agree(w_matrix(4, 3), 3)
    _u_inv_off_at_three(monkeypatch)
    with pytest.raises(ArithmeticError) as info:
        gep_suite.reduce_degenerate(3, 1)
    assert isinstance(info.value, verify.Mismatch)
