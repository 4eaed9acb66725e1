"""The verdict protocol of verify.py.

Every comparison goes through verify._same, which raises verify.Mismatch
(an ArithmeticError) naming the comparison and its case; checks and
identity functions return nothing, and _row reads ok only when a check
raised nothing and made a comparison.  The static tests read verify.py's
source, so a check that returns a verdict or compares outside _same fails
here before it can pass silently.
"""

import ast
import json

import pytest

from riordan_gep import gep, verify
from riordan_gep.cli import main
from riordan_gep.matrix import RMatrix
from riordan_gep.wmatrix import w_matrix


def _tree():
    with open(verify.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_no_function_returns_a_verdict():
    verdicts = [
        node.lineno
        for node in ast.walk(_tree())
        if isinstance(node, ast.Return)
        and (
            isinstance(node.value, ast.Compare)
            or isinstance(node.value, ast.Constant) and isinstance(node.value.value, bool)
        )
    ]
    assert verdicts == []


def test_every_registry_check_reaches_same():
    tree = _tree()
    calls = {
        f.name: {c.func.id for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
    }
    (registry,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REGISTRY"]
    ]
    checks = [row.elts[2].id for row in registry.elts]
    assert len(checks) == len(verify.REGISTRY)

    def reaches(name, seen):
        if name == "_same":
            return True
        seen.add(name)
        return any(reaches(c, seen) for c in calls.get(name, set()) - seen)

    assert [c for c in checks if not reaches(c, set())] == []


def test_every_same_call_fits_on_one_line():
    # the Mismatch text quotes the caller's line
    split = [
        node.lineno
        for node in ast.walk(_tree())
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_same"
        and node.lineno != node.end_lineno
    ]
    assert split == []


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
    assert detail.startswith("Mismatch: _same(gep.matrix_u(n) * gep.matrix_u_inv(n), RMatrix.identity(n)")
    assert detail.endswith(" at n=3")


def test_identity_functions_raise_mismatch(monkeypatch):
    with pytest.raises(verify.Mismatch, match="n=4, m=2"):
        verify.w_routes_agree(w_matrix(4, 3), 2)
    verify.w_routes_agree(w_matrix(4, 3), 3)
    _u_inv_off_at_three(monkeypatch)
    with pytest.raises(ArithmeticError) as info:
        verify.reduce_degenerate(3, 1)
    assert isinstance(info.value, verify.Mismatch)
