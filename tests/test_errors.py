"""No dead error classes: every exception in errors.py is raised somewhere in
the package, and every name the package exports resolves."""

import ast
from pathlib import Path

import riordan_gep
from riordan_gep import errors

SRC = Path(riordan_gep.__file__).parent


def _raised_names() -> set:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    tree = ast.parse(Path(errors.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "RiordanGepError" in defined
    assert defined - {"RiordanGepError"} - _raised_names() == set()


def test_every_exported_name_resolves():
    assert [name for name in riordan_gep.__all__ if not hasattr(riordan_gep, name)] == []
