"""Every module holds only what a command runs.

Runtime modules hold only what the CLI or another runtime module runs.
Routes that only cross-check a construction live on the verify side
(verify.py and routes.py), and references that only the tests use live in
tests/.  The verify side in turn holds only what `verify` or `w --check`
runs.  These tests read the source of the package's modules except
__main__, resolve each name through the module's imports, and follow
references from the roots: all of cli, the statements every module runs
at import (verify.REGISTRY among them), and an allowlist.  Each public
module-level function or class must be reached.
"""

import ast
import os

import riordan_gep

PACKAGE = os.path.dirname(riordan_gep.__file__)
VERIFY_SIDE = ("verify", "routes")

# (module, name) -> why it stays although no runtime code calls it
ALLOWED = {
    # perfbench/tracer.py traces these by module
    ("lagrange", "lagrange_series"): "traced",
    ("lagrange", "log_abeta"): "traced",
    ("riordan", "riordan_mul"): "traced",
    ("wmatrix", "w_alt_form"): "traced",
    ("dirichlet", "dirichlet_exp"): "traced",
    # library API documented in README
    ("riordan", "entry"): "readme",
    ("dirichlet", "dir_alpha_poly"): "readme",
}
# verify-side (module, name) -> why it stays although neither `verify` nor `w --check` runs it
ALLOWED_VERIFY = {
    # identity functions documented in README, which only the tests call
    ("verify", "reduce_degenerate"): "readme",
    ("verify", "alpha_gf_check"): "readme",
    ("verify", "w_restriction"): "readme",
}
REASONS = ("traced", "readme", "export")  # export: re-exported by __init__


def _modules(verify_side=False):
    """The parsed modules of the package but __main__; the verify side only when asked."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        name, ext = os.path.splitext(fname)
        if ext == ".py" and name != "__main__" and (verify_side or name not in VERIFY_SIDE):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                out[name] = ast.parse(fh.read(), fname)
    return out


def _resolver(mod, tree, own):
    """A function from an AST node to the (module, name) pairs its code reads.

    `from .m import f as g` makes g mean (m, f); `from . import m as k`
    makes k.f mean (m, f); a bare name defined at the top of mod means
    (mod, name).  Imports anywhere in the module count, lazy ones included.
    """
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    names[a.asname or a.name] = (node.module, a.name)
                else:
                    aliases[a.asname or a.name] = a.name

    def refs(node):
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in names:
                    out.add(names[sub.id])
                elif sub.id in own:
                    out.add((mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in aliases:
                    out.add((aliases[sub.value.id], sub.attr))
        return out

    return refs


def _reached(modules, allowed):
    """The top-level definitions (module, name) reached from the roots, and all of them."""
    defs, edges, roots = {}, {}, set(allowed)
    for mod, tree in modules.items():
        own = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        refs = _resolver(mod, tree, own)
        for name, node in own.items():
            defs[mod, name] = node
            edges[mod, name] = refs(node)
        for node in tree.body:
            if mod == "cli" or not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots |= refs(node)
    reached, todo = set(), [r for r in roots if r in defs]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [r for r in edges[key] if r in defs]
    return reached, defs


def test_every_public_definition_is_run_by_the_runtime():
    reached, defs = _reached(_modules(), ALLOWED)
    unused = sorted(
        f"{mod}.{name}"
        for mod, name in defs
        if mod != "cli" and not name.startswith("_") and (mod, name) not in reached
    )
    assert unused == [], "no runtime code runs these; move them to routes, verify or tests: " + ", ".join(unused)


def test_every_public_verify_definition_is_run_by_a_check():
    reached, defs = _reached(_modules(verify_side=True), ALLOWED_VERIFY)
    unused = sorted(
        f"{mod}.{name}"
        for mod, name in defs
        if mod in VERIFY_SIDE and not name.startswith("_") and (mod, name) not in reached
    )
    assert unused == [], "neither REGISTRY, w_check_rows nor cli runs these; delete them or move them to tests: " + ", ".join(unused)


def _check_allowlist(allowed, verify_side):
    modules = _modules(verify_side)
    for key, reason in allowed.items():
        assert reason in REASONS, key
        reached, defs = _reached(modules, {k: v for k, v in allowed.items() if k != key})
        assert key in defs, f"{key} is allowlisted but not defined"
        assert key not in reached, f"a command runs {key}: drop it from the allowlist"


def test_allowlist_is_needed():
    _check_allowlist(ALLOWED, verify_side=False)


def test_verify_allowlist_is_needed():
    _check_allowlist(ALLOWED_VERIFY, verify_side=True)
