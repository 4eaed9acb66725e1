"""Runtime modules hold only what the CLI or another runtime module runs.

Routes that only cross-check a construction live on the verify side
(verify.py and routes.py), and references that only the tests use live in
tests/.  This test reads the source of every other module except
__main__, resolves each name through the module's imports, and follows
references from the roots: all of cli, the statements every module runs
at import, and ALLOWED.  Each public module-level function or class must
be reached.
"""

import ast
import os

import riordan_gep

PACKAGE = os.path.dirname(riordan_gep.__file__)
NOT_SCANNED = ("verify", "routes", "__main__")

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
REASONS = ("traced", "readme", "export")  # export: re-exported by __init__


def _modules():
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        name, ext = os.path.splitext(fname)
        if ext == ".py" and name not in NOT_SCANNED:
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


def test_allowlist_is_needed():
    modules = _modules()
    for key, reason in ALLOWED.items():
        assert reason in REASONS, key
        reached, defs = _reached(modules, {k: v for k, v in ALLOWED.items() if k != key})
        assert key in defs, f"{key} is allowlisted but not defined"
        assert key not in reached, f"runtime code runs {key}: drop it from ALLOWED"
