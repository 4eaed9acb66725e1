"""Every module holds only what a command runs.

Runtime modules hold only what the CLI or another runtime module runs.
Routes that only cross-check a construction live on the verify side
(verify.py and the suite modules under suites/), and references that
only the tests use live in tests/.  The verify side in turn holds only
what `verify` or `w --check` runs, and a function outside suites/ only
what its own module, cli or two suites use.  These tests read the
source of the package's modules except __main__, resolve each name
through the module's imports, and follow references from the roots: all
of cli, the statements every module runs at import, the check that each
verify.REGISTRY row names in its suite module, and an allowlist.  Each
public module-level function or class must be reached, and so must each
public method, classmethod and property of a class: reached code reads
its name as an attribute, or the class binds it to an alias.  A name
read only through getattr with a computed string is allowlisted.
"""

import ast
import os

import riordan_gep

PACKAGE = os.path.dirname(riordan_gep.__file__)

# (module, name or "Class.method") -> why it stays although no runtime code calls it
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
    # cli reads it as getattr(ctx, args.gep_command), a name the guard cannot follow
    ("gep", "GepContext.u"): "getattr",
}
# verify-side (module, name) -> why it stays although neither `verify` nor `w --check` runs it
ALLOWED_VERIFY = {
    # identity functions documented in README, which only the tests call
    ("suites.gep", "reduce_degenerate"): "readme",
    ("suites.gep", "alpha_gf_check"): "readme",
    ("suites.w", "w_restriction"): "readme",
}
REASONS = ("traced", "readme", "export", "getattr")  # export: re-exported by __init__


def _is_verify_side(mod):
    return mod == "verify" or mod.startswith("suites.")


def _modules(verify_side=False):
    """The parsed modules of the package but __main__, named by their dotted
    path in it (suites/w.py is suites.w); the verify side only when asked."""
    out = {}
    for root, _, files in os.walk(PACKAGE):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            name, ext = os.path.splitext(os.path.relpath(path, PACKAGE))
            name = name.replace(os.sep, ".")
            if ext == ".py" and name != "__main__" and (verify_side or not _is_verify_side(name)):
                with open(path, encoding="utf-8") as fh:
                    out[name] = ast.parse(fh.read(), fname)
    return out


def _resolver(mod, tree, own):
    """A function from an AST node to the (module, name) pairs its code reads.

    `from .m import f as g` makes g mean (m, f); `from . import m as k`
    makes k.f mean (m, f); `..` climbs out of suites/; a bare name defined
    at the top of mod means (mod, name).  Imports anywhere in the module
    count, lazy ones included.
    """
    names, aliases = {}, {}
    package = mod.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[: len(package) - node.level + 1]
            for a in node.names:
                if node.module:
                    names[a.asname or a.name] = (".".join(base + [node.module]), a.name)
                else:
                    aliases[a.asname or a.name] = ".".join(base + [a.name])

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


def _registry_checks(tree):
    """(suites.<suite>, check) for every ("suite", "label", "check") row of verify.REGISTRY."""
    (registry,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REGISTRY"]
    ]
    return {
        (f"suites.{row.elts[0].value}", row.elts[2].value)
        for row in ast.walk(registry)
        if isinstance(row, ast.Tuple) and len(row.elts) == 3
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in row.elts)
    }


def _reads(nodes):
    """The attribute names the code of nodes reads, as in `obj.name`."""
    return {
        sub.attr for node in nodes for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _split(node):
    """The public methods of a class node, and the rest of its code: bases,
    decorators and every other statement of its body.  A function has no
    methods, and its code is itself."""
    if not isinstance(node, ast.ClassDef):
        return {}, [node]
    methods = {
        m.name: m for m in node.body
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")
    }
    rest = [s for s in node.body if getattr(s, "name", None) not in methods]
    return methods, node.bases + node.keywords + node.decorator_list + rest


def _reached(modules, allowed):
    """The definitions reached from the roots, and all of them.

    A definition is a top-level function or class, (module, name), or a
    public method, classmethod or property of a top-level class,
    (module, "Class.name").  Reaching a class reaches the rest of its code,
    dunders and private methods included.  A public method is reached when
    its class is and reached code reads `.name`, or when a class-level alias
    binds it (as `__getitem__ = coeff` does).
    """
    defs, edges, reads, roots, attrs = {}, {}, {}, set(allowed), set()
    methods = {}  # (module, class) -> the keys of its public methods
    for mod, tree in modules.items():
        own = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        refs = _resolver(mod, tree, own)
        for name, node in own.items():
            public, rest = _split(node)
            methods[mod, name] = {(mod, f"{name}.{m}") for m in public}
            for m, method in public.items():
                key = (mod, f"{name}.{m}")
                defs[key], edges[key], reads[key] = method, refs(method), _reads([method])
            defs[mod, name] = node
            edges[mod, name] = set().union(*map(refs, rest)) | {
                (mod, f"{name}.{s.value.id}") for s in rest
                if isinstance(s, ast.Assign) and isinstance(s.value, ast.Name) and s.value.id in public
            }
            reads[mod, name] = _reads(rest)
        for node in tree.body:
            if mod == "cli" or not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots |= refs(node)
                attrs |= _reads([node])
    if "verify" in modules:
        roots |= _registry_checks(modules["verify"])
    reached, todo = set(), [r for r in roots if r in defs]
    while todo:
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                attrs |= reads[key]
                todo += [r for r in edges[key] if r in defs]
        todo = [
            key for cls in reached & methods.keys() for key in methods[cls]
            if key not in reached and key[1].rpartition(".")[2] in attrs
        ]
    return reached, defs


def _public(name):
    """Whether a definition's name, or a method's own name, is public."""
    return not name.rpartition(".")[2].startswith("_")


def test_every_public_definition_is_run_by_the_runtime():
    reached, defs = _reached(_modules(), ALLOWED)
    unused = sorted(
        f"{mod}.{name}"
        for mod, name in defs
        if mod != "cli" and _public(name) and (mod, name) not in reached
    )
    assert unused == [], "no runtime code runs these; move them to verify or tests: " + ", ".join(unused)


def test_every_public_verify_definition_is_run_by_a_check():
    reached, defs = _reached(_modules(verify_side=True), ALLOWED_VERIFY)
    unused = sorted(
        f"{mod}.{name}"
        for mod, name in defs
        if _is_verify_side(mod) and _public(name) and (mod, name) not in reached
    )
    assert unused == [], "neither REGISTRY, w_check_rows nor cli runs these; delete them or move them to tests: " + ", ".join(unused)


def test_verify_holds_only_shared_functions():
    # a function that the verify side defines outside suites/ and that a
    # single suite uses belongs in that suite's module
    modules = _modules(verify_side=True)
    users = {}  # (module, name) -> the modules whose code reads it, outside its own definition
    for mod, tree in modules.items():
        own = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        refs = _resolver(mod, tree, own)
        for node in tree.body:
            for key in refs(node) - {(mod, getattr(node, "name", None))}:
                users.setdefault(key, set()).add(mod)
    misplaced = []
    for mod, tree in modules.items():
        if _is_verify_side(mod) and not mod.startswith("suites."):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    used = users.get((mod, node.name), set())
                    if not used & {mod, "cli"} and sum(m.startswith("suites.") for m in used) < 2:
                        misplaced.append(f"{mod}.{node.name}")
    assert misplaced == [], "a single suite uses these; move them to its module: " + ", ".join(misplaced)


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
