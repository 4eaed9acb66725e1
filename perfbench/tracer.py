"""Span tracer that wraps riordan_gep's public functions from outside.

The tracer replaces each traced function with a wrapper that records a
span (name, start, end, parent, measuring time) in memory; job.py writes the spans out
when the job ends.  Every module-level and class-level name bound to a
traced function is rebound, so aliases such as ``compose`` imported into
riordan, lagrange and expr, or ``Series.__rmul__``, are traced as well.
Nothing in src/ knows about the tracer.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path) of the traced function
TARGETS = {
    "series.mul": ("series", "Series.__mul__"),
    "series.reciprocal": ("series", "reciprocal"),
    "series.log": ("series", "log"),
    "series.exp": ("series", "exp"),
    "series.power": ("series", "power"),
    "series.compose": ("series", "compose"),
    "series.reversion": ("series", "reversion"),
    "series.poly_mul": ("series", "Poly.__mul__"),
    "matrix.mul": ("matrix", "RMatrix.__mul__"),
    "matrix.apply": ("matrix", "RMatrix.apply"),
    "riordan.window": ("riordan", "window"),
    "riordan.row_of_pair": ("riordan", "row_of_pair"),
    "riordan.riordan_mul": ("riordan", "riordan_mul"),
    "riordan.decimate": ("riordan", "decimate"),
    "gep.GepContext": ("gep", "GepContext.__init__"),
    "gep.eulerian_poly": ("gep", "eulerian_poly"),
    "gep.matrix_u": ("gep", "matrix_u"),
    "gep.matrix_u_inv": ("gep", "matrix_u_inv"),
    "gep.stirling_products": ("gep", "stirling_products"),
    "wmatrix.w_matrix": ("wmatrix", "w_matrix"),
    "wmatrix.w_alt_form": ("wmatrix", "w_alt_form"),
    "lagrange.lagrange_coeffs": ("lagrange", "lagrange_coeffs"),
    "lagrange.lagrange_series": ("lagrange", "lagrange_series"),
    "lagrange.abeta_matrix": ("lagrange", "abeta_matrix"),
    "lagrange.log_abeta": ("lagrange", "log_abeta"),
    "dirichlet.mul": ("dirichlet", "dirichlet_mul"),
    "dirichlet.inv": ("dirichlet", "dirichlet_inv"),
    "dirichlet.log": ("dirichlet", "dirichlet_log"),
    "dirichlet.exp": ("dirichlet", "dirichlet_exp"),
    "dirichlet.array_window": ("dirichlet", "array_window"),
    "dirichlet.carlitz_hoggatt": ("dirichlet", "carlitz_hoggatt"),
    "stirling.mult_decompositions": ("stirling", "mult_decompositions"),
    "stirling.bell_partial_mult": ("stirling", "bell_partial_mult"),
    "expr.parse": ("expr", "parse_expr"),
    "expr.eval": ("expr", "eval_expr"),
    "output.render": ("output", "OutputDoc.render"),
    "cli.main": ("cli", "main"),
}

# lru_cache'd targets whose hit ratio is reported
CACHED = ("gep.eulerian_poly", "gep.matrix_u")

MODULES = ("series", "matrix", "riordan", "gep", "wmatrix", "lagrange", "dirichlet",
           "stirling", "expr", "output", "cli", "verify")


def max_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _series_mul(counts, args, result):
    a, b = args
    if type(b) is type(a):
        n = min(a.order, b.order)
        counts["series.mul.pairs"] += (n + 1) * (n + 2) // 2
    counts["series.mul.max_bits"] = max(counts["series.mul.max_bits"], max_bits(result.coeffs))


def _matrix_mul(counts, args, result):
    a, b = args
    if type(b) is type(a):
        counts["matrix.mul.entry_products"] += a.rows * a.cols * b.cols
    bits = max_bits(e for row in result.entries for e in row)
    counts["matrix.mul.max_bits"] = max(counts["matrix.mul.max_bits"], bits)


def _decompositions(counts, args, result):
    counts["stirling.mult_decompositions.items"] += len(result)


def _render(counts, args, result):
    counts["output.bytes"] += len(result.encode())


# span name -> function(counts, args, result) recording work done
MEASURES = {
    "series.mul": _series_mul,
    "matrix.mul": _matrix_mul,
    "stirling.mult_decompositions": _decompositions,
    "output.render": _render,
}


def _package_modules():
    return [(n, m) for n, m in list(sys.modules.items()) if n == "riordan_gep" or n.startswith("riordan_gep.")]


class CoverageError(RuntimeError):
    """A traced function could not be found, or an alias of it was missed."""


class Tracer:
    def __init__(self):
        self.names = []  # span name index -> name
        # [name index, start, end, parent span index or -1, seconds spent
        # measuring the result after end, charged to no span's self time]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.originals = {}  # span name -> original callable

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
                span[4] = perf_counter() - span[2]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target and every verify check, rebinding all aliases."""
        for module in MODULES:
            importlib.import_module(f"riordan_gep.{module}")
        holders = []
        for mod_name, module in _package_modules():
            holders.append(module)
            holders += [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == mod_name]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"riordan_gep.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                raise CoverageError(f"{name}: riordan_gep.{module}.{path} not found")
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
        registry = sys.modules["riordan_gep.verify"].REGISTRY
        for i, (suite, label, check) in enumerate(registry):
            registry[i] = (suite, label, self.wrap(f"verify.{suite}", check))
        missed = self.missed_aliases()
        if missed:
            raise CoverageError("traced functions still reachable unwrapped: " + ", ".join(missed))

    def missed_aliases(self):
        """Where a riordan_gep module, class or module-level container still
        holds an unwrapped traced function."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        missed = []
        for mod_name, module in _package_modules():
            for key, value in vars(module).items():
                where = f"{mod_name}.{key}"
                held = [value]
                if isinstance(value, type) and value.__module__ == mod_name:
                    held += vars(value).values()
                elif isinstance(value, dict):
                    held += value.values()
                elif isinstance(value, (list, tuple)):
                    held += value
                    held += [v for item in value if isinstance(item, tuple) for v in item]
                missed += [f"{where} ({originals[id(obj)]})" for obj in held if id(obj) in originals]
        return missed

    def cache_info(self):
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def dump(self, path, job_id):
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": job_id,
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "cache": self.cache_info(),
                },
                fh,
            )
