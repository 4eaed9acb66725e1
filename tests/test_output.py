"""The renderers against the renderer they replaced, which stringified every
cell before rendering and encoded the whole JSON document in one call."""

import csv
import io
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from riordan_gep.dirichlet import DirichletSeries, array_window
from riordan_gep.gep import eulerian_poly, matrix_u
from riordan_gep.matrix import RMatrix
from riordan_gep.output import OutputDoc, matrix_doc, poly_doc, series_doc
from riordan_gep.series import Poly, Series
from riordan_gep.suites.cli import _from_json


def reference_format_poly(coeff_strings) -> str:
    parts = []
    for k, c in enumerate(F(s) for s in coeff_strings):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            base = "x" if k == 1 else f"x^{k}"
            body = base if mag == 1 else f"{mag}{base}" if mag.denominator == 1 else f"({mag}){base}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def reference_render(doc: OutputDoc, fmt: str) -> str:
    entries = [[str(c) for c in row] for row in doc.entries]
    if fmt == "json":
        payload = {"kind": doc.kind}
        for name in ("n", "rows", "cols"):
            if getattr(doc, name) is not None:
                payload[name] = getattr(doc, name)
        payload["entries"] = entries
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(entries)
        return buf.getvalue()
    if doc.kind == "Polynomial":
        return reference_format_poly(entries[0]) + "\n"
    if doc.kind == "SeriesCoeffs":
        return ", ".join(entries[0]) + "\n"
    if doc.kind == "VerifyReport":
        lines = [f"[{st}] {suite}: {name}" + (f" -- {detail}" if detail else "") for suite, name, st, detail in entries]
        bad = sum(1 for row in entries if row[2] != "ok")
        return "\n".join(lines + [f"{len(entries)} checks, {bad} failed"]) + "\n"
    widths = [max(len(row[j]) for row in entries) for j in range(len(entries[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in entries) + "\n"


def random_matrix(rows, cols=3, seed=0):
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-10 ** rng.randint(0, 12), 10 ** rng.randint(0, 12)), rng.choice((1, 1, 3, 10**9 + 7)))

    return RMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


DOCS = {
    **{f"matrix-{rows}-rows": matrix_doc(random_matrix(rows, seed=rows)) for rows in (1, 255, 256, 257, 513)},
    "matrix-u": matrix_doc(matrix_u(6), n=6),
    "zero-poly": poly_doc(Poly()),
    "zero-poly-padded": poly_doc(Poly([0, 0, 0]), n=2),
    "constant-poly": poly_doc(Poly([F(-7, 3)])),
    "fraction-poly": poly_doc(Poly([F(-1, 2), 0, 1, 3, F(5, 7), -1, 0]), n=6),
    "eulerian-poly": poly_doc(eulerian_poly(30), n=30),
    "series": series_doc(Series([1, F(-2, 3), 0, 10**30], order=6)),
    "verify-report": OutputDoc("VerifyReport", [
        ["gep", "demo", "FAIL", 'ValueError: a, "b"'],
        ["w", "commas, and \"quotes\"", "ok", ""],
        ["cli", "made nothing", "FAIL", "made no comparison"],
    ]),
}


@pytest.mark.parametrize("fmt", ("json", "csv", "pretty"))
@pytest.mark.parametrize("name", sorted(DOCS))
def test_render_matches_the_string_renderer(name, fmt):
    doc = DOCS[name]
    assert doc.render(fmt) == reference_render(doc, fmt)
    # a document read back from JSON holds strs, and renders the same text
    assert _from_json(doc.to_json()).render(fmt) == doc.render(fmt)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_value_documents_round_trip(name):
    doc = DOCS[name]
    assert _from_json(doc.to_json()) == doc


def test_documents_differ_in_a_cell():
    doc = DOCS["matrix-u"]
    copy = _from_json(doc.to_json())
    copy.entries[2][1] = "7"
    assert copy != doc


def test_json_render_of_a_large_window_holds_its_text_once():
    # the 3000 x 6 window renders to 104 KiB of JSON; stringifying every cell
    # first and encoding the document in one call peaked at 2635 KiB
    doc = matrix_doc(array_window(DirichletSeries.zeta(3000), "plain", 3000, 6))
    tracemalloc.start()
    try:
        text = doc.render("json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak < 512 * 1024
