"""Output documents for the CLI: the computed values and three renderers.

A document keeps the values it shows and calls str on each only while
rendering: JSON one block of rows at a time and CSV one row at a time, so
no table is held as strs beside its text.  The JSON form is
{"kind": ..., "n"/"rows"/"cols" when relevant, "entries": [[str]]} and
round-trips losslessly; documents compare by their entries as strs.  A
VerifyReport row is [suite, check, "ok" | "FAIL", detail], the detail being
why a check failed (the exception it raised, or "made no comparison"; empty
when it passed); verify._row makes every such row.
"""

from __future__ import annotations

import io
import json

from .matrix import RMatrix
from .series import Poly, Series

_BLOCK = 256  # rows per json.dumps call: its chunk list stays small, its calls few


class OutputDoc:
    __slots__ = ("kind", "entries", "n", "rows", "cols")

    def __init__(self, kind: str, entries, n: int | None = None, rows: int | None = None,
                 cols: int | None = None):
        self.kind = kind  # Polynomial | SeriesCoeffs | Matrix | VerifyReport
        self.entries = entries  # rows of Fractions or of strs
        self.n = n
        self.rows = rows
        self.cols = cols

    def _cells(self, start=0, stop=None) -> list:
        """Rows start..stop-1 of the entries, each cell as its str."""
        return [[str(c) for c in row] for row in self.entries[start:stop]]

    def _fields(self):
        return (self.kind, self._cells(), self.n, self.rows, self.cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "OutputDoc(kind={!r}, entries={!r}, n={!r}, rows={!r}, cols={!r})".format(*self._fields())

    def to_json(self) -> str:
        head = {"kind": self.kind}
        for name in ("n", "rows", "cols"):
            value = getattr(self, name)
            if value is not None:
                head[name] = value
        head["entries"] = []  # its "[]}" is cut to "[" for the blocks
        blocks = (json.dumps(self._cells(i, i + _BLOCK))[1:-1] for i in range(0, len(self.entries), _BLOCK))
        return json.dumps(head)[:-2] + ", ".join(blocks) + "]}"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            import csv  # only here, to keep it out of every command's start-up

            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([str(c) for c in row] for row in self.entries)
            return buf.getvalue()
        if fmt == "pretty":
            return self._pretty()
        raise ValueError(f"unknown format {fmt!r}")

    def _pretty(self) -> str:
        if self.kind == "Polynomial":
            return format_poly(Poly(self.entries[0])) + "\n"
        if self.kind == "SeriesCoeffs":
            return ", ".join(map(str, self.entries[0])) + "\n"
        if self.kind == "VerifyReport":
            lines = [
                f"[{status}] {suite}: {name}" + (f" -- {detail}" if detail else "")
                for suite, name, status, detail in self.entries
            ]
            bad = sum(1 for row in self.entries if row[2] != "ok")
            lines.append(f"{len(self.entries)} checks, {bad} failed")
            return "\n".join(lines) + "\n"
        cells = self._cells()
        widths = [0] * max(len(r) for r in cells)
        for row in cells:
            for j, cell in enumerate(row):
                widths[j] = max(widths[j], len(cell))
        lines = [
            "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
            for row in cells
        ]
        return "\n".join(lines) + "\n"


def format_poly(p: Poly) -> str:
    """x+11x^2+11x^3+x^4 style; fractional coefficients are parenthesized."""
    if p.degree() < 0:
        return "0"
    parts = []
    for k in range(p.degree() + 1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            base = "x" if k == 1 else f"x^{k}"
            if mag == 1:
                body = base
            elif mag.denominator == 1:
                body = f"{mag}{base}"
            else:
                body = f"({mag}){base}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def poly_doc(p: Poly, n: int | None = None) -> OutputDoc:
    return OutputDoc(kind="Polynomial", entries=[tuple(p.coeff(k) for k in range(max(p.degree(), 0) + 1))], n=n)


def series_doc(s: Series) -> OutputDoc:
    return OutputDoc(kind="SeriesCoeffs", entries=[s.coeffs])


def matrix_doc(m: RMatrix, n: int | None = None) -> OutputDoc:
    return OutputDoc(kind="Matrix", entries=m.entries, n=n, rows=m.rows, cols=m.cols)
