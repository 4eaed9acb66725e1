"""Output documents for the CLI: exact rationals as strings, three renderers.

The JSON form is {"kind": ..., "n"/"rows"/"cols" when relevant,
"entries": [[str]]} and round-trips losslessly.  A VerifyReport row is
[suite, check, "ok" | "FAIL", detail], the detail being why a check failed
(empty when it passed or merely returned false); verify._row makes every
such row.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .matrix import RMatrix
from .series import Poly, Series


class OutputDoc:
    __slots__ = ("kind", "entries", "n", "rows", "cols")

    def __init__(self, kind: str, entries: list, n: int | None = None, rows: int | None = None,
                 cols: int | None = None):
        self.kind = kind  # Polynomial | SeriesCoeffs | Matrix | VerifyReport
        self.entries = entries
        self.n = n
        self.rows = rows
        self.cols = cols

    def _fields(self):
        return (self.kind, self.entries, self.n, self.rows, self.cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "OutputDoc(kind={!r}, entries={!r}, n={!r}, rows={!r}, cols={!r})".format(*self._fields())

    def to_json(self) -> str:
        payload = {"kind": self.kind}
        for name in ("n", "rows", "cols"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        payload["entries"] = self.entries
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "OutputDoc":
        data = json.loads(text)
        return cls(
            kind=data["kind"],
            entries=[list(row) for row in data["entries"]],
            n=data.get("n"),
            rows=data.get("rows"),
            cols=data.get("cols"),
        )

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            import csv  # only here, to keep it out of every command's start-up

            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(self.entries)
            return buf.getvalue()
        if fmt == "pretty":
            return self._pretty()
        raise ValueError(f"unknown format {fmt!r}")

    def _pretty(self) -> str:
        if self.kind == "Polynomial":
            return format_poly_strings(self.entries[0]) + "\n"
        if self.kind == "SeriesCoeffs":
            return ", ".join(self.entries[0]) + "\n"
        if self.kind == "VerifyReport":
            lines = [
                f"[{status}] {suite}: {name}" + (f" -- {detail}" if detail else "")
                for suite, name, status, detail in self.entries
            ]
            bad = sum(1 for row in self.entries if row[2] != "ok")
            lines.append(f"{len(self.entries)} checks, {bad} failed")
            return "\n".join(lines) + "\n"
        widths = [0] * max(len(r) for r in self.entries)
        for row in self.entries:
            for j, cell in enumerate(row):
                widths[j] = max(widths[j], len(cell))
        lines = [
            "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
            for row in self.entries
        ]
        return "\n".join(lines) + "\n"


def format_poly_strings(coeff_strings) -> str:
    coeffs = [Fraction(s) for s in coeff_strings]
    return format_poly(Poly(coeffs))


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
    return OutputDoc(
        kind="Polynomial",
        entries=[[str(p.coeff(k)) for k in range(max(p.degree(), 0) + 1)]],
        n=n,
    )


def series_doc(s: Series) -> OutputDoc:
    return OutputDoc(kind="SeriesCoeffs", entries=[[str(c) for c in s.coeffs]])


def matrix_doc(m: RMatrix, n: int | None = None) -> OutputDoc:
    return OutputDoc(
        kind="Matrix",
        entries=[[str(e) for e in row] for row in m.entries],
        n=n,
        rows=m.rows,
        cols=m.cols,
    )
