"""Dense exact-rational matrices.

A matrix is a dense tuple-of-tuples of Fractions.  Products and apply run
on integers: each row of the left factor and each column of the right
factor (or the vector) become integer numerators over their lcm
denominator, so entry (i, j) is one integer dot product and one Fraction
built from it over d_i e_j.
"""

from __future__ import annotations

from fractions import Fraction

from .series import as_rational, over_lcm

_ZERO = Fraction(0)


def _dot(num, d, other_num, e):
    s = sum(map(int.__mul__, num, other_num))
    return Fraction(s, d * e) if s else _ZERO


class RMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(as_rational(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def _of(cls, rows):
        """Wrap a tuple of equal-length tuples of Fractions as they are."""
        m = cls.__new__(cls)
        m.entries, m.rows, m.cols = rows, len(rows), len(rows[0])
        return m

    @classmethod
    def from_cols(cls, cols):
        cols = [list(c) for c in cols]
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError("ragged columns")
        return cls(zip(*cols))

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"RMatrix[{self.rows}x{self.cols}: {body}]"

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def transpose(self):
        return RMatrix(zip(*self.entries))

    def __mul__(self, other):
        if isinstance(other, RMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = [over_lcm(col) for col in zip(*other.entries)]
            return RMatrix._of(
                tuple(
                    tuple(_dot(num, d, cnum, e) for cnum, e in cols)
                    for num, d in map(over_lcm, self.entries)
                )
            )
        c = as_rational(other)
        return RMatrix([[c * e for e in row] for row in self.entries])

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        vec = [as_rational(v) for v in vec]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        vnum, e = over_lcm(vec)
        return tuple(_dot(num, d, vnum, e) for num, d in map(over_lcm, self.entries))
