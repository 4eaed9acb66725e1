"""Suite `w`: W_(n,m) three ways (Theorem 4), its column sums (Theorem 5)
and identities, and w_check_rows, the report of `riordan-gep w --check`."""

from __future__ import annotations

from fractions import Fraction

from .. import gep, wmatrix
from ..errors import OutOfRange
from ..matrix import RMatrix
from ..series import power
from ..verify import _cap, _diag, _maps_alpha, _restrict, _row, _same, _series


def w_column_sums_ok(W: RMatrix, m: int):
    """Every column of W = W_(n,m) sums to m^n."""
    _same(tuple(map(sum, zip(*W.entries))), (Fraction(m) ** W.rows,) * W.cols, n=W.rows, m=m)


def check_w_column_sums(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for m in range(1, 6):
            w_column_sums_ok(wmatrix.w_matrix(n, m), m)


def w_routes_agree(W: RMatrix, m: int):
    """W = W_(n,m) by decimation, U_n diag(m..m^n) U_n^-1 and V_n^-1 T^t V_n agree."""
    n = W.rows
    scale = _diag([Fraction(m) ** (p + 1) for p in range(n)])
    _same(W, gep.matrix_u(n) * scale * gep.matrix_u_inv(n), n=n, m=m)
    _same(W, wmatrix.w_alt_form(n, m), n=n, m=m)


def check_w_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m in range(1, 5):
            w_routes_agree(wmatrix.w_matrix(n, m), m)


def w_check_rows(W: RMatrix, m: int) -> list:
    """The report of `riordan-gep w --check` on W = W_(n,m): one
    [suite, check, ok/FAIL, detail] row per check."""
    return [
        _row("w", "column sums are m^n", lambda: w_column_sums_ok(W, m)),
        _row("w", "alternative construction agrees", lambda: w_routes_agree(W, m)),
        _row("w", "multiplicativity/reversal/eigenvector", lambda: w_identities(W.rows, m, 2)),
    ]


def w_identities(n: int, m: int, p: int):
    """Multiplicativity, reversal commutation and the Eulerian eigenvector.

    W_(n,m) W_(n,p) = W_(n,mp);  W_(n,m) Itilde = Itilde W_(n,m);
    W_(n,m) A~_n = m^n A~_n.
    """
    wm = wmatrix.w_matrix(n, m)
    _same(wm * wmatrix.w_matrix(n, p), wmatrix.w_matrix(n, m * p), n=n, m=m, p=p)
    rev = _diag([1] * n, anti=True)
    _same(wm * rev, rev * wm, n=n, m=m)
    at = gep.eulerian_poly(n).shift_down(1).to_vector(n)
    _same(wm.apply(at), tuple(Fraction(m) ** n * c for c in at), n=n, m=m)


def check_w_identities_suite(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m, p in ((2, 2), (2, 3), (3, 4), (4, 2)):
            w_identities(n, m, p)


def w_restriction(n: int, m: int, p: int):
    """((1-x)^-p, x) W_(n,m) ((1-x)^p, x) I_{n-p} == W_(n-p, m).

    p = 0 degenerates to W_(n,m) == W_(n,m) and compares nothing.
    """
    if p == 0:
        return
    if not (1 <= p < n):
        raise OutOfRange("need 0 <= p < n")
    _same(_restrict(wmatrix.w_matrix(n, m), p), wmatrix.w_matrix(n - p, m), n=n, m=m, p=p)


def check_w_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for m in (2, 3):
            a = _series(rng, 2 * n + 2, a0=1)
            _maps_alpha(wmatrix.w_matrix(n, m), a, power(a, m), m=m)
