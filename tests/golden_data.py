"""Golden values shared by the test modules.

Matrices are written exactly as displayed in the tables they reproduce;
scaling factors are kept explicit so entries stay integers where the
source keeps them integer.  The functions at the top build reference
series and rows that several test modules compare with.
"""

from fractions import Fraction as F

from riordan_gep.matrix import RMatrix
from riordan_gep.riordan import row_of_pair
from riordan_gep.series import Series, reciprocal


def scaled(num, den, rows):
    return RMatrix([[F(num * e, den) for e in row] for row in rows])


def geometric(order):
    """1/(1-x) truncated."""
    return Series([1] * (order + 1))


def convolution_numerator(k, n, star=False):
    """Numerator polynomial of row n of the quadratic convolution array.

    Row n of (1/(1-x-k x^2), 1/(1-x-k x^2)) equals N_n(x)/(1-x)^(n+1);
    N_n is row n of the companion array with second component
    -k x^2/(1-x-k x^2).  With star=True the roles of the coefficients are
    swapped: denominator 1 - k x - x^2, second component -x^2/(...).
    """
    k = F(k)
    order = max(n, 2)
    if star:
        denom, top = Series([1, -k, -1], order=order), -1
    else:
        denom, top = Series([1, -1, -k], order=order), -k
    f = reciprocal(denom)
    return row_of_pair(f, f * Series([0, 0, top], order=order), n, n // 2 + 1)


U2 = scaled(1, 2, [[1, 1], [-1, 1]])
U3 = scaled(1, 6, [[1, 1, 1], [-2, 0, 4], [1, -1, 1]])
U4 = scaled(1, 24, [[1, 1, 1, 1], [-3, -1, 3, 11], [3, -1, -3, 11], [-1, 1, -1, 1]])

U2_INV = RMatrix([[1, -1], [1, 1]])
U3_INV = RMatrix([[2, -1, 2], [3, 0, -3], [1, 1, 1]])
U4_INV = RMatrix([[6, -2, 2, -6], [11, -1, -1, 11], [6, 2, -2, -6], [1, 1, 1, 1]])

V2 = RMatrix([[1, 0], [1, 1]])
V3 = RMatrix([[1, 0, 0], [2, 1, 0], [1, 1, 1]])
V4 = RMatrix([[1, 0, 0, 0], [3, 1, 0, 0], [3, 2, 1, 0], [1, 1, 1, 1]])

V2_INV = RMatrix([[1, 0], [-1, 1]])
V3_INV = RMatrix([[1, 0, 0], [-2, 1, 0], [1, -1, 1]])
V4_INV = RMatrix([[1, 0, 0, 0], [-3, 1, 0, 0], [3, -2, 1, 0], [-1, 1, -1, 1]])

# V4 U4 = (1/24) diag(1, 2, 3!, 4!) . upper, columns of second-kind numbers
VU4 = scaled(1, 24, [[1, 1, 1, 1], [0, 2, 6, 14], [0, 0, 6, 36], [0, 0, 0, 24]])
# U4^-1 V4^-1 = 24 . (first-kind columns) . diag(1, 1/2, 1/3!, 1/4!)
UV4 = RMatrix(
    [
        [24, -12, 8, -6],
        [0, 12, -12, 11],
        [0, 0, 4, -6],
        [0, 0, 0, 1],
    ]
)

W_TABLES = {
    (1, 2): [[2]],
    (2, 2): [[3, 1], [1, 3]],
    (3, 2): [[4, 1, 0], [4, 6, 4], [0, 1, 4]],
    (1, 3): [[3]],
    (2, 3): [[6, 3], [3, 6]],
    (3, 3): [[10, 4, 1], [16, 19, 16], [1, 4, 10]],
    (1, 4): [[4]],
    (2, 4): [[10, 6], [6, 10]],
    (3, 4): [[20, 10, 4], [40, 44, 40], [4, 10, 20]],
    (4, 2): [[5, 1, 0, 0], [10, 10, 5, 1], [1, 5, 10, 10], [0, 0, 1, 5]],
    (4, 3): [[15, 5, 1, 0], [51, 45, 30, 15], [15, 30, 45, 51], [0, 1, 5, 15]],
}

A2 = RMatrix([[2, 1], [-1, 0]])
A3 = RMatrix([[5, F(5, 2), 1], [-6, -2, 0], [2, F(1, 2), 0]])
A4 = RMatrix(
    [
        [14, 7, 3, 1],
        [-28, F(-35, 3), F(-10, 3), 0],
        [20, F(22, 3), F(5, 3), 0],
        [-5, F(-5, 3), F(-1, 3), 0],
    ]
)

A2_INV = RMatrix([[0, -1], [1, 2]])
A3_INV = RMatrix([[0, F(1, 2), 2], [0, -2, -6], [1, F(5, 2), 5]])
A4_INV = RMatrix(
    [
        [0, F(-1, 3), F(-5, 3), -5],
        [0, F(5, 3), F(22, 3), 20],
        [0, F(-10, 3), F(-35, 3), -28],
        [1, 3, 7, 14],
    ]
)

A2_HALF = scaled(1, 2, [[3, 1], [-1, 1]])
A3_HALF = scaled(1, 8, [[21, 7, 1], [-18, 2, 6], [5, -1, 1]])
A4_HALF = scaled(1, 6, [[30, 10, 2, 0], [-45, -5, 5, 3], [27, 1, -1, 3], [-6, 0, 0, 0]])

LOG_A2 = RMatrix([[1, 1], [-1, -1]])
LOG_A3 = scaled(1, 2, [[5, 2, -1], [-6, 0, 6], [1, -2, -5]])
LOG_A3_SQ = scaled(3, 1, [[1, 1, 1], [-2, -2, -2], [1, 1, 1]])
LOG_A4 = scaled(1, 3, [[13, 3, -1, 1], [-18, 4, 8, -6], [6, -8, -4, 18], [-1, 1, -3, -13]])
LOG_A4_SQ = scaled(4, 3, [[9, 5, 1, -3], [-21, -9, 3, 15], [15, 3, -9, -21], [-3, 1, 5, 9]])
LOG_A4_CUBE = scaled(16, 1, [[1, 1, 1, 1], [-3, -3, -3, -3], [3, 3, 3, 3], [-1, -1, -1, -1]])

PASCAL5 = RMatrix(
    [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 2, 1, 0, 0],
        [1, 3, 3, 1, 0],
        [1, 4, 6, 4, 1],
    ]
)

RECIP_SHIFT_SQUARE = RMatrix(
    [[1, 1, 1, 1], [0, -1, -2, -3], [0, 1, 3, 6], [0, -1, -4, -10]]
)

SHIFT_SQUARE = RMatrix([[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 3], [0, 0, 0, 1]])

FIB_SQUARE = RMatrix(
    [
        [1, 1, 1, 1, 1],
        [1, 2, 3, 4, 5],
        [2, 5, 9, 14, 20],
        [3, 10, 22, 40, 65],
        [5, 20, 51, 105, 190],
    ]
)

FIB_NUMERATOR_ROWS = [
    [1, 0, 0, 0],
    [1, 0, 0, 0],
    [2, -1, 0, 0],
    [3, -2, 0, 0],
    [5, -5, 1, 0],
    [8, -10, 3, 0],
]

# <zeta>, <zeta^-1>: rows n = 1..12, columns k = 0..4
ZETA_WINDOW = [
    [1, 1, 1, 1, 1],
    [0, 1, 2, 3, 4],
    [0, 1, 2, 3, 4],
    [0, 1, 3, 6, 10],
    [0, 1, 2, 3, 4],
    [0, 1, 4, 9, 16],
    [0, 1, 2, 3, 4],
    [0, 1, 4, 10, 20],
    [0, 1, 3, 6, 10],
    [0, 1, 4, 9, 16],
    [0, 1, 2, 3, 4],
    [0, 1, 6, 18, 40],
]

ZETA_INV_WINDOW = [
    [1, 1, 1, 1, 1],
    [0, -1, -2, -3, -4],
    [0, -1, -2, -3, -4],
    [0, 0, 1, 3, 6],
    [0, -1, -2, -3, -4],
    [0, 1, 4, 9, 16],
    [0, -1, -2, -3, -4],
    [0, 0, 0, -1, -4],
    [0, 0, 1, 3, 6],
    [0, 1, 4, 9, 16],
    [0, -1, -2, -3, -4],
    [0, 0, -2, -9, -24],
]

# <zeta - 1>, <log zeta>: rows n = 1..12, columns k = 0..3
ZETA_MINUS_ONE_WINDOW = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 1, 0, 0],
    [0, 1, 2, 0],
    [0, 1, 0, 0],
    [0, 1, 2, 1],
    [0, 1, 1, 0],
    [0, 1, 2, 0],
    [0, 1, 0, 0],
    [0, 1, 4, 3],
]

ZETA_LOG_WINDOW = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 0, 0],
    [0, F(1, 2), 1, 0],
    [0, 1, 0, 0],
    [0, 0, 2, 0],
    [0, 1, 0, 0],
    [0, F(1, 3), 1, 1],
    [0, F(1, 2), 1, 0],
    [0, 0, 2, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 3],
]

# power tables of 1+x rearranged along diagonals, rows k = 3 down to -3
BINOMIAL_TABLE_V0 = [
    [1, 3, 3, 1],
    [1, 2, 1, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
    [1, -1, 1, -1],
    [1, -2, 3, -4],
    [1, -3, 6, -10],
]

BINOMIAL_TABLE_V1 = [
    [1, 4, 10, 20],
    [1, 3, 6, 10],
    [1, 2, 3, 4],
    [1, 1, 1, 1],
    [1, 0, 0, 0],
    [1, -1, 0, 0],
    [1, -2, 1, 0],
]

BINOMIAL_TABLE_V2 = [
    [1, 5, 21, 84],
    [1, 4, 15, 56],
    [1, 3, 10, 35],
    [1, 2, 6, 20],
    [1, 1, 3, 10],
    [1, 0, 1, 4],
    [1, -1, 0, 1],
]

BINOMIAL_TABLE_VM1 = [
    [1, 2, 0, 0],
    [1, 1, 0, -1],
    [1, 0, 1, -4],
    [1, -1, 3, -10],
    [1, -2, 6, -20],
    [1, -3, 10, -35],
    [1, -4, 15, -56],
]

BINOMIAL_TABLE_VM2 = [
    [1, 1, 1, -10],
    [1, 0, 3, -20],
    [1, -1, 6, -35],
    [1, -2, 10, -56],
    [1, -3, 15, -84],
    [1, -4, 21, -120],
    [1, -5, 28, -165],
]

# rows of ((1+x)^(2(n+1)), x) and the diagonally rescaled Catalan-column form
EX7_BINOMIAL_ROWS = [
    [1, 0, 0, 0, 0],
    [4, 1, 0, 0, 0],
    [15, 6, 1, 0, 0],
    [56, 28, 8, 1, 0],
    [210, 120, 45, 10, 1],
]

EX7_CONJUGATED = [
    [1, 0, 0, 0, 0],
    [2, 1, 0, 0, 0],
    [5, 4, 1, 0, 0],
    [14, 14, 6, 1, 0],
    [42, 48, 27, 8, 1],
]
