"""Coefficient matrix construction and the power-sum decomposition.

The central object is the integer family a_{c,d} defined by

    a_{c,1} = 1                   (c >= 1)
    a_{1,d} = a_{2,d} = 0         (d >= 2)
    a_{3,2} = -2,  a_{3,d} = 0    (d >= 3)
    a_{c,d} = a_{c-1,d} - a_{c-2,d-1}   (c >= 4, d >= 2)

Row r of the resulting matrix carries the exact decomposition of the
symmetric power sum m^(r-1) + n^(r-1) (note the shift) over the
building blocks m^(d-1) n^(d-1) (m+n)^(r+1-2d).  Row 1 is the
degenerate constant row and is carried with a factor 1/2 by convention
(it books the function family's index-0 member at half weight), so the
power-sum verification below starts at exponent 1.

The matrix A for parameter N stacks rows 1..2N' over columns 1..N'
with N' = floor(N/2).  Odd rows form the lower-triangular A1, even
rows the lower-triangular A2.  `require_lower_triangular` is the one
check that a matrix is invertible lower-triangular; `split_A1_A2` and
both inversions in `trilinalg` run it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import attrgetter, sub

from ._record import record
from .errors import SingularMatrixError
from .exactnum import _fraction

# shared entries: a grid that reuses these compares them by identity
ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the coefficient family a_{c,d}

# _coeff_rows[c-1] holds row c for d = 1..ceil(c/2); entries beyond are 0
_coeff_rows: list[list[int]] = [[1], [1], [1, -2]]


def _ensure_rows(c: int) -> None:
    # a_{c,d} = a_{c-1,d} - a_{c-2,d-1}, with the zero past row c-1's band
    while len(_coeff_rows) < c:
        prev2, prev = _coeff_rows[-2:]
        _coeff_rows.append([1, *map(sub, prev[1:] + [0], prev2)])


def coeff_row(c: int) -> tuple[int, ...]:
    """Row c of the integer family: a_{c,d} for d = 1..ceil(c/2)."""
    if c < 1:
        raise ValueError("row index must satisfy c >= 1")
    _ensure_rows(c)
    return tuple(_coeff_rows[c - 1])


# ---------------------------------------------------------------------------
# matrices


@record
class CoeffMatrix:
    """Dense exact-rational matrix, stored as two grids of integers.

    Entry (i, j) is nums[i][j] / dens[i][j] in lowest terms, dens[i][j] > 0,
    zero as 0/1: a canonical form, so `==` and `hash` compare tuples of ints.
    The constructor takes equal-length rows of `int` and `Fraction` entries
    and raises TypeError on any other type, a float included; kernels pass
    reduced grids to `_from_grids`.  `entries`, the grid of `Fraction`s,
    is built once, on first read.
    """

    entries: tuple[tuple[Fraction, ...], ...]  # the argument; stored as nums and dens
    _record_values = attrgetter("nums", "dens")

    def __init__(self, entries) -> None:
        grid = [[_fraction(x, "entry ({}, {})", i, j) for j, x in enumerate(row, 1)]
                for i, row in enumerate(entries, 1)]
        if not grid or not grid[0]:
            raise ValueError("matrix dimensions must be positive")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("rows must have equal length")
        # straight into the instance dict, past the frozen __setattr__
        self.__dict__.update(nums=tuple(tuple(x.numerator for x in row) for row in grid),
                             dens=tuple(tuple(x.denominator for x in row) for row in grid))

    @classmethod
    def _from_grids(cls, nums: tuple, dens: tuple) -> CoeffMatrix:
        m = object.__new__(cls)
        m.__dict__.update(nums=nums, dens=dens)
        return m

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(ZERO if not n else ONE if n == d else Fraction(n, d)
                           for n, d in zip(*rows)) for rows in zip(self.nums, self.dens))

    @property
    def rows(self) -> int:
        return len(self.nums)

    @property
    def cols(self) -> int:
        return len(self.nums[0])

    @classmethod
    def from_rows(cls, rows) -> CoeffMatrix:
        return cls(entries=rows)

    @classmethod
    def identity(cls, n: int) -> CoeffMatrix:
        if n < 1:
            raise ValueError("matrix dimensions must be positive")
        nums = tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))
        return cls._from_grids(nums, ((1,) * n,) * n)


def build_matrix_A(N: int) -> CoeffMatrix:
    """The 2N' x N' matrix (a_{c,d}) with N' = floor(N/2).

    N and N+1 give the same matrix when N is even; N < 2 is rejected
    because the matrix would be empty.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_prime = N // 2
    _ensure_rows(2 * n_prime)
    # row c is its band a_{c,1..ceil(c/2)}, zero beyond by the recurrence
    nums = tuple((*band, *(0,) * (n_prime - len(band))) for band in _coeff_rows[: 2 * n_prime])
    return CoeffMatrix._from_grids(nums, ((1,) * n_prime,) * (2 * n_prime))


def require_lower_triangular(M: CoeffMatrix) -> None:
    """Reject M unless it is square, zero above the diagonal and nonzero on it.

    Shape problems raise ValueError, and are checked in full before a zero
    diagonal entry raises the more specific SingularMatrixError.
    """
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    for i, row in enumerate(M.nums):
        if any(row[i + 1:]):
            raise ValueError(f"nonzero entry above the diagonal in row {i + 1}")
    for i, row in enumerate(M.nums):
        if not row[i]:
            raise SingularMatrixError(f"zero diagonal entry at position {i + 1}")


def split_A1_A2(A: CoeffMatrix) -> tuple[CoeffMatrix, CoeffMatrix]:
    """Odd rows and even rows of A, as validated triangular matrices.

    Both halves go through `require_lower_triangular`, so a corrupted A is
    rejected with a ValueError (SingularMatrixError for a zero diagonal).
    """
    if A.rows % 2 != 0:
        raise ValueError("matrix must have an even number of rows")
    n_prime = A.rows // 2
    if A.cols != n_prime:
        raise ValueError("matrix must have shape 2k x k")
    a1, a2 = (CoeffMatrix._from_grids(A.nums[k::2], A.dens[k::2]) for k in (0, 1))
    require_lower_triangular(a1)
    require_lower_triangular(a2)
    return a1, a2


# ---------------------------------------------------------------------------
# power-sum verification


@record
class PowerSumReport:
    """Outcome of the power-sum check for e = 1..e_max."""

    e_max: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_power_sum_identity(e_max: int) -> PowerSumReport:
    """Check each decomposition against m^e + n^e by Kronecker substitution.

    Runs e = 1..e_max on row e+1 of the family, which should satisfy

        m^e + n^e = sum_d a_{e+1,d} m^(d-1) n^(d-1) (m+n)^(e-2d+2)

    (exponent 0 is the halved constant row, see the module docstring).
    Both sides are homogeneous of degree e, so the identity holds if
    and only if it holds at n = 1 as a polynomial identity in x = m:

        x^e + 1 = sum_d a_{e+1,d} x^(d-1) (1+x)^(e-2d+2).

    The right side is built Horner-style at x = X = 2^k, with
    G <- G (1+X)^2 + a_{e+1,d} X^(d-1) for d = 1..D as shifts and adds,
    then times (1+X) once more when e is odd, and G is compared with
    X^e + 1.  By C(p, t) <= 2^p, every coefficient of the difference
    polynomial is at most B = sum_d |a_{e+1,d}| 2^(e-2d+2) + 2 in
    absolute value, and k is chosen with 2^k >= 2B.  A nonzero
    polynomial with all coefficients below X/2 in absolute value does
    not vanish at X (its lowest nonzero coefficient is not divisible
    by X), so the evaluation is as strong as comparing coefficient
    vectors.  Only the rows are read, never the recurrence that built
    them.  Each failing exponent is recorded in the report rather than
    raised, so a single bad row cannot mask later ones.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    _ensure_rows(e_max + 1)
    failures = []
    for e in range(1, e_max + 1):
        row = _coeff_rows[e]
        tail = e + 2 - 2 * len(row)
        if tail < 0:
            # a block with a negative power of (m+n) is not a polynomial
            failures.append(e)
            continue
        # d counts from 0 below, so a = a_{e+1,d+1} and its power of (1+X) is e-2d
        bound = sum(abs(a) << (e - 2 * d) for d, a in enumerate(row)) + 2
        k = (2 * bound).bit_length()
        k1, k2 = k + 1, 2 * k
        g = 0
        for d, a in enumerate(row):
            g += (g << k2) + (g << k1) + (a << (k * d))
        for _ in range(tail):
            g += g << k
        if g != (1 << (k * e)) + 1:
            failures.append(e)
    return PowerSumReport(e_max=e_max, failures=tuple(failures))


def tornheim_decomposition(c: int) -> tuple[Fraction, ...]:
    """Halved row c+1: weights expressing the double zeta over Tornheim values.

    The vector (a_{c+1,d}/2) for d = 1..ceil((c+1)/2) satisfies, with T
    the Tornheim double zeta function,

        zeta(-c, s+c) = sum_d (a_{c+1,d}/2) T(-d+1, -d+1; s+2d-2),

    valid for every c >= 1; for c = 0 the left side is zeta(0,s)/2,
    equivalently zeta(0,s) = T(0,0;s) since both equal
    sum_{N>=2} (N-1) N^(-s).
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    return tuple(Fraction(x, 2) for x in coeff_row(c + 1))
