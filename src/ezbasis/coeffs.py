"""Coefficient matrix construction and the power-sum decomposition.

The central object is the integer family a_{c,d} defined by

    a_{c,1} = 1                   (c >= 1)
    a_{1,d} = a_{2,d} = 0         (d >= 2)
    a_{3,2} = -2,  a_{3,d} = 0    (d >= 3)
    a_{c,d} = a_{c-1,d} - a_{c-2,d-1}   (c >= 4, d >= 2)

Row r of the resulting matrix carries the exact decomposition of the
symmetric power sum m^(r-1) + n^(r-1) over the building blocks
m^(d-1) n^(d-1) (m+n)^(r+1-2d).  Note the shift: the exponent is the
row index minus one.  Row 1 is the degenerate constant row and is
carried with a factor 1/2 by convention (it books the function family's
index-0 member at half weight), so the power-sum verification below
starts at exponent 1.  Both sides of that identity are homogeneous of
degree r-1, so setting n = 1 loses nothing, and the verification
checks the resulting one-variable integer polynomial identity by
Kronecker substitution: it evaluates both sides at m = 2^k, reading
only the integer rows of a_{c,d}, with k chosen so large that every
coefficient of their difference fits in one base-2^k digit.  Equal
values then mean equal polynomials.

The matrix A for parameter N stacks rows 1..2N' over columns 1..N'
with N' = floor(N/2).  Odd rows form the lower-triangular A1, even
rows the lower-triangular A2.  `require_lower_triangular` is the one
check that a matrix is invertible lower-triangular; `split_A1_A2` and
both inversions in `trilinalg` run it.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import SingularMatrixError
from .exactnum import rat_to_str

# shared entries: a grid that reuses these compares them by identity
ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the coefficient family a_{c,d}

# _coeff_rows[c-1] holds row c for d = 1..ceil(c/2); entries beyond are 0
_coeff_rows: list[list[int]] = [[1], [1], [1, -2]]


def _ensure_rows(c: int) -> None:
    while len(_coeff_rows) < c:
        cc = len(_coeff_rows) + 1
        # cc >= 4 here; rows 1..3 are seeded above
        width = (cc + 1) // 2
        prev = _coeff_rows[cc - 2]
        prev2 = _coeff_rows[cc - 3]
        row = [1]
        for d in range(2, width + 1):
            t1 = prev[d - 1] if d - 1 < len(prev) else 0
            t2 = prev2[d - 2] if d - 2 < len(prev2) else 0
            row.append(t1 - t2)
        _coeff_rows.append(row)


def _coeff_int(c: int, d: int) -> int:
    if c < 1 or d < 1:
        raise ValueError("indices must satisfy c >= 1 and d >= 1")
    if d > (c + 1) // 2:
        # induction on the recurrence: rows vanish past column ceil(c/2)
        return 0
    _ensure_rows(c)
    return _coeff_rows[c - 1][d - 1]


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
    """Dense exact-rational matrix.

    Construction converts every entry to `Fraction` and checks that the
    grid matches the declared dimensions; equality and hashing compare
    the dimensions and the grid.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        grid = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in self.entries
        )
        object.__setattr__(self, "entries", grid)
        if len(grid) != self.rows or any(len(row) != self.cols for row in grid):
            raise ValueError("entry grid does not match declared dimensions")

    @classmethod
    def from_rows(cls, rows) -> CoeffMatrix:
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            raise ValueError("matrix dimensions must be positive")
        return cls(rows=len(grid), cols=len(grid[0]), entries=grid)

    @classmethod
    def identity(cls, n: int) -> CoeffMatrix:
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return cls.from_rows(rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[rat_to_str(x) for x in row] for row in self.entries],
        }

    def to_latex(self) -> str:
        """pmatrix with inline p/q fractions, one matrix row per line."""
        lines = ["\\begin{pmatrix}"]
        for row in self.entries:
            lines.append(" " + " & ".join(rat_to_str(x) for x in row) + " \\\\")
        lines.append("\\end{pmatrix}")
        return "\n".join(lines)

    def to_text(self) -> str:
        cells = [[rat_to_str(x) for x in row] for row in self.entries]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        )


def build_matrix_A(N: int) -> CoeffMatrix:
    """The 2N' x N' matrix (a_{c,d}) with N' = floor(N/2).

    N and N+1 give the same matrix when N is even; N < 2 is rejected
    because the matrix would be empty.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_prime = N // 2
    rows = [
        [Fraction(_coeff_int(c, d)) for d in range(1, n_prime + 1)]
        for c in range(1, 2 * n_prime + 1)
    ]
    return CoeffMatrix.from_rows(rows)


def require_lower_triangular(M: CoeffMatrix) -> None:
    """Reject M unless it is square, zero above the diagonal and nonzero on it.

    Shape problems raise ValueError.  A zero diagonal entry then raises
    the more specific SingularMatrixError; the shape is checked in full
    first, so that error always means a well-shaped but singular matrix.
    """
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    for i, row in enumerate(M.entries):
        if any(row[i + 1:]):
            raise ValueError(f"nonzero entry above the diagonal in row {i + 1}")
    for i, row in enumerate(M.entries):
        if not row[i]:
            raise SingularMatrixError(f"zero diagonal entry at position {i + 1}")


def split_A1_A2(A: CoeffMatrix) -> tuple[CoeffMatrix, CoeffMatrix]:
    """Odd rows and even rows of A, as validated triangular matrices.

    Both halves go through `require_lower_triangular`, so a corrupted A
    (a stray entry above the diagonal, or a zero diagonal) is rejected
    with a ValueError, the latter as SingularMatrixError.
    """
    if A.rows % 2 != 0:
        raise ValueError("matrix must have an even number of rows")
    n_prime = A.rows // 2
    if A.cols != n_prime:
        raise ValueError("matrix must have shape 2k x k")
    odd = [A.entries[2 * i] for i in range(n_prime)]
    even = [A.entries[2 * i + 1] for i in range(n_prime)]
    a1 = CoeffMatrix.from_rows(odd)
    a2 = CoeffMatrix.from_rows(even)
    require_lower_triangular(a1)
    require_lower_triangular(a2)
    return a1, a2


# ---------------------------------------------------------------------------
# power-sum verification


@record
class PowerSumReport:
    """Outcome of the power-sum check for e = 1..e_max."""

    e_max: int
    checked: int
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
    return PowerSumReport(e_max=e_max, checked=e_max, failures=tuple(failures))


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
