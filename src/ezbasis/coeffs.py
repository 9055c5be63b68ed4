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
degree r-1, so the verification compares their integer coefficient
vectors of length r, built with `math.comb` from the integer rows of
a_{c,d}; the public `BivariatePoly` is not needed for it.

The matrix A for parameter N stacks rows 1..2N' over columns 1..N'
with N' = floor(N/2).  Odd rows form the lower-triangular A1, even
rows the lower-triangular A2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactnum import rat_from_str, rat_to_str

GENERAL = "general"
LOWER_TRIANGULAR = "lower_triangular"

_SHAPE_TAGS = (GENERAL, LOWER_TRIANGULAR)


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


def coeff_a(c: int, d: int) -> Fraction:
    """The coefficient a_{c,d}, memoized; see the module docstring."""
    return Fraction(_coeff_int(c, d))


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Dense exact-rational matrix with an optional triangularity tag.

    `shape_tag` is "lower_triangular" only for square matrices whose
    strictly upper entries are exactly zero and whose diagonal has no
    zero; construction validates this, so a tagged matrix never needs
    re-checking.  Equality and hashing ignore the tag and compare the
    grid, which keeps JSON round-trips (where the tag is re-detected)
    value-faithful.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    shape_tag: str = GENERAL

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
        if self.shape_tag not in _SHAPE_TAGS:
            raise ValueError(f"unknown shape tag {self.shape_tag!r}")
        if self.shape_tag == LOWER_TRIANGULAR:
            if self.rows != self.cols:
                raise ValueError("lower_triangular requires a square matrix")
            for i, row in enumerate(grid):
                if row[i] == 0:
                    raise ValueError(f"zero diagonal entry at position {i + 1}")
                if any(x != 0 for x in row[i + 1:]):
                    raise ValueError(f"nonzero entry above the diagonal in row {i + 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows, shape_tag: str = GENERAL) -> CoeffMatrix:
        grid = tuple(tuple(row) for row in rows)
        if not grid:
            raise ValueError("matrix dimensions must be positive")
        return cls(rows=len(grid), cols=len(grid[0]), entries=grid, shape_tag=shape_tag)

    @classmethod
    def identity(cls, n: int) -> CoeffMatrix:
        rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return cls.from_rows(rows, shape_tag=LOWER_TRIANGULAR)

    def is_lower_triangular(self) -> bool:
        """Structural check, independent of the tag."""
        if self.rows != self.cols:
            return False
        for i, row in enumerate(self.entries):
            if row[i] == 0 or any(x != 0 for x in row[i + 1:]):
                return False
        return True

    @classmethod
    def from_json_dict(cls, data: dict) -> CoeffMatrix:
        """Parse the {"rows":…,"cols":…,"entries":[[…]]} encoding.

        The shape tag is not serialized; it is re-detected so that a
        round-trip through JSON compares equal to the original.
        """
        try:
            rows = int(data["rows"])
            cols = int(data["cols"])
            grid = [[rat_from_str(x) for x in row] for row in data["entries"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        m = cls(rows=rows, cols=cols, entries=tuple(tuple(r) for r in grid))
        if m.is_lower_triangular():
            m = cls(rows=rows, cols=cols, entries=m.entries, shape_tag=LOWER_TRIANGULAR)
        return m

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
    return CoeffMatrix.from_rows(rows, shape_tag=GENERAL)


def split_A1_A2(A: CoeffMatrix) -> tuple[CoeffMatrix, CoeffMatrix]:
    """Odd rows and even rows of A, as validated triangular matrices.

    Both submatrices are tagged lower_triangular; the constructor
    validation therefore rejects a corrupted A (zero diagonal or stray
    entry above the diagonal) with a ValueError.
    """
    if A.rows % 2 != 0:
        raise ValueError("matrix must have an even number of rows")
    n_prime = A.rows // 2
    if A.cols != n_prime:
        raise ValueError("matrix must have shape 2k x k")
    odd = [A.entries[2 * i] for i in range(n_prime)]
    even = [A.entries[2 * i + 1] for i in range(n_prime)]
    a1 = CoeffMatrix.from_rows(odd, shape_tag=LOWER_TRIANGULAR)
    a2 = CoeffMatrix.from_rows(even, shape_tag=LOWER_TRIANGULAR)
    return a1, a2


# ---------------------------------------------------------------------------
# power-sum verification


@dataclass(frozen=True, eq=False)
class BivariatePoly:
    """Exact polynomial in two variables m, n.

    Stored as a sorted tuple of (i, j, coefficient) monomials m^i n^j
    with no explicit zeros, so structural equality is polynomial
    equality.
    """

    terms: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "terms",
            tuple((i, j, Fraction(c)) for (i, j, c) in self.terms),
        )
        if any(c == 0 for (_, _, c) in self.terms):
            raise ValueError("zero coefficients must not be stored")
        keys = [(i, j) for (i, j, _) in self.terms]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("terms must be sorted and distinct")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @classmethod
    def from_dict(cls, coeffs: dict[tuple[int, int], Fraction]) -> BivariatePoly:
        terms = tuple(
            (i, j, Fraction(c)) for (i, j), c in sorted(coeffs.items()) if c != 0
        )
        return cls(terms=terms)

    @classmethod
    def zero(cls) -> BivariatePoly:
        return cls(terms=())

    @classmethod
    def power_sum(cls, e: int) -> BivariatePoly:
        """m^e + n^e; for e = 0 this is the constant 2."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        if e == 0:
            return cls.from_dict({(0, 0): Fraction(2)})
        return cls.from_dict({(e, 0): Fraction(1), (0, e): Fraction(1)})

    @classmethod
    def symmetric_block(cls, d: int, p: int) -> BivariatePoly:
        """m^(d-1) n^(d-1) (m+n)^p expanded by the binomial theorem."""
        if d < 1 or p < 0:
            raise ValueError("require d >= 1 and p >= 0")
        base = d - 1
        coeffs = {
            (base + t, base + p - t): Fraction(comb(p, t)) for t in range(p + 1)
        }
        return cls.from_dict(coeffs)

    def plus(self, other: BivariatePoly) -> BivariatePoly:
        acc = {(i, j): c for (i, j, c) in self.terms}
        for (i, j, c) in other.terms:
            acc[(i, j)] = acc.get((i, j), Fraction(0)) + c
        return BivariatePoly.from_dict(acc)

    def times(self, scalar: Fraction | int) -> BivariatePoly:
        s = Fraction(scalar)
        if s == 0:
            return BivariatePoly.zero()
        return BivariatePoly(terms=tuple((i, j, c * s) for (i, j, c) in self.terms))

    def coefficient(self, i: int, j: int) -> Fraction:
        for (a, b, c) in self.terms:
            if (a, b) == (i, j):
                return c
        return Fraction(0)

    def eval_at(self, m: int, n: int) -> Fraction:
        return sum((c * m**i * n**j for (i, j, c) in self.terms), Fraction(0))

    @property
    def is_symmetric(self) -> bool:
        table = {(i, j): c for (i, j, c) in self.terms}
        return all(table.get((j, i)) == c for (i, j), c in table.items())


def power_sum_decomposition(e: int, n_prime: int) -> tuple[Fraction, ...]:
    """Row e+1 of the coefficient family, padded to length n_prime.

    The returned vector (a_{e+1,1}, ..., a_{e+1,n_prime}) satisfies

        m^e + n^e = sum_d a_{e+1,d} m^(d-1) n^(d-1) (m+n)^(e-2d+2)

    for every e >= 1.  For e = 0 the same row decomposes the halved
    constant (m^0 + n^0)/2 instead; callers that need the identity
    should start at e = 1.
    """
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    if e + 1 > 2 * n_prime:
        raise ValueError("exponent out of range: need e + 1 <= 2 * n_prime")
    return tuple(Fraction(_coeff_int(e + 1, d)) for d in range(1, n_prime + 1))


@dataclass(frozen=True)
class PowerSumReport:
    """Outcome of the power-sum check for e = 1..e_max."""

    e_max: int
    checked: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_power_sum_identity(e_max: int) -> PowerSumReport:
    """Expand each decomposition and compare it with m^e + n^e.

    Runs e = 1..e_max (exponent 0 is the halved constant row, see
    `power_sum_decomposition`).  Both sides are homogeneous of degree
    e, so each is the integer vector of its m^i n^(e-i) coefficients,
    i = 0..e: block d adds a_{e+1,d} * binom(e-2d+2, t) at i = d-1+t.
    Each failing exponent is recorded in the report rather than
    raised, so a single bad row cannot mask later ones.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    _ensure_rows(e_max + 1)
    failures = []
    for e in range(1, e_max + 1):
        acc = [0] * (e + 1)
        for d, coef in enumerate(_coeff_rows[e], start=1):
            if coef == 0:
                continue
            p = e - 2 * d + 2
            for t in range(p + 1):
                acc[d - 1 + t] += coef * comb(p, t)
        if acc != [1] + [0] * (e - 1) + [1]:
            failures.append(e)
    return PowerSumReport(e_max=e_max, checked=e_max, failures=tuple(failures))


def tornheim_decomposition(c: int, n_prime: int) -> tuple[Fraction, ...]:
    """Halved row c+1: weights expressing the double zeta over Tornheim values.

    The vector (a_{c+1,d}/2)_d satisfies, with T the Tornheim double
    zeta function,

        zeta(-c, s+c) = sum_d (a_{c+1,d}/2) T(-d+1, -d+1; s+2d-2),

    valid for every c >= 1; for c = 0 the left side is zeta(0,s)/2,
    equivalently zeta(0,s) = T(0,0;s) since both equal
    sum_{N>=2} (N-1) N^(-s).
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    if c + 1 > 2 * n_prime:
        raise ValueError("index out of range: need c + 1 <= 2 * n_prime")
    return tuple(Fraction(_coeff_int(c + 1, d), 2) for d in range(1, n_prime + 1))
