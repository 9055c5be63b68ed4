"""Reference routes that the tests check the library against.

Each function recomputes by its own arithmetic something that the
library computes another way: the minors of the cofactor inversion by
fraction-free elimination, the pole residues from generalized binomials
and zeta values, the pole catalog and its check against an expansion
with one `Fraction` per record, the Tornheim convolution term by term,
and a matrix from the `--format json` text.  From `ezbasis` this module imports only
the inputs those routes need, so a route can never end up calling the
kernel it checks (`test_package.py` guards that).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, lcm

from ezbasis.coeffs import CoeffMatrix
from ezbasis.exactnum import bernoulli


def det_Dij(M: CoeffMatrix, i: int, j: int) -> Fraction:
    """The minor D_{i,j} of the cofactor formula, for 1-indexed i > j.

    Only the shape is required (square, zero above the diagonal); a zero
    diagonal is allowed.  Extracts rows j+1..i and columns j..i-1 and
    evaluates the determinant by fraction-free (Bareiss) elimination
    after clearing denominators, with row swaps when a pivot vanishes.
    For i = j+1 this degenerates to the single entry a_{i,j}.
    """
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    if any(x != 0 for r, row in enumerate(M.entries) for x in row[r + 1:]):
        raise ValueError("nonzero entry above the diagonal")
    if not (1 <= j < i <= M.rows):
        raise ValueError("require 1 <= j < i <= n")
    size = i - j
    scale = Fraction(1)
    block: list[list[int]] = []
    for r in range(j, i):
        raw = [M.entries[r][col] for col in range(j - 1, i - 1)]
        den = lcm(*(x.denominator for x in raw))
        scale /= den
        block.append([int(x * den) for x in raw])
    return scale * _bareiss_det(block, size)


def _bareiss_det(m: list[list[int]], n: int) -> int:
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def row_sums(M: CoeffMatrix) -> tuple[Fraction, ...]:
    """Per-row entry sums; (1, 0, ..., 0) for the inverses of A1 and A2."""
    return tuple(sum(row, Fraction(0)) for row in M.entries)


def zeta_neg(k: int) -> Fraction:
    """zeta(-k) for an integer k >= 0, as an exact rational.

    zeta(0) = -1/2, and zeta(-k) = -B_{k+1}/(k+1) for k >= 1; in
    particular zeta(-2k) = 0 for k >= 1.
    """
    if k < 0:
        raise ValueError("argument must be a non-positive integer point, got -k with k < 0")
    if k == 0:
        return Fraction(-1, 2)
    return -bernoulli(k + 1) / (k + 1)


def gen_binomial(x: Fraction | int, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) = x(x-1)...(x-k+1)/k!.

    Defined for any rational x and integer k >= 0; C(x, 0) = 1.
    Negative integer tops are routine here, e.g. C(-2, 1) = -2.  An
    integer top goes through `math.comb`, using
    C(x, k) = (-1)^k C(k-x-1, k) for x < 0; only a non-integer top
    multiplies out the falling factorial.
    """
    if k < 0:
        raise ValueError("lower index must be >= 0")
    x = Fraction(x)
    if x.denominator == 1:
        top = x.numerator
        return Fraction(comb(top, k) if top >= 0 else (-1) ** k * comb(k - top - 1, k))
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den


def pole_table(n: int) -> tuple[tuple[int, Fraction, str], ...]:
    """The poles of zeta(-n, s+n) as (location, residue, closed form) triples.

    The construction that `analytic.pole_table` used before it read an
    integer catalog: one `Fraction` per record, C(n, 2k+1) B_{2k+2} /
    (2k+2) at s = -2k from `math.comb` and the Bernoulli numerator and
    denominator.  The first two entries are the fields of `PoleRecord`,
    which this module does not import; the closed form is the note that
    `poles` text output writes beside each residue.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    records = [
        (2, Fraction(1, n + 1), f"1/({n}+1)"),
        (1, Fraction(-1) if n == 0 else Fraction(-1, 2), "2*zeta(0)" if n == 0 else "zeta(0)"),
    ]
    for k in range(n // 2):
        b = bernoulli(2 * k + 2)
        residue = Fraction(comb(n, 2 * k + 1) * b.numerator, b.denominator * (2 * k + 2))
        records.append((-2 * k, residue, f"binom({2 * k - n},{2 * k + 1})*zeta({-2 * k - 1})"))
    return tuple(records)


def residues_from_expansion(c: int, q: Sequence[Fraction]) -> tuple[tuple[int, Fraction], ...]:
    """The poles that the expansion q of zeta(-c, s+c) implies, checked against `pole_table(c)`.

    Each nonzero q_j gives the record (2-j, q_j), compared with the
    catalog record by record as `Fraction`s.  A mismatch raises
    AssertionError with the text of the library's VerificationError.
    """
    records = tuple((2 - j, qj) for j, qj in enumerate(q) if qj)
    direct = pole_table(c)
    locations = tuple(r[0] for r in records)
    direct_locations = tuple(r[0] for r in direct)
    if locations != direct_locations:
        raise AssertionError(
            f"pole locations differ for c = {c}: expansion {locations} "
            f"vs direct {direct_locations}"
        )
    for got, want in zip(records, direct):
        if got[1] != want[1]:
            raise AssertionError(
                f"residue mismatch for c = {c} at s = {got[0]}: "
                f"expansion {got[1]} vs direct {want[1]}"
            )
    return records


def tornheim_inner_sum(a: int, N: int) -> int:
    """Exact convolution sum_{m=1}^{N-1} m^a (N-m)^a.

    Symmetric under m <-> N-m, so it is computed as twice the half
    range plus the middle term for even N.
    """
    if a < 0 or N < 1:
        raise ValueError("require a >= 0 and N >= 1")
    half = (N - 1) // 2
    total = 2 * sum(m**a * (N - m) ** a for m in range(1, half + 1))
    if N % 2 == 0:
        total += (N // 2) ** (2 * a)
    return total


def matrix_from_json(data: dict) -> CoeffMatrix:
    """Parse the {"rows":…,"cols":…,"entries":[[…]]} encoding.

    Each entry must be a "p/q" or "p" string, as `rat_to_str` writes
    it; anything else, a missing key, and a "rows" or "cols" that does
    not match the grid, raises ValueError.
    """
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        grid = [[_rational(x) for x in row] for row in data["entries"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    matrix = CoeffMatrix(entries=grid)
    if (rows, cols) != (matrix.rows, matrix.cols):
        raise ValueError(f"header says {rows}x{cols}, grid is {matrix.rows}x{matrix.cols}")
    return matrix


def _rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {s!r}") from exc
