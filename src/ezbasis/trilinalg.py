"""Exact linear algebra for lower-triangular rational matrices.

Two independent inversion algorithms are provided on purpose.
`invert_forward` is plain forward substitution; the `invert` command
prints its result.  `invert_cofactor` computes every inverse entry
from the determinant formula

    inv[i][j] = (-1)^(i-j) D_{i,j} / (a_{j,j} a_{j+1,j+1} ... a_{i,i})

where D_{i,j} is the minor built from rows j+1..i and columns j..i-1
(1-indexed), with D_{i,j} = a_{i,j} when i = j+1.  `invert --oracle`
and the test suite check that the two algorithms agree on the same
input, and the tests re-evaluate the minors by fraction-free
elimination, so the recurrence below is cross-checked as well.

All three kernels (both inversions and `mat_mul`) run on integers: each
row (for `mat_mul` also each column of the right factor) is scaled by
the lcm of its denominators, the arithmetic stays in integers over
that row and column denominator, and every output entry becomes one
reduced Fraction.  Every dot product runs at C level, as
sum(map(mul, ...)) over the integer vectors: the cofactor recurrence
carries its partial minors with their signs folded in, and `mat_mul`
takes each dot product only over the overlap of the nonzero spans of
its row and column.  Every zero entry of an inverse or a product is
the shared `coeffs.ZERO`, so comparing two results mostly compares
entries by identity.  The two inversions share only the row scaling,
never their substitution or recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul

from .coeffs import ZERO, CoeffMatrix, require_lower_triangular


def invert_forward(M: CoeffMatrix) -> CoeffMatrix:
    """Exact inverse of a lower-triangular matrix by forward substitution.

    With row i scaled to integers B_i = d_i * M_i, the inverse is
    B^(-1) D, so column j is d_j times the solution of B y = e_j.  That
    solution is built top to bottom as integer numerators over one
    common denominator: step i divides gcd(s, b_ii) out of the partial
    sum s and b_ii, and only a cofactor other than +-1 rescales the
    column.  The result is lower triangular with diagonal 1/a_{i,i}.
    """
    require_lower_triangular(M)
    n = M.rows
    b, d = zip(*(_scaled_to_int(row) for row in M.entries))
    inv = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        num = [1]
        den = b[j][j]
        for i in range(j + 1, n):
            row = b[i]
            s = sum(map(mul, row[j:i], num))
            g = gcd(s, row[i])
            s //= g
            piv = row[i] // g
            if abs(piv) == 1:
                num.append(-s * piv)
            else:
                num = [y * piv for y in num]
                num.append(-s)
                den *= piv
        for k, y in enumerate(num):
            inv[j + k][j] = Fraction(y * d[j], den) if y else ZERO
    return CoeffMatrix.from_rows(inv)


def invert_cofactor(M: CoeffMatrix) -> CoeffMatrix:
    """Exact inverse via the cofactor-determinant formula.

    Naively each D_{i,j} is an (i-j)x(i-j) determinant, which is far
    too slow entrywise.  Expanding D_{j+k,j} along its last row gives a
    recurrence in k that reuses the smaller minors of the same column:

        d_k = sum_{c=1}^{k} (-1)^(k+c) a_{j+k,j+c-1} * d_{c-1}
              * a_{j+c,j+c} a_{j+c+1,j+c+1} ... a_{j+k-1,j+k-1}

    with d_0 = 1.  The recurrence runs on the rows scaled to integers,
    B_i = d_i * M_i: scaling row i scales every minor through it, so
    inv[j+k][j] = (-1)^k d_k(B) * d_j / (b_{j,j} ... b_{j+k,j+k}), one
    Fraction per entry.  The signs are folded into the carried vector
    w[c-1] = (-1)^c d_{c-1} b_{j+c,j+c} ... b_{j+k-1,j+k-1}, so each
    minor is d_k = (-1)^k s_k with s_k = sum(row[j:j+k] * w), one
    C-level dot product, and s_k itself is the signed cofactor the
    entry needs.  Each step grows w by the one new diagonal entry and
    appends -s_k = (-1)^(k+1) d_k, so a full inverse costs O(n^3) like
    forward substitution.  The tests re-evaluate the same minors by
    fraction-free elimination, so the recurrence itself is cross-checked.
    """
    require_lower_triangular(M)
    n = M.rows
    b, scale = zip(*(_scaled_to_int(row) for row in M.entries))
    inv = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        denom = b[j][j]
        inv[j][j] = Fraction(scale[j], denom)
        # s = (-1)^k D_{j+k,j}, starting from D_{j,j} = 1 at k = 0
        s, w = 1, []
        for k in range(1, n - j):
            w = list(map(mul, w, repeat(b[j + k - 1][j + k - 1])))
            w.append(-s)
            row = b[j + k]
            s = sum(map(mul, row[j:j + k], w))
            denom *= row[j + k]
            inv[j + k][j] = Fraction(s * scale[j], denom) if s else ZERO
    return CoeffMatrix.from_rows(inv)


def mat_mul(P: CoeffMatrix, Q: CoeffMatrix) -> CoeffMatrix:
    """Exact matrix product.

    Each row of P and each column of Q is scaled to integers by the lcm
    of its denominators and carries the span [lo, hi) of its nonzero
    numerators.  Each dot product is one C-level sum(map(mul, ...)) over
    the overlap of the two spans, and each nonzero output entry is
    normalised once, as Fraction(dot, dP * dQ); an empty overlap gives
    `ZERO` without a dot product.  The spans are read from the data, so
    the product stays generic: no entry of either factor is assumed zero.
    """
    if P.cols != Q.rows:
        raise ValueError(
            f"dimension mismatch: {P.rows}x{P.cols} times {Q.rows}x{Q.cols}"
        )
    prows = [_spanned(row) for row in P.entries]
    qcols = [_spanned(col) for col in zip(*Q.entries)]
    # the overlap [lo, hi) of the two spans, by comparisons rather than max/min calls
    rows = [
        [
            Fraction(dot, pden * qden)
            if (lo := plo if plo > qlo else qlo) < (hi := phi if phi < qhi else qhi)
            and (dot := sum(map(mul, pnum[lo:hi], qnum[lo:hi])))
            else ZERO
            for qnum, qden, qlo, qhi in qcols
        ]
        for pnum, pden, plo, phi in prows
    ]
    return CoeffMatrix.from_rows(rows)


def _scaled_to_int(vec: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of vec over the lcm of its denominators, and that lcm."""
    # `denominator` is a Python-level property: read it once per entry
    dens = [x.denominator for x in vec]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(vec, dens)], den


def _spanned(vec: tuple[Fraction, ...]) -> tuple[list[int], int, int, int]:
    """`_scaled_to_int(vec)` and the span [lo, hi) of its nonzero numerators."""
    nums, den = _scaled_to_int(vec)
    nonzero = bytes(map(bool, nums))
    hi = nonzero.rfind(1) + 1
    return nums, den, nonzero.find(1) if hi else 0, hi
