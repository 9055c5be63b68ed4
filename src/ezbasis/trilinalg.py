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
reduced Fraction.  The dot products of `mat_mul` and `invert_forward`
run at C level, as sum(map(mul, ...)) over the integer vectors.  The
entries above the diagonal of an inverse and every zero entry of a
product are the shared `coeffs.ZERO`, so comparing two results mostly
compares entries by identity.  The two inversions share only the row
scaling, never their substitution or recurrence.
"""

from __future__ import annotations

from fractions import Fraction
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
            inv[j + k][j] = Fraction(y * d[j], den)
    return CoeffMatrix.from_rows(inv)


def invert_cofactor(M: CoeffMatrix) -> CoeffMatrix:
    """Exact inverse via the cofactor-determinant formula.

    Naively each D_{i,j} is an (i-j)x(i-j) determinant, which is far
    too slow entrywise.  Expanding D_{j+k,j} along its last row gives a
    recurrence in k that reuses the smaller minors of the same column:

        d_k = sum_{c=1}^{k} (-1)^(k+c) a_{j+k,j+c-1} * d_{c-1}
              * a_{j+c,j+c} a_{j+c+1,j+c+1} ... a_{j+k-1,j+k-1}

    with d_0 = 1.  The trailing diagonal products are maintained
    incrementally (each step multiplies all previous ones by a single
    new diagonal entry), so a full inverse costs O(n^3) like forward
    substitution.  The recurrence runs on the rows scaled to integers,
    B_i = d_i * M_i: scaling row i scales every minor through it, so
    inv[j+k][j] = (-1)^k d_k(B) * d_j / (b_{j,j} ... b_{j+k,j+k}), one
    Fraction per entry.  The tests re-evaluate the same minors by
    fraction-free elimination, so the recurrence itself is cross-checked.
    """
    require_lower_triangular(M)
    n = M.rows
    b, scale = zip(*(_scaled_to_int(row) for row in M.entries))
    inv = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = Fraction(scale[j], b[j][j])
        # d[k] = D_{j+k,j}; u[c-1] = d_{c-1} * prod of diag entries j+c..j+k-1
        d = [1]
        u: list[int] = []
        denom = b[j][j]
        for k in range(1, n - j):
            if u:
                grown = b[j + k - 1][j + k - 1]
                u = [x * grown for x in u]
            u.append(d[k - 1])
            acc = 0
            row = b[j + k]
            for c in range(1, k + 1):
                e = row[j + c - 1]
                if e:
                    acc += e * u[c - 1] if (k + c) % 2 == 0 else -e * u[c - 1]
            d.append(acc)
            denom *= row[j + k]
            inv[j + k][j] = Fraction((d[k] if k % 2 == 0 else -d[k]) * scale[j], denom)
    return CoeffMatrix.from_rows(inv)


def mat_mul(P: CoeffMatrix, Q: CoeffMatrix) -> CoeffMatrix:
    """Exact matrix product.

    Each row of P and each column of Q is scaled to integers by the lcm
    of its denominators, so every dot product is one C-level
    sum(map(mul, ...)) over integers, and each nonzero output entry is
    normalised once, as Fraction(dot, dP * dQ).  The product is
    generic: no entry of either factor is assumed zero.
    """
    if P.cols != Q.rows:
        raise ValueError(
            f"dimension mismatch: {P.rows}x{P.cols} times {Q.rows}x{Q.cols}"
        )
    prows = [_scaled_to_int(row) for row in P.entries]
    qcols = [_scaled_to_int(col) for col in zip(*Q.entries)]
    rows = [
        [
            Fraction(dot, pden * qden) if (dot := sum(map(mul, pnum, qnum))) else ZERO
            for qnum, qden in qcols
        ]
        for pnum, pden in prows
    ]
    return CoeffMatrix.from_rows(rows)


def _scaled_to_int(vec: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of vec over the lcm of its denominators, and that lcm."""
    # `denominator` is a Python-level property: read it once per entry
    dens = [x.denominator for x in vec]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(vec, dens)], den

