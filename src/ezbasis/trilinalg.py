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

The three kernels read and write the integer grids of `CoeffMatrix`
and build no `Fraction`.  Each row (for `mat_mul` also each column of
the right factor) is scaled to integers over the lcm L of its
denominators as nums * (L // dens), every dot product is one C-level
sum(map(mul, ...)), and each column of an inverse or row of a product
is put in lowest terms by `_reduced`, one gcd map and two floordiv
maps.  The two inversions share only that scaling and that reduction.
The tests that rebuild inverse entries from the minors read `.entries`,
so a shared reducer that changes a value fails them, and one that
leaves an entry unreduced fails the canonical-form tests.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import floordiv, mul

from .coeffs import CoeffMatrix, require_lower_triangular


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
    b, d = zip(*map(_scaled, M.nums, M.dens))
    cols = []
    for j in range(n):
        num, den = [1], b[j][j]
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
        cols.append(_reduced(j, list(map(mul, num, repeat(d[j]))), [den] * len(num)))
    return _from_columns(cols)


def invert_cofactor(M: CoeffMatrix) -> CoeffMatrix:
    """Exact inverse via the cofactor-determinant formula.

    Naively each D_{i,j} is an (i-j)x(i-j) determinant, which is far
    too slow entrywise.  Expanding D_{j+k,j} along its last row gives a
    recurrence in k that reuses the smaller minors of the same column:

        d_k = sum_{c=1}^{k} (-1)^(k+c) a_{j+k,j+c-1} * d_{c-1}
              * a_{j+c,j+c} a_{j+c+1,j+c+1} ... a_{j+k-1,j+k-1}

    with d_0 = 1.  The recurrence runs on the rows scaled to integers,
    B_i = d_i * M_i: scaling row i scales every minor through it, so
    inv[j+k][j] = (-1)^k d_k(B) * d_j / (b_{j,j} ... b_{j+k,j+k}).
    The signs are folded into the carried vector
    w[c-1] = (-1)^c d_{c-1} b_{j+c,j+c} ... b_{j+k-1,j+k-1}, so each
    minor is d_k = (-1)^k s_k with s_k = sum(row[j:j+k] * w), one
    C-level dot product, and s_k itself is the signed cofactor the
    entry needs.  Each step grows w by the one new diagonal entry and
    appends -s_k = (-1)^(k+1) d_k, so a full inverse costs O(n^3) like
    forward substitution.
    """
    require_lower_triangular(M)
    n = M.rows
    b, scale = zip(*map(_scaled, M.nums, M.dens))
    cols = []
    for j in range(n):
        nums, dens = [scale[j]], [b[j][j]]
        # s = (-1)^k D_{j+k,j}, starting from D_{j,j} = 1 at k = 0
        s, w = 1, []
        for k in range(1, n - j):
            w = list(map(mul, w, repeat(b[j + k - 1][j + k - 1])))
            w.append(-s)
            row = b[j + k]
            s = sum(map(mul, row[j:j + k], w))
            nums.append(s * scale[j])
            dens.append(dens[-1] * row[j + k])
        cols.append(_reduced(j, nums, dens))
    return _from_columns(cols)


def mat_mul(P: CoeffMatrix, Q: CoeffMatrix) -> CoeffMatrix:
    """Exact matrix product.

    Each scaled row of P and column of Q carries the span [lo, hi) of
    its nonzero numerators, and each dot product runs only over the
    overlap of the two spans, an empty overlap giving 0 without one.
    The spans are read from the data: no entry of either factor is
    assumed zero.  Each output row is reduced over the products dP * dQ.
    """
    if P.cols != Q.rows:
        raise ValueError(f"dimension mismatch: {P.rows}x{P.cols} times {Q.rows}x{Q.cols}")
    qcols = list(map(_spanned, zip(*Q.nums), zip(*Q.dens)))
    qdens = [qden for _, qden, _, _ in qcols]
    rows = []
    for pnum, pden, plo, phi in map(_spanned, P.nums, P.dens):
        # the overlap [lo, hi) of the two spans, by comparisons rather than max/min calls
        dots = [sum(map(mul, pnum[lo:hi], qnum[lo:hi]))
                if (lo := plo if plo > qlo else qlo) < (hi := phi if phi < qhi else qhi) else 0
                for qnum, _, qlo, qhi in qcols]
        rows.append(_reduced(0, dots, list(map(mul, repeat(pden), qdens))))
    return CoeffMatrix._from_grids(*zip(*rows))


def _scaled(nums: tuple[int, ...], dens: tuple[int, ...]) -> tuple[list[int], int]:
    """Integer numerators of a vector over the lcm of its denominators, and that lcm."""
    den = lcm(*dens)
    if den == 1:
        return list(nums), 1
    return list(map(mul, nums, map(floordiv, repeat(den), dens))), den


def _spanned(nums: tuple[int, ...], dens: tuple[int, ...]) -> tuple[list[int], int, int, int]:
    """`_scaled(nums, dens)` and the span [lo, hi) of its nonzero numerators."""
    nonzero = bytes(map(bool, nums))
    hi = nonzero.rfind(1) + 1
    return *_scaled(nums, dens), nonzero.find(1) if hi else 0, hi


def _reduced(j: int, nums: list[int], dens: list[int]) -> tuple[tuple[int, ...], ...]:
    """(numerators, denominators) of j zeros, then of each nums[k] / dens[k] in lowest terms."""
    # gcd(0, d) = |d| makes a zero 0/1; a negative denominator divides by -gcd
    gs = list(map(gcd, nums, dens))
    if min(dens) < 0:
        gs = [-g if d < 0 else g for g, d in zip(gs, dens)]
    return (0,) * j + tuple(map(floordiv, nums, gs)), (1,) * j + tuple(map(floordiv, dens, gs))


def _from_columns(cols: list) -> CoeffMatrix:
    """The lower-triangular matrix whose reduced columns are `cols`."""
    nums, dens = zip(*cols)
    return CoeffMatrix._from_grids(tuple(zip(*nums)), tuple(zip(*dens)))
