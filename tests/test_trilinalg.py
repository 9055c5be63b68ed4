"""Tests for exact triangular inversion and determinant minors."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd

import pytest

from ezbasis import trilinalg
from ezbasis.coeffs import ONE, ZERO, CoeffMatrix, build_matrix_A, split_A1_A2
from ezbasis.errors import SingularMatrixError
from ezbasis.trilinalg import invert_cofactor, invert_forward, mat_mul
from golden_values import A1_INV_12, A2_INV_12
from reference import det_Dij, row_sums


def _random_lower_triangular(rng: random.Random, n: int) -> CoeffMatrix:
    rows = []
    for i in range(n):
        row = [
            F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(i)
        ]
        diag = F(0)
        while diag == 0:
            diag = F(rng.randint(-50, 50), rng.randint(1, 20))
        rows.append(row + [diag] + [F(0)] * (n - i - 1))
    return CoeffMatrix.from_rows(rows)


class TestInvertForward:
    def test_golden_a1_inverse(self):
        a1, _ = split_A1_A2(build_matrix_A(12))
        inv = invert_forward(a1)
        for i in range(6):
            for j in range(6):
                assert inv.entries[i][j] == A1_INV_12[i][j]

    def test_golden_a2_inverse(self):
        _, a2 = split_A1_A2(build_matrix_A(12))
        inv = invert_forward(a2)
        for i in range(6):
            for j in range(6):
                assert inv.entries[i][j] == A2_INV_12[i][j]

    def test_identity(self):
        eye = CoeffMatrix.identity(5)
        assert invert_forward(eye) == eye

    def test_one_by_one(self):
        m = CoeffMatrix.from_rows([[F(-2, 7)]])
        assert invert_forward(m).entries[0][0] == F(-7, 2)

    def test_round_trip_random(self):
        rng = random.Random(77123)
        for _ in range(20):
            n = rng.randint(1, 12)
            m = _random_lower_triangular(rng, n)
            inv = invert_forward(m)
            assert mat_mul(m, inv) == CoeffMatrix.identity(n)
            assert mat_mul(inv, m) == CoeffMatrix.identity(n)

    def test_rejects_non_square(self):
        m = CoeffMatrix.from_rows([[F(1), F(0)]])
        with pytest.raises(ValueError):
            invert_forward(m)

    def test_rejects_non_triangular(self):
        m = CoeffMatrix.from_rows([[F(1), F(5)], [F(0), F(1)]])
        with pytest.raises(ValueError):
            invert_forward(m)

    def test_rejects_singular(self):
        m = CoeffMatrix.from_rows([[F(1), F(0)], [F(3), F(0)]])
        with pytest.raises(SingularMatrixError):
            invert_forward(m)

    def test_singular_is_value_error(self):
        assert issubclass(SingularMatrixError, ValueError)


class TestInvertCofactor:
    def test_agrees_with_forward_on_golden(self):
        a1, a2 = split_A1_A2(build_matrix_A(12))
        assert invert_cofactor(a1) == invert_forward(a1)
        assert invert_cofactor(a2) == invert_forward(a2)

    def test_agrees_with_forward_random(self):
        rng = random.Random(424211)
        for _ in range(15):
            n = rng.randint(1, 12)
            m = _random_lower_triangular(rng, n)
            assert invert_cofactor(m) == invert_forward(m)

    def test_one_by_one(self):
        m = CoeffMatrix.from_rows([[F(5)]])
        assert invert_cofactor(m).entries[0][0] == F(1, 5)

    def test_pinned_row(self):
        a1, _ = split_A1_A2(build_matrix_A(12))
        inv = invert_cofactor(a1)
        assert inv.entries[5] == (
            F(227, 4), F(-140), F(115), F(-75, 2), F(25, 4), F(-1, 2),
        )

    def test_rejects_singular(self):
        m = CoeffMatrix.from_rows([[F(0)]])
        with pytest.raises(SingularMatrixError):
            invert_cofactor(m)


@pytest.mark.parametrize("invert", [invert_forward, invert_cofactor])
class TestIntegerKernels:
    """Edge cases of the integer-scaled rows both inversions run on."""

    @staticmethod
    def _check(invert, rows, expected):
        m = CoeffMatrix.from_rows(rows)
        inv = invert(m)
        assert inv.entries == tuple(tuple(F(x) for x in row) for row in expected)
        for row in inv.entries:
            for x in row:
                assert type(x) is F
                assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        assert mat_mul(m, inv) == CoeffMatrix.identity(m.rows)

    def test_one_by_one(self, invert):
        self._check(invert, [[F(-4, 6)]], [[F(-3, 2)]])

    def test_negative_diagonal(self, invert):
        self._check(invert, [[-3, 0], [5, -2]], [[F(-1, 3), 0], [F(-5, 6), F(-1, 2)]])

    def test_mixed_denominators(self, invert):
        # rows 2 and 3 share denominator factors: lcms 20 and 72, not 40 and 1728
        rows = [
            [F(1, 6), 0, 0],
            [F(1, 4), F(1, 10), 0],
            [F(3, 8), F(5, 12), F(-7, 18)],
        ]
        expected = [[6, 0, 0], [-15, 10, 0], [F(-72, 7), F(75, 7), F(-18, 7)]]
        self._check(invert, rows, expected)

    def test_zero_partial_sum(self, invert):
        # column 1 of the inverse hits 4*(1/2) + 3*(-2/3) = 0 at row 3
        rows = [[2, 0, 0, 0], [4, 3, 0, 0], [4, 3, 7, 0], [1, 1, 1, 5]]
        expected = [
            [F(1, 2), 0, 0, 0],
            [F(-2, 3), F(1, 3), 0, 0],
            [0, F(-1, 7), F(1, 7), 0],
            [F(1, 30), F(-4, 105), F(-1, 35), F(1, 5)],
        ]
        self._check(invert, rows, expected)


def test_cofactor_does_not_use_forward(monkeypatch):
    def forbidden(M):
        raise AssertionError("invert_cofactor must not call invert_forward")

    monkeypatch.setattr(trilinalg, "invert_forward", forbidden)
    a1, a2 = split_A1_A2(build_matrix_A(12))
    assert invert_cofactor(a1).entries == tuple(tuple(row) for row in A1_INV_12)
    assert invert_cofactor(a2).entries == tuple(tuple(row) for row in A2_INV_12)


class TestDetDij:
    def test_adjacent_minor_is_entry(self):
        a1, a2 = split_A1_A2(build_matrix_A(12))
        for m in (a1, a2):
            for i in range(2, 7):
                assert det_Dij(m, i, i - 1) == m.entries[i - 1][i - 2]

    def test_small_explicit(self):
        # D_{3,1} of A1(12): rows 2..3, columns 1..2
        # | 1  -2 |
        # | 1  -4 |  = -2
        a1, _ = split_A1_A2(build_matrix_A(12))
        assert det_Dij(a1, 3, 1) == -2

    def test_matches_cofactor_inverse(self):
        # inv[i][j] = (-1)^(i-j) D_{i,j} / prod(diag j..i)
        a1, a2 = split_A1_A2(build_matrix_A(12))
        for m in (a1, a2):
            inv = invert_cofactor(m)
            for i in range(1, 7):
                for j in range(1, i):
                    denom = F(1)
                    for t in range(j, i + 1):
                        denom *= m.entries[t - 1][t - 1]
                    expected = (-1) ** (i - j) * det_Dij(m, i, j) / denom
                    assert inv.entries[i - 1][j - 1] == expected

    def test_fractional_entries(self):
        m = CoeffMatrix.from_rows([
            [F(1, 2), F(0)],
            [F(1, 3), F(1, 5)],
        ])
        assert det_Dij(m, 2, 1) == F(1, 3)

    def test_zero_minor(self):
        m = CoeffMatrix.from_rows([
            [F(1), F(0), F(0)],
            [F(0), F(1), F(0)],
            [F(0), F(5), F(1)],
        ])
        assert det_Dij(m, 3, 1) == 0

    def test_allows_zero_diagonal(self):
        # only the shape is required; singularity is irrelevant here
        m = CoeffMatrix.from_rows([
            [F(0), F(0)],
            [F(7), F(0)],
        ])
        assert det_Dij(m, 2, 1) == 7

    def test_bad_indices(self):
        a1, _ = split_A1_A2(build_matrix_A(8))
        for i, j in ((1, 1), (2, 2), (1, 2), (5, 0), (9, 1)):
            with pytest.raises(ValueError):
                det_Dij(a1, i, j)


class TestMatMul:
    def test_identity_neutral(self):
        a1, _ = split_A1_A2(build_matrix_A(10))
        eye = CoeffMatrix.identity(5)
        assert mat_mul(a1, eye) == a1
        assert mat_mul(eye, a1) == a1

    def test_ratio_matrix_diagonal(self):
        # diag(A2 A1^-1) = (1, 3/2, 5/2, 7/2, 9/2, 11/2)
        a1, a2 = split_A1_A2(build_matrix_A(12))
        ratio = mat_mul(a2, invert_forward(a1))
        diag = tuple(ratio.entries[i][i] for i in range(6))
        assert diag == (F(1), F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2))

    def test_rectangular(self):
        p = CoeffMatrix.from_rows([[1, 2, 3]])
        q = CoeffMatrix.from_rows([[1], [1], [1]])
        assert mat_mul(p, q).entries == ((F(6),),)

    def test_dimension_mismatch(self):
        p = CoeffMatrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            mat_mul(p, p)

    def test_dense_rectangular_against_triple_loop(self):
        rng = random.Random(17)
        p = _random_dense(rng, 3, 5)
        q = _random_dense(rng, 5, 4)
        # an all-zero row of P and an all-zero column of Q
        p = CoeffMatrix.from_rows([p.entries[0], [F(0)] * 5, p.entries[2]])
        q = CoeffMatrix.from_rows([row[:2] + (F(0),) + row[3:] for row in q.entries])
        prod = mat_mul(p, q)
        assert (prod.rows, prod.cols) == (3, 4)
        assert prod.entries == _mat_mul_reference(p, q)
        zeros = [prod.entries[1][j] for j in range(4)] + [prod.entries[i][2] for i in range(3)]
        assert all(x == F(0) and type(x) is F for x in zeros)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_square_against_triple_loop(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        p = _random_dense(rng, n, n)
        q = _random_dense(rng, n, n)
        prod = mat_mul(p, q)
        assert prod.entries == _mat_mul_reference(p, q)
        assert all(type(x) is F for row in prod.entries for x in row)

    def test_products_that_cancel_to_zero(self):
        # nonzero factors whose dot products vanish
        p = CoeffMatrix.from_rows([[F(1, 2), F(1, 3)], [F(2, 3), F(-1, 2)]])
        q = CoeffMatrix.from_rows([[F(2, 3), F(-1, 3)], [F(-1), F(1, 2)]])
        prod = mat_mul(p, q)
        assert prod.entries == _mat_mul_reference(p, q)
        assert prod.entries[0][0] == F(0) and prod.entries[0][1] == F(0)


def _random_dense(rng: random.Random, rows: int, cols: int) -> CoeffMatrix:
    """Random rationals, about a fifth of them zero, with no triangular shape."""
    return CoeffMatrix.from_rows(
        [
            [F(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() > 0.2 else F(0)
             for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def _mat_mul_reference(p: CoeffMatrix, q: CoeffMatrix):
    """The naive Fraction triple loop."""
    out = []
    for i in range(p.rows):
        row = []
        for j in range(q.cols):
            acc = F(0)
            for k in range(p.cols):
                acc += p.entries[i][k] * q.entries[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def test_zero_entries_are_the_shared_zero():
    # entries above the diagonal compare by identity
    m = _random_lower_triangular(random.Random(3), 6)
    for grid in (invert_forward(m), invert_cofactor(m), CoeffMatrix.identity(6)):
        assert all(grid.entries[i][j] is ZERO for i in range(6) for j in range(i + 1, 6))
    assert all(CoeffMatrix.identity(6).entries[i][i] is ONE for i in range(6))


class TestRowSums:
    def test_inverse_row_sums(self):
        # row sums of A1^-1 and A2^-1 are (1, 0, 0, ...)
        for N in range(2, 61, 2):
            a1, a2 = split_A1_A2(build_matrix_A(N))
            for m in (a1, a2):
                sums = row_sums(invert_forward(m))
                assert sums[0] == 1
                assert all(s == 0 for s in sums[1:])

    def test_plain_sums(self):
        m = CoeffMatrix.from_rows([[1, 2], [3, -4]])
        assert row_sums(m) == (F(3), F(-1))
