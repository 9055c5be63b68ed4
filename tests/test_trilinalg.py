"""Tests for exact triangular inversion and determinant minors."""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction as F
from math import gcd

import pytest

from ezbasis import cli, trilinalg
from ezbasis.coeffs import ONE, ZERO, CoeffMatrix, build_matrix_A, split_A1_A2
from ezbasis.errors import SingularMatrixError
from ezbasis.trilinalg import invert_cofactor, invert_forward, mat_mul
from golden_values import A1_INV_12, A2_INV_12
from reference import _bareiss_det, det_Dij, row_sums
from test_coeffs import assert_canonical


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


class TestCofactorSigns:
    """The cofactor recurrence carries (-1)^c into its partial minors;
    negative diagonals and zero subdiagonal entries pin every sign."""

    @staticmethod
    def _signed_integer_matrix(rng: random.Random, n: int) -> CoeffMatrix:
        rows = []
        for i in range(n):
            row = [rng.randint(-9, 9) if rng.random() > 0.3 else 0 for _ in range(i)]
            if i and rng.random() < 0.5:
                row[i - 1] = 0
            diag = -rng.randint(1, 9) if rng.random() < 0.8 else rng.randint(2, 9)
            rows.append(row + [diag] + [0] * (n - i - 1))
        return CoeffMatrix.from_rows(rows)

    def test_minors_against_bareiss(self):
        rng = random.Random(20251019)
        for n in [1, 2, 3, 5, 8, 50] + [rng.randint(9, 50) for _ in range(6)]:
            m = self._signed_integer_matrix(rng, n)
            a = [[int(x) for x in row] for row in m.entries]
            inv = invert_cofactor(m)
            if n <= 8:
                pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
            else:
                pairs = [(n, 1), (n, n - 1), (2, 1), (n, n // 2)]
                pairs += [(i, rng.randint(1, i - 1)) for i in rng.sample(range(2, n + 1), 6)]
            for i, j in pairs:
                # D_{i,j}: rows j+1..i and columns j..i-1, 1-indexed
                minor = _bareiss_det([row[j - 1:i - 1] for row in a[j:i]], i - j)
                denom = 1
                for t in range(j - 1, i):
                    denom *= a[t][t]
                assert inv.entries[i - 1][j - 1] == F((-1) ** (i - j) * minor, denom)

    def test_zero_subdiagonal_and_negative_diagonal(self):
        # a_{2,1} = a_{3,2} = 0: only the a_{3,1} term reaches D_{3,1}
        m = CoeffMatrix.from_rows([[-2, 0, 0], [0, -3, 0], [5, 0, -7]])
        inv = invert_cofactor(m)
        assert inv.entries == (
            (F(-1, 2), ZERO, ZERO),
            (ZERO, F(-1, 3), ZERO),
            (F(-5, 14), ZERO, F(-1, 7)),
        )

    def test_computed_zeros_are_the_shared_zero(self):
        # entries (2, 1) and (3, 2) are computed below the diagonal and vanish
        m = CoeffMatrix.from_rows([[-2, 0, 0], [0, -3, 0], [5, 0, -7]])
        for inv in (invert_forward(m), invert_cofactor(m)):
            assert inv.entries[1][0] is ZERO
            assert inv.entries[2][1] is ZERO
            assert inv.entries[2][0] == F(-5, 14)


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

    def test_span_edge_cases_against_triple_loop(self):
        rng = random.Random(29)
        dense = _random_dense(rng, 6, 6)
        upper = _masked(dense, lambda i, j: j >= i)
        lower = _masked(dense, lambda i, j: j <= i)
        strict = _masked(_random_dense(rng, 6, 6), lambda i, j: j < i)
        zero_row = _masked(dense, lambda i, j: i != 2)
        zero_col = _masked(dense, lambda i, j: j != 4)
        # zeros inside every span: a nonzero border around a zero interior
        holes = _masked(_full(rng, 6, 6), lambda i, j: i in (0, 5) or j in (0, 5))
        cases = [
            (lower, lower), (upper, upper),  # spans disjoint above/below the diagonal
            (upper, lower), (lower, upper),  # spans overlap in part
            (strict, strict), (strict, upper),
            (zero_row, dense), (dense, zero_col), (zero_row, zero_col),
            (holes, holes), (holes, dense),
            (CoeffMatrix.from_rows([[0]]), CoeffMatrix.from_rows([[0]])),
            (CoeffMatrix.from_rows([[0]]), CoeffMatrix.from_rows([[F(3, 4)]])),
            (_random_dense(rng, 2, 7), _masked(_random_dense(rng, 7, 3), lambda i, j: i > 3)),
            (_masked(_random_dense(rng, 4, 3), lambda i, j: j < 1), _random_dense(rng, 3, 5)),
        ]
        for p, q in cases:
            prod = mat_mul(p, q)
            assert prod.entries == _mat_mul_reference(p, q)
            assert all(x is ZERO for row in prod.entries for x in row if not x)
            assert all(type(x) is F for row in prod.entries for x in row)

    def test_disjoint_spans_give_the_shared_zero(self):
        # row i of a strictly upper factor starts at column i+1 and its
        # column j ends at row j-1, so the spans of (i, j) miss for j <= i+1
        u = CoeffMatrix.from_rows(
            [[F(i + j + 1, j + 1) if j > i else 0 for j in range(7)] for i in range(7)]
        )
        prod = mat_mul(u, u)
        assert prod.entries == _mat_mul_reference(u, u)
        assert all(prod.entries[i][j] is ZERO for i in range(7) for j in range(min(i + 2, 7)))
        assert all(prod.entries[i][j] > 0 for i in range(7) for j in range(i + 2, 7))

    def test_spans(self):
        # (numerators, denominators) of (0, 1/2, 0, 3, 0), (5/3,) and (0, 0)
        assert trilinalg._spanned((0, 1, 0, 3, 0), (1, 2, 1, 1, 1)) == ([0, 1, 0, 6, 0], 2, 1, 4)
        assert trilinalg._spanned((5,), (3,)) == ([5], 3, 0, 1)
        assert trilinalg._spanned((0, 0), (1, 1)) == ([0, 0], 1, 0, 0)

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


def _full(rng: random.Random, rows: int, cols: int) -> CoeffMatrix:
    """Random rationals, none of them zero."""
    return CoeffMatrix.from_rows(
        [[F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12)) for _ in range(cols)]
         for _ in range(rows)]
    )


def _masked(m: CoeffMatrix, keep) -> CoeffMatrix:
    """m with entry (i, j) replaced by a fresh zero wherever keep(i, j) is false."""
    return CoeffMatrix.from_rows(
        [[x if keep(i, j) else F(0) for j, x in enumerate(row)] for i, row in enumerate(m.entries)]
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


class TestIntegerGrids:
    """The kernels' outputs are canonical grids, reduced by one shared reducer."""

    def test_kernel_outputs_are_canonical(self):
        rng = random.Random(90210)
        a1, a2 = split_A1_A2(build_matrix_A(60))
        cases = [a1, a2, CoeffMatrix.identity(4)]
        cases += [_random_lower_triangular(rng, rng.randint(1, 14)) for _ in range(8)]
        cases += [TestCofactorSigns._signed_integer_matrix(rng, 12) for _ in range(4)]
        for m in cases:
            fwd, cof = invert_forward(m), invert_cofactor(m)
            for out in (fwd, cof, mat_mul(m, fwd), mat_mul(fwd, m)):
                assert_canonical(out)
            assert fwd.nums == cof.nums and fwd.dens == cof.dens
        p, q = _random_dense(rng, 4, 6), _random_dense(rng, 6, 3)
        assert_canonical(mat_mul(p, q))

    def test_reducer_matches_fraction(self):
        rng = random.Random(31337)
        for _ in range(300):
            size, lead = rng.randint(1, 12), rng.randint(0, 3)
            nums = [rng.choice([0, rng.randint(-10**30, 10**30), rng.randint(-50, 50)])
                    for _ in range(size)]
            dens = [rng.choice([-1, 1])
                    * rng.choice([1, rng.randint(1, 10**25), rng.randint(1, 60)])
                    for _ in range(size)]
            got_n, got_d = trilinalg._reduced(lead, nums, dens)
            want = [F(0)] * lead + [F(n, d) for n, d in zip(nums, dens)]
            assert list(got_n) == [x.numerator for x in want]
            assert list(got_d) == [x.denominator for x in want]
            assert type(got_n) is tuple and type(got_d) is tuple


def _fraction_news(work) -> int:
    """How many times `work()` enters Fraction.__new__, counted by a profile hook."""
    code = F.__new__.__code__
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


class TestNoFractionPerEntry:
    """The matrix path builds no Fraction: a refactor that brings back
    per-entry normalisation fails here before it shows in a timing."""

    def test_the_counter_counts(self):
        m = _random_lower_triangular(random.Random(5), 4)
        assert _fraction_news(lambda: F(3, 6)) == 1
        assert _fraction_news(lambda: invert_forward(m).entries) > 0

    def test_invert_oracle_command(self):
        def work():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.run(["invert", "--n", "40", "--which", "a2", "--oracle",
                                "--format", "json"])
            assert code == 0 and out.getvalue().startswith("{")

        assert _fraction_news(work) == 0

    def test_kernels_on_a_prebuilt_matrix(self):
        rng = random.Random(2718)
        m, dense = _random_lower_triangular(rng, 20), _random_dense(rng, 20, 7)

        def work():
            fwd = invert_forward(m)
            assert invert_cofactor(m) == fwd
            assert mat_mul(m, fwd) == CoeffMatrix.identity(20)
            assert mat_mul(fwd, dense).rows == 20

        assert _fraction_news(work) == 0
