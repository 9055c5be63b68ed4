"""Tests for the coefficient family, the matrix builder, and the
power-sum decomposition machinery."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import comb

import pytest

from ezbasis import coeffs
from ezbasis.coeffs import (
    CoeffMatrix,
    build_matrix_A,
    coeff_row,
    require_lower_triangular,
    split_A1_A2,
    tornheim_decomposition,
    verify_power_sum_identity,
)
from ezbasis.errors import SingularMatrixError
from ezbasis.trilinalg import invert_cofactor, invert_forward
from golden_values import A1_12, A2_12, A_12
from reference import matrix_from_json


def _padded(c, width):
    """Row c of the family, a_{c,1..width}, with the zeros past its band."""
    row = coeff_row(c)
    return row + (0,) * (width - len(row))


class TestCoeffA:
    def test_first_column(self):
        for c in range(1, 60):
            assert coeff_row(c)[0] == 1

    def test_early_rows(self):
        assert coeff_row(1) == (1,)
        assert coeff_row(2) == (1,)
        assert coeff_row(3)[1] == -2
        assert coeff_row(4)[1] == -3

    def test_pinned_values(self):
        assert coeff_row(7)[2] == 9
        assert coeff_row(8)[3] == -7
        assert coeff_row(11)[4] == 25
        assert coeff_row(12)[4] == 55
        assert coeff_row(12)[5] == -11

    def test_outside_band_is_zero(self):
        # the band stops at ceil(c/2), and the recurrence continued past
        # it gives zero, so nothing is cut off
        for c in range(1, 20):
            width = (c + 1) // 2
            assert len(coeff_row(c)) == width
            if c >= 4:
                prev, prev2 = _padded(c - 1, width + 5), _padded(c - 2, width + 5)
                for d in range(width + 1, width + 5):
                    assert prev[d - 1] - prev2[d - 2] == 0

    def test_recurrence(self):
        for c in range(4, 40):
            row = coeff_row(c)
            prev, prev2 = _padded(c - 1, len(row)), _padded(c - 2, len(row))
            for d in range(2, len(row) + 1):
                assert row[d - 1] == prev[d - 1] - prev2[d - 2]

    def test_bad_arguments(self):
        for c in (0, -1):
            with pytest.raises(ValueError):
                coeff_row(c)

    def test_coeff_row_is_the_band(self):
        assert coeff_row(12) == (1, -11, 44, -77, 55, -11)
        a = build_matrix_A(40)
        for c in range(1, 40):
            row = coeff_row(c)
            assert len(row) == (c + 1) // 2
            assert all(type(x) is int for x in row)
            assert a.entries[c - 1] == _padded(c, 20)
        with pytest.raises(ValueError):
            coeff_row(0)


class TestBuildMatrix:
    def test_size_12_matches_reference(self):
        m = build_matrix_A(12)
        assert m.rows == 12 and m.cols == 6
        for i in range(12):
            for j in range(6):
                assert m.entries[i][j] == A_12[i][j]

    def test_size_2(self):
        m = build_matrix_A(2)
        assert m.entries == ((F(1),), (F(1),))

    def test_odd_size_floors(self):
        # N and N+1 give the same matrix for even N
        assert build_matrix_A(13) == build_matrix_A(12)
        assert build_matrix_A(13).rows == 12

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_matrix_A(1)

    def test_extension_is_consistent(self):
        small = build_matrix_A(8)
        big = build_matrix_A(10)
        for i in range(8):
            for j in range(4):
                assert small.entries[i][j] == big.entries[i][j]


class TestSplit:
    def test_golden_split(self):
        a1, a2 = split_A1_A2(build_matrix_A(12))
        for i in range(6):
            for j in range(6):
                assert a1.entries[i][j] == A1_12[i][j]
                assert a2.entries[i][j] == A2_12[i][j]

    def test_diagonals(self):
        a1, a2 = split_A1_A2(build_matrix_A(40))
        for i in range(20):
            expected_odd = F(1) if i == 0 else F(2) * (-1) ** i
            assert a1.entries[i][i] == expected_odd
            assert a2.entries[i][i] == (-1) ** i * (2 * i + 1)

    def test_large_diagonals_exact(self):
        a1, a2 = split_A1_A2(build_matrix_A(400))
        assert a1.entries[199][199] == -2
        assert a2.entries[199][199] == -399

    def test_odd_row_count_rejected(self):
        bad = CoeffMatrix.from_rows([[F(1)], [F(1)], [F(1)]])
        with pytest.raises(ValueError):
            split_A1_A2(bad)


class TestCoeffMatrix:
    def test_identity(self):
        m = CoeffMatrix.identity(3)
        assert m.entries == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        )

    def test_lower_triangular_detection(self):
        require_lower_triangular(CoeffMatrix.from_rows([[1, 0], [2, 3]]))
        with pytest.raises(ValueError):
            require_lower_triangular(CoeffMatrix.from_rows([[1, 5], [2, 3]]))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            CoeffMatrix.from_rows([[1, 0], [2]])

    def test_json_round_trip(self):
        m = build_matrix_A(8)
        again = matrix_from_json(m.to_json_dict())
        assert again == m

    def test_json_round_trip_redetects_triangular(self):
        a1, _ = split_A1_A2(build_matrix_A(8))
        again = matrix_from_json(a1.to_json_dict())
        assert again == a1
        require_lower_triangular(again)

    @pytest.mark.parametrize("entry", [1, None, [], "1/0"])
    def test_json_bad_entry_is_value_error(self, entry):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [[entry]]})

    def test_to_latex(self):
        m = CoeffMatrix.from_rows([[1, 0], [F(-1, 2), 3]])
        text = m.to_latex()
        assert text.startswith("\\begin{pmatrix}")
        assert "-1/2 & 3" in text
        assert text.endswith("\\end{pmatrix}")

    def test_to_text_alignment(self):
        lines = build_matrix_A(6).to_text().splitlines()
        assert len(lines) == 6
        widths = {len(line) for line in lines}
        assert len(widths) == 1


# The one triangularity check, reached through every caller that runs it.
_SPLIT = pytest.param(lambda m: split_A1_A2(_stacked(m)), id="split_A1_A2")
_INVERSIONS = [
    pytest.param(invert_forward, id="invert_forward"),
    pytest.param(invert_cofactor, id="invert_cofactor"),
]


def _stacked(m: CoeffMatrix) -> CoeffMatrix:
    """A 2k x k matrix whose odd rows are m and whose even rows are identity rows."""
    eye = CoeffMatrix.identity(m.rows).entries
    return CoeffMatrix.from_rows(r for pair in zip(m.entries, eye) for r in pair)


class TestTriangularCheck:
    @pytest.mark.parametrize("reject", _INVERSIONS)
    def test_rejects_non_square(self, reject):
        with pytest.raises(ValueError, match="square"):
            reject(CoeffMatrix.from_rows([[F(1)], [F(2)]]))

    @pytest.mark.parametrize("reject", [_SPLIT, *_INVERSIONS])
    def test_rejects_entry_above_diagonal(self, reject):
        m = CoeffMatrix.from_rows([[F(1), F(7)], [F(2), F(1)]])
        with pytest.raises(ValueError, match="above the diagonal") as exc:
            reject(m)
        assert not isinstance(exc.value, SingularMatrixError)

    @pytest.mark.parametrize("reject", [_SPLIT, *_INVERSIONS])
    def test_rejects_zero_diagonal(self, reject):
        with pytest.raises(SingularMatrixError):
            reject(CoeffMatrix.from_rows([[F(1), F(0)], [F(2), F(0)]]))


class TestPowerSumDecomposition:
    def test_small_cases(self):
        # m + n = (m+n):  row 2 is (1)
        assert coeff_row(2) == (1,)
        # m^3 + n^3 = (m+n)^3 - 3mn(m+n):  row 4 is (1, -3)
        assert coeff_row(4) == (1, -3)

    def test_identity_by_evaluation(self):
        rng = random.Random(5150123)
        for e in range(1, 61):
            coeffs = coeff_row(e + 1)
            for _ in range(50):
                m = F(rng.randint(1, 1000))
                n = F(rng.randint(1, 1000))
                rhs = sum(
                    w * (m * n) ** (d - 1) * (m + n) ** (e + 2 - 2 * d)
                    for d, w in enumerate(coeffs, start=1)
                    if w != 0
                )
                assert m**e + n**e == rhs


class TestVerifyPowerSum:
    def test_clean_run(self):
        report = verify_power_sum_identity(11)
        assert report.ok
        assert report.e_max == 11
        assert report.checked == 11
        assert report.failures == ()

    def test_minimal_run(self):
        assert verify_power_sum_identity(1).ok

    def test_corrupted_coefficient_is_reported(self, monkeypatch):
        # a_{7,2} decomposes m^6 + n^6; the rows past it are already
        # built, so the corruption reaches exponent 6 and no other
        coeffs.coeff_row(12)
        rows = list(coeffs._coeff_rows)
        rows[6] = [rows[6][0], rows[6][1] + 1] + rows[6][2:]
        monkeypatch.setattr(coeffs, "_coeff_rows", rows)
        report = verify_power_sum_identity(11)
        assert not report.ok
        assert report.failures == (6,)

    def test_bad_argument(self):
        with pytest.raises(ValueError):
            verify_power_sum_identity(0)

    def test_entry_past_the_width_is_reported(self, monkeypatch):
        # row 8 (e = 7) has ceil(8/2) = 4 entries; a fifth would multiply
        # (m+n)^(-1), so the row cannot be a polynomial decomposition
        coeff_row(12)
        rows = list(coeffs._coeff_rows)
        rows[7] = rows[7] + [1]
        monkeypatch.setattr(coeffs, "_coeff_rows", rows)
        assert verify_power_sum_identity(11).failures == (7,)


# the Kronecker evaluation against the coefficient-vector check it replaced


def _power_sum_reference(e_max):
    """Failing exponents by comparing integer coefficient vectors of m^i n^(e-i)."""
    failures = []
    for e in range(1, e_max + 1):
        acc = [0] * (e + 1)
        for d, coef in enumerate(coeffs._coeff_rows[e], start=1):
            p = e - 2 * d + 2
            for t in range(p + 1):
                acc[d - 1 + t] += coef * comb(p, t)
        if acc != [1] + [0] * (e - 1) + [1]:
            failures.append(e)
    return tuple(failures)


# (e, d): entry a_{e+1,d}, first, interior and last columns, odd and even e
_CORRUPTED_ENTRIES = [(1, 1), (2, 2), (7, 2), (33, 17), (50, 4), (64, 20), (99, 50), (120, 61)]


def _corruptions(a):
    yield a + 1
    yield a - 1
    yield -a
    for j in (1, 7, 64, 200):
        yield a + (1 << j)
        yield a - (1 << j)


class TestPowerSumAgainstCoefficientVectors:
    def test_intact_rows_to_120(self):
        report = verify_power_sum_identity(120)
        assert report.failures == _power_sum_reference(120) == ()

    @pytest.mark.parametrize("e, d", _CORRUPTED_ENTRIES)
    def test_single_entry_corruptions(self, monkeypatch, e, d):
        coeff_row(e + 4)
        intact = coeffs._coeff_rows
        for bad in _corruptions(intact[e][d - 1]):
            rows = list(intact)
            rows[e] = intact[e][: d - 1] + [bad] + intact[e][d:]
            monkeypatch.setattr(coeffs, "_coeff_rows", rows)
            got = verify_power_sum_identity(e + 2).failures
            assert got == _power_sum_reference(e + 2)
            assert got == (e,) or bad == intact[e][d - 1]


class TestTornheimDecomposition:
    def test_c_zero_is_halved_row_one(self):
        assert tornheim_decomposition(0) == (F(1, 2),)

    def test_c_two_is_halved_row_three(self):
        # m^2 + n^2 = (m+n)^2 - 2mn, then halve
        assert tornheim_decomposition(2) == (F(1, 2), F(-1))

    def test_c_eleven_is_halved_row_twelve(self):
        expected = tuple(F(x, 2) for x in (1, -11, 44, -77, 55, -11))
        assert tornheim_decomposition(11) == expected

    def test_width_check(self):
        # row c+1 of the family has ceil((c+1)/2) entries
        for c in range(40):
            assert len(tornheim_decomposition(c)) == (c + 2) // 2
        with pytest.raises(ValueError):
            tornheim_decomposition(-1)
