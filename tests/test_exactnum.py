"""Tests for the exact rational arithmetic helpers."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest

import ezbasis.exactnum as exactnum
from ezbasis.exactnum import bernoulli, faulhaber, rat_to_str
from reference import gen_binomial, matrix_from_json, zeta_neg


def _parse_entry(s):
    """One entry parsed the way the CLI round-trip tests parse `--format json`."""
    return matrix_from_json({"rows": 1, "cols": 1, "entries": [[s]]}).entries[0][0]


class TestStringConversion:
    def test_to_str(self):
        assert rat_to_str(F(-3, 7)) == "-3/7"
        assert rat_to_str(F(5)) == "5"
        assert rat_to_str(F(0)) == "0"
        assert rat_to_str(F(4, 2)) == "2"

    def test_from_str(self):
        assert _parse_entry("-3/7") == F(-3, 7)
        assert _parse_entry("  5 ") == F(5)
        assert _parse_entry("10/4") == F(5, 2)

    def test_round_trip(self):
        rng = random.Random(20240814)
        for _ in range(200):
            q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert _parse_entry(rat_to_str(q)) == q

    def test_from_str_rejects_garbage(self):
        for bad in ("", "one", "3/7/2", "1.5.2", "1/0", 1, None, []):
            with pytest.raises(ValueError):
                _parse_entry(bad)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)
        assert bernoulli(8) == F(-1, 30)
        assert bernoulli(10) == F(5, 66)
        assert bernoulli(12) == F(-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 41, 2):
            assert bernoulli(n) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_recurrence_holds(self):
        # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
        for n in range(1, 30):
            total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
            assert total == 0


class TestZetaNeg:
    def test_known_values(self):
        assert zeta_neg(0) == F(-1, 2)
        assert zeta_neg(1) == F(-1, 12)
        assert zeta_neg(2) == 0
        assert zeta_neg(3) == F(1, 120)
        assert zeta_neg(5) == F(-1, 252)
        assert zeta_neg(7) == F(1, 240)
        assert zeta_neg(9) == F(-1, 132)
        assert zeta_neg(11) == F(691, 32760)
        assert zeta_neg(15) == F(3617, 8160)

    def test_even_arguments_vanish(self):
        for k in range(2, 51, 2):
            assert zeta_neg(k) == 0

    def test_matches_bernoulli(self):
        for k in range(1, 50):
            assert zeta_neg(k) == -bernoulli(k + 1) / (k + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zeta_neg(-1)


class TestGenBinomial:
    def test_nonnegative_integer_upper(self):
        for n in range(8):
            for k in range(8):
                expected = comb(n, k) if k <= n else 0
                assert gen_binomial(F(n), k) == expected

    def test_integer_top_matches_falling_factorial(self):
        # reference written out here: the integer branch itself uses comb
        for x in range(-80, 80):
            for k in range(50):
                falling = 1
                for i in range(k):
                    falling *= x - i
                expected = F(falling, factorial(k))
                for top in (x, F(x)):
                    got = gen_binomial(top, k)
                    assert type(got) is F
                    assert got == expected

    def test_negative_upper(self):
        assert gen_binomial(F(-1), 3) == -1
        assert gen_binomial(F(-2), 1) == -2
        assert gen_binomial(F(-2), 3) == -4
        assert gen_binomial(F(-4), 5) == -56

    def test_fractional_upper(self):
        assert gen_binomial(F(1, 2), 2) == F(-1, 8)
        assert gen_binomial(F(1, 2), 3) == F(1, 16)

    def test_k_zero(self):
        assert gen_binomial(F(-7, 3), 0) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            gen_binomial(F(1), -1)

    def test_pascal_rule(self):
        # C(x,k) = C(x-1,k-1) + C(x-1,k) for arbitrary rational x
        rng = random.Random(99173)
        for _ in range(100):
            x = F(rng.randint(-50, 50), rng.randint(1, 20))
            k = rng.randint(1, 12)
            assert gen_binomial(x, k) == (
                gen_binomial(x - 1, k - 1) + gen_binomial(x - 1, k)
            )


class TestFaulhaber:
    def test_degree_zero(self):
        p = faulhaber(0)
        assert p == (F(1), F(-1))
        assert _horner_reference(p, F(5)) == 4

    def test_degree_one(self):
        # sum_{m<n} m = n(n-1)/2
        assert faulhaber(1) == (F(1, 2), F(-1, 2), F(0))

    def test_degree_two(self):
        # sum_{m<n} m^2 = n^3/3 - n^2/2 + n/6
        assert faulhaber(2) == (F(1, 3), F(-1, 2), F(1, 6), F(0))

    def test_degree_three(self):
        assert faulhaber(3) == (F(1, 4), F(-1, 2), F(1, 4), F(0), F(0))

    def test_matches_brute_force(self):
        for c in range(31):
            p = faulhaber(c)
            for n in (1, 2, 3, 7, 50):
                assert _horner_reference(p, F(n)) == sum(m**c for m in range(1, n))

    def test_leading_coefficient(self):
        for c in range(20):
            assert faulhaber(c)[0] == F(1, c + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            faulhaber(-1)


# ---------------------------------------------------------------------------
# the integer kernels against the plain Fraction loops they replaced


def _bernoulli_reference(n):
    table = [F(1), F(-1, 2)]
    for m in range(2, n + 1):
        acc = F(0)
        for k in range(m):
            acc += comb(m + 1, k) * table[k]
        table.append(-acc / (m + 1))
    return table[: n + 1]


def _faulhaber_reference(c):
    coeffs = [F(0)] * (c + 2)
    for i in range(c + 1):
        coeffs[i] = F(comb(c + 1, i)) * _BERN_REF[i] / (c + 1)
    if c == 0:
        coeffs[1] -= 1
    return tuple(coeffs)


def _horner_reference(coeffs, n):
    acc = F(0)
    for coef in coeffs:
        acc = acc * n + coef
    return acc


_BERN_REF = _bernoulli_reference(200)


class TestIntegerKernels:
    @pytest.mark.parametrize("stops", [(200,), (1, 2, 3, 50, 51, 200)])
    def test_bernoulli_cold_fill_matches_fraction_recurrence(self, monkeypatch, stops):
        # a fresh table, filled in one go or in steps that resume from
        # a partial table whose common denominator must then grow
        monkeypatch.setattr(exactnum, "_bern", (2, [2, -1], [1, 3, 3, 1]))
        for n in stops:
            assert bernoulli(n) == _BERN_REF[n]
        got = [bernoulli(n) for n in range(201)]
        assert got == _BERN_REF
        assert all(type(b) is F for b in got)
        # the one denominator is the lcm of the reduced ones, not a multiple
        assert exactnum._bernoulli_ints(200)[0] == lcm(*(b.denominator for b in got))

    def test_bernoulli_fill_carries_the_pascal_row(self, monkeypatch):
        # the table carries its Pascal row, so math.comb builds none:
        # every row is added up, also across fills that walk upwards
        calls = []

        def counted(n, k):
            calls.append((n, k))
            return comb(n, k)

        monkeypatch.setattr(exactnum, "_bern", (2, [2, -1], [1, 3, 3, 1]))
        monkeypatch.setattr(exactnum, "comb", counted, raising=False)
        assert bernoulli(100) == _BERN_REF[100]
        for n in range(101, 201):
            assert bernoulli(n) == _BERN_REF[n]
        assert [bernoulli(n) for n in range(201)] == _BERN_REF
        assert calls == []
        # the row left for the next fill is C(len(nums) + 1, .)
        _, nums, row = exactnum._bern
        assert row == [comb(len(nums) + 1, k) for k in range(len(nums) + 2)]

    def test_faulhaber_matches_fraction_construction(self):
        for c in range(121):
            p = faulhaber(c)
            assert p == _faulhaber_reference(c)
            assert all(type(x) is F for x in p)

    def test_faulhaber_ints_match_the_comb_per_entry_construction(self):
        # the construction the multiplicative binomial row replaced
        bden, bnums = exactnum._bernoulli_ints(300)
        for c in range(301):
            den = bden * (c + 1)
            nums = [comb(c + 1, i) * bnums[i] for i in range(c + 1)]
            nums.append(-den if c == 0 else 0)
            assert exactnum._faulhaber_ints(c) == (den, nums)

    def test_faulhaber_ints_call_no_comb(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Faulhaber row must not call math.comb per entry")

        bernoulli(60)
        expected = [exactnum._faulhaber_ints(c) for c in range(61)]
        monkeypatch.setattr(exactnum, "comb", refuse, raising=False)
        assert [exactnum._faulhaber_ints(c) for c in range(61)] == expected

    @pytest.mark.parametrize(
        "index, message",
        [(0, "leading coefficient"), (1, "n = 1"), (6, "n = 1"), (7, "n = 1")],
    )
    def test_corrupted_bernoulli_fails_the_integer_anchors(
        self, monkeypatch, index, message
    ):
        # B_7 = 0: a nonzero value there is as wrong as a changed B_6
        exactnum._bernoulli_ints(30)
        den, nums, row = exactnum._bern
        nums = list(nums)
        nums[index] += den // 7  # B_index + 1/7
        monkeypatch.setattr(exactnum, "_bern", (den, nums, row))
        for c in (index, index + 1, 20):
            with pytest.raises(ValueError, match=message):
                exactnum._faulhaber_ints(c)
        with pytest.raises(ValueError):
            faulhaber(20)
        if index >= 2:
            # rows below the corrupted index never read it
            exactnum._faulhaber_ints(index - 1)

    @pytest.mark.parametrize(
        "deltas, kept_at, message",
        [({2: comb(11, 4), 4: -comb(11, 2)}, (1,), "sum at n = 2 must equal 1"),
         ({1: 45, 2: -21, 4: 2}, (1, 2), r"coefficient of n\^c must be -1/2")],
        ids=["n=2", "half"],
    )
    def test_error_the_earlier_anchors_miss_is_caught(
        self, monkeypatch, deltas, kept_at, message
    ):
        # deltas[i] is added to B_i's numerator over the table's denominator;
        # S_10(n) = sum_i C(11, i) B_i n^(11-i) / 11 keeps its value at kept_at
        for n in kept_at:
            assert sum(comb(11, i) * d * n ** (11 - i) for i, d in deltas.items()) == 0
        exactnum._bernoulli_ints(30)
        den, nums, row = exactnum._bern
        nums = list(nums)
        for i, d in deltas.items():
            nums[i] += d
        monkeypatch.setattr(exactnum, "_bern", (den, nums, row))
        with pytest.raises(ValueError, match=message):
            exactnum._faulhaber_ints(10)
        with pytest.raises(ValueError, match=message):
            faulhaber(10)
