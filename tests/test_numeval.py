"""Tests for the floating-point series evaluators and the numeric
verification layer."""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest

import ezbasis.cli as cli
import ezbasis.numeval as numeval
import ezbasis.relations as relations
from ezbasis.coeffs import tornheim_decomposition
from ezbasis.exactnum import bernoulli, faulhaber
from ezbasis.numeval import (
    NumericResult,
    _tornheim_poly,
    eval_ez_double,
    eval_tornheim,
    numeric_verify,
    zeta_reference,
)
from ezbasis.relations import basis_representation, relation_family
from golden_values import ZETA_4_PLUS_3I, ZETA_5_HALVES, ZETA_7_HALVES
from reference import tornheim_inner_sum


def _reference_term_float(big: int, n: int, expo: float) -> float:
    if big.bit_length() < 900 and expo * math.log2(n) < 900:
        return float(big) * n ** (-expo)
    return math.exp(math.log(big) - expo * math.log(n))


def _reference_sum_series(inner_at, s: complex, cutoff: int, shift: int, den: int = 1) -> complex:
    """The term-by-term loop the evaluators must reproduce bit for bit."""
    sigma = s.real
    if s.imag == 0.0:
        parts = []
        for n in range(2, cutoff + 1):
            big = inner_at(n)
            if big:
                parts.append(_reference_term_float(big, n, sigma + shift) / den)
        return complex(math.fsum(parts), 0.0)
    re_parts = []
    im_parts = []
    tau = s.imag
    for n in range(2, cutoff + 1):
        big = inner_at(n)
        if not big:
            continue
        mag = _reference_term_float(big, n, sigma + shift) / den
        phase = cmath.exp(-1j * tau * math.log(n))
        re_parts.append(mag * phase.real)
        im_parts.append(mag * phase.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


@functools.cache
def _reference_ez_double(c: int, s: complex, cutoff: int) -> complex:
    state = {"acc": 0}

    def inner(n: int) -> int:
        state["acc"] += (n - 1) ** c
        return state["acc"]

    return _reference_sum_series(inner, complex(s), cutoff, shift=c)


@functools.cache
def _reference_tornheim(a: int, s: complex, cutoff: int) -> complex:
    poly, den = _tornheim_poly(a)

    def inner(n: int) -> int:
        acc = 0
        for coef in poly:
            acc = acc * n + coef
        return acc

    return _reference_sum_series(inner, complex(s), cutoff, shift=2 * a, den=den)


# the n-range 2..cutoff of the last three edge cutoffs ends one before,
# at and one after the edge between the fourth and fifth block (the first
# ends two before it); _THREE_BLOCKS reaches into a third block
_BLOCK = numeval._BLOCK
_EDGE_CUTOFFS = [4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 4 * _BLOCK + 2]
_THREE_BLOCKS = 2 * _BLOCK + 101


class TestAgainstReferenceLoop:
    """The block loop changes no bit of any value."""

    @pytest.mark.parametrize("s", [5.0, complex(4, 3), 12.0])
    def test_ez_double_bitwise(self, s):
        for cutoff in (3_000, _THREE_BLOCKS):
            for c in range(12):
                assert eval_ez_double(c, s, cutoff).value == _reference_ez_double(c, s, cutoff)

    @pytest.mark.parametrize("s", [5.0, complex(4, 3), 12.0])
    def test_tornheim_bitwise(self, s):
        for cutoff in (3_000, _THREE_BLOCKS):
            for a in range(6):
                assert eval_tornheim(a, s, cutoff).value == _reference_tornheim(a, s, cutoff)

    @pytest.mark.parametrize("s", [3.0, complex(3, 2)])
    def test_guard_flips_inside_series(self, s):
        # at c = 90, sigma = 3 the per-term overflow guard fails from
        # n ~ 800 on, so the whole series takes the guarded fallback
        for cutoff in (2_000, _THREE_BLOCKS):
            assert eval_ez_double(90, s, cutoff).value == _reference_ez_double(90, s, cutoff)
            assert eval_tornheim(40, s, cutoff).value == _reference_tornheim(40, s, cutoff)

    def test_short_series(self):
        # fewer terms than the Tornheim polynomial has differences
        assert eval_tornheim(9, 5.0, 10).value == _reference_tornheim(9, 5.0, 10)
        assert eval_ez_double(0, 5.0, 10).value == _reference_ez_double(0, 5.0, 10)


def _separate_values(s: complex, cutoff: int, top_index: int, n_prime: int) -> list[complex]:
    ez = [eval_ez_double(c, s, cutoff).value for c in range(top_index + 1)]
    return ez + [eval_tornheim(a, s, cutoff).value for a in range(n_prime)]


class TestSeriesPlan:
    """One loop over blocks gives every series of a point at once."""

    # s = 12 leaves the loop after the first block, s = 7, 8 and 8+5i
    # after several at cutoff 20 001, s = 5, 4+3i and 3+2i never
    @pytest.mark.parametrize("s", [5.0, complex(4, 3), 12.0, complex(3, 2),
                                   7.0, 8.0, complex(8, 5)])
    @pytest.mark.parametrize("cutoff", [10, *_EDGE_CUTOFFS, _THREE_BLOCKS, 20_001])
    def test_values_bitwise(self, s, cutoff):
        s = complex(s)
        expected = [_reference_ez_double(c, s, cutoff) for c in range(12)]
        expected += [_reference_tornheim(a, s, cutoff) for a in range(6)]
        assert numeval._block_values(s, cutoff, range(12), range(6)) == expected

    @pytest.mark.parametrize("s", [600.0, complex(600, 5)])
    def test_values_bitwise_under_the_tail_floor(self, s):
        # the tail bound after the first block underflows below 2^-1022,
        # where the exit takes 2^-1022 instead
        s = complex(s)
        assert numeval._tail_bound(s.real, _BLOCK + 1, 1) < 2.0**-1022
        expected = [_reference_ez_double(c, s, _THREE_BLOCKS) for c in range(3)]
        expected += [_reference_tornheim(a, s, _THREE_BLOCKS) for a in range(2)]
        assert numeval._block_values(s, _THREE_BLOCKS, range(3), range(2)) == expected

    @pytest.mark.parametrize("s, cutoff, blocks", [
        (12.0, 20_000, 1),
        (5.0, _THREE_BLOCKS, 3),
    ])
    def test_blocks_summed(self, s, cutoff, blocks, monkeypatch):
        # one _exact_parts call per series and block at a real point
        calls = [0]
        exact_parts = numeval._exact_parts

        def counted(terms, low):
            calls[0] += 1
            return exact_parts(terms, low)

        monkeypatch.setattr(numeval, "_exact_parts", counted)
        numeval._block_values(complex(s), cutoff, range(12), range(6))
        assert calls == [18 * blocks]

    @pytest.mark.parametrize("s", [3.0, complex(3, 2)])
    @pytest.mark.parametrize("cutoff, top_index, split, pinned", [
        (2_000, 90, [], {79: 0, 80: 1950, 81: 975, 82: 1950, 83: 975, 84: 1950, 85: 975,
                         86: 1950, 87: 1999, 88: 3998}),
        (50, 157, [78], {155: 0, 156: 49, 157: 49}),
    ])
    def test_guard_paths_under_one_table(self, s, cutoff, top_index, split, pinned, monkeypatch):
        # at sigma = 3 the overflow guard fails for the larger shifts, each
        # block deciding from its last term: at cutoff 2000 shifts 80-86
        # keep the plain formula in the first block and lose it in the
        # second, for both series of a shift at once, and from shift 87 on
        # both blocks are guarded; at cutoff 50 (one block)
        # T(-78, -78; s+156) alone is guarded, while zeta(-156, s+156)
        # keeps the plain formula and the powers of shift 156
        s = complex(s)
        n_prime = top_index // 2 + 1
        blocks = [range(lo, min(lo + _BLOCK, cutoff + 1)) for lo in range(2, cutoff + 1, _BLOCK)]

        def guarded_terms(inner_at, expo):
            # the summed length of the blocks whose last term fails the guard
            return sum(len(ns) for ns in blocks
                       if not numeval._plain_float_ok(inner_at(ns[-1]), ns[-1], expo))

        ez_guarded = [guarded_terms(lambda n: sum(m**c for m in range(1, n)), s.real + c)
                      for c in range(top_index + 1)]
        torn_guarded = []
        for a in range(n_prime):
            _, den = _tornheim_poly(a)
            torn_guarded.append(guarded_terms(lambda n: den * tornheim_inner_sum(a, n), s.real + 2 * a))
        assert split == [a for a in range(n_prime) if ez_guarded[2 * a] != torn_guarded[a]]

        # the loop takes the guarded formula for exactly those blocks
        guarded = Counter()
        term_float = numeval._term_float

        def counted(big, n, expo):
            guarded[expo] += 1
            return term_float(big, n, expo)

        monkeypatch.setattr(numeval, "_term_float", counted)
        values = numeval._block_values(s, cutoff, range(top_index + 1), range(n_prime))
        expected = Counter()
        for e in range(top_index + 1):
            expected[s.real + e] = ez_guarded[e]
            if e % 2 == 0 and e // 2 < n_prime:
                expected[s.real + e] += torn_guarded[e // 2]
        assert guarded == +expected
        assert {e: guarded[s.real + e] for e in pinned} == pinned
        monkeypatch.undo()
        assert values == _separate_values(s, cutoff, top_index, n_prime)

    def test_low_bounds_every_term(self, fsum_passes, monkeypatch):
        # the low that each series-block passes is at most every nonzero
        # |term| it sums, which checks the slack left for this machine's
        # pow; low is far below the first block's sum for the larger
        # shifts, so their first parts take the full loop
        cases = [(complex(s), cutoff, range(12), range(6))
                 for s in (5, complex(4, 3), 12, 3, complex(3, 2))
                 for cutoff in (10, *_EDGE_CUTOFFS, _THREE_BLOCKS)]
        for s in (3.0, complex(3, 2)):
            cases += [(complex(s), 3_000, range(70, 71), range(0)),
                      (complex(s), 3_000, range(0), range(30, 31))]
        exact_parts = numeval._exact_parts
        branches = Counter()

        def checked(terms, low):
            assert low <= _least(terms) or not any(terms), low
            before = fsum_passes[0]
            parts = exact_parts(terms, low)
            if len(parts) > 1:
                # a pass that returns 0.0 after the last part confirms it
                branches[fsum_passes[0] - before - len(parts)] += 1
            return parts

        monkeypatch.setattr(numeval, "_exact_parts", checked)
        for case in cases:
            numeval._block_values(*case)
        assert set(branches) == {0, 1}, branches

    def test_two_fsum_passes_per_series_block(self, fsum_passes, monkeypatch):
        # 18 series over three blocks, then two fsums per series for the
        # value; in the first block low lies too far below the sum for
        # most shifts, so each of its series-blocks may take a third pass
        settled, settle_passes = numeval._settled, []

        def counted(*args):
            before = fsum_passes[0]
            try:
                return settled(*args)
            finally:
                settle_passes.append(fsum_passes[0] - before)

        monkeypatch.setattr(numeval, "_settled", counted)
        numeval._block_values(complex(5), _THREE_BLOCKS, range(12), range(6))
        # s = 5 never settles: after each block but the last, the first
        # series fails the pre-screen on its one fsum
        assert settle_passes == [1, 1]
        assert fsum_passes[0] - sum(settle_passes) <= 3 * 18 + 2 * (2 * 18) + 2 * 18

    @pytest.mark.parametrize("tau", [3.0, -2.5, 1e-3, 76.0, 1234.5])
    def test_phase_table_equals_cmath_exp(self, tau):
        cutoff = 5_000
        phases = [cmath.exp(-1j * tau * math.log(n)) for n in range(2, cutoff + 1)]
        re, im = numeval._phases(tau, range(2, cutoff + 1))
        assert re == [p.real for p in phases]
        assert im == [p.imag for p in phases]

    def test_memory_flat_in_cutoff(self):
        # the working set is a few blocks: quadrupling the cutoff leaves
        # the traced peak nearly where it was, where tables of `cutoff`
        # floats grow it nearly fourfold
        numeric_verify(2, complex(4, 3), 1_000, 1e-6)  # imports and memos first
        peaks = []
        for cutoff in (2_500, 10_000):
            tracemalloc.start()
            try:
                numeric_verify(2, complex(4, 3), cutoff, 1e-6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestSettled:
    """The exit predicate on synthetic parts: a tail of at most the bound changes no bit."""

    TINY = 2.0**-200

    def test_tie_does_not_settle(self):
        # 1 + 2^-53 lies halfway between two floats: any tail decides the
        # rounding, though the bound passes the pre-screen; 1 + 2^-54
        # lies clear of the halfway point
        parts = [1.0, 2.0**-53]
        assert 2 * self.TINY < math.ulp(math.fsum(parts))
        assert not numeval._settled([(parts, [])], [self.TINY], 0.0)
        assert numeval._settled([([1.0, 2.0**-54], [])], [self.TINY], 0.0)

    def test_every_series_must_settle(self):
        parts = [([1.0], []), ([1.0, 2.0**-53], []), ([2.0], [])]
        assert not numeval._settled(parts, [self.TINY] * 3, 0.0)
        assert numeval._settled(parts[::2], [self.TINY] * 2, 0.0)

    def test_imaginary_parts_are_read_at_a_complex_point(self):
        parts = [([1.0], [1.0, 2.0**-53])]
        assert not numeval._settled(parts, [self.TINY], 3.0)
        assert numeval._settled([([1.0], [2.0])], [self.TINY], 3.0)
        # an imaginary part not yet seen may still come from the tail
        assert not numeval._settled([([1.0], [])], [self.TINY], 3.0)

    def test_bound_wider_than_an_ulp_does_not_settle(self):
        assert not numeval._settled([([1.0], [])], [2.0**-53], 0.0)
        assert numeval._settled([([1.0], [])], [2.0**-55], 0.0)

    def test_bound_raised_to_the_floor(self):
        # an underflowed bound of 0.0 counts as 2^-1022, wider than an
        # ulp of a value near the subnormals
        assert not numeval._settled([([3 * 2.0**-1022], [])], [0.0], 0.0)
        assert numeval._settled([([2.0**-900], [])], [0.0], 0.0)


def _block_split(terms: list[float], rng: random.Random) -> list[list[float]]:
    cuts = sorted(rng.sample(range(len(terms) + 1), rng.randint(0, min(4, len(terms) + 1))))
    return [terms[i:j] for i, j in zip([0, *cuts], [*cuts, len(terms)])]


def _random_terms(rng: random.Random) -> list[float]:
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**60, 1.0, -(2.0**60), 2.0**1000]
    terms = []
    for _ in range(rng.randint(0, 40)):
        if rng.random() < 0.2:
            terms.append(rng.choice(specials))
        else:
            terms.append(rng.choice((1.0, -1.0)) * math.ldexp(rng.random(), rng.randint(-1074, 1000)))
    return terms


def _least(terms: list[float]) -> float:
    """The smallest nonzero |term|, the tightest `low` that _exact_parts may be given."""
    return min((abs(t) for t in terms if t), default=0.0)


@pytest.fixture
def fsum_passes(monkeypatch) -> list[int]:
    """A one-item list that counts the math.fsum calls of the test."""
    passes = [0]
    fsum = math.fsum

    def counted(xs):
        passes[0] += 1
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counted)
    return passes


class TestExactParts:
    """A block's parts add up to the block exactly, so fsum of all parts is fsum of all terms.

    Every case runs twice: with low = 0.0, which runs the full loop, and
    with the block's smallest nonzero |term| as low, which lets the last
    part end the loop.  Only the unit level catches that shortcut taken
    without its condition: the series blocks almost never have a third
    part, so every value-level bitwise test still passes under that
    fault.
    """

    @pytest.mark.parametrize("terms", [
        [2.0**60, 1.0, -(2.0**60)],
        [1.0, 2.0**-1074, -1.0],
        [5e-324] * 7 + [-5e-324] * 3,
        [0.0, -0.0, 0.0],
        [],
        [2.0**1000, 2.0**-1074, -(2.0**1000), 3.0, 2.0**-600],
        [1.0, 3 * 2.0**-53],
        [2.0**80, 1.0, 3 * 2.0**-53],
    ])
    def test_cases(self, terms):
        for low in (0.0, _least(terms)):
            parts = numeval._exact_parts(list(terms), low)
            assert sum(map(Fraction, parts), Fraction(0)) == sum(map(Fraction, terms), Fraction(0))
            assert math.fsum(parts) == math.fsum(terms)
            assert 0.0 not in parts

    def test_seeded_splits(self):
        for bounded in (False, True):
            rng = random.Random(20_052_852)
            for _ in range(300):
                terms = _random_terms(rng)
                parts = []
                for block in _block_split(terms, rng):
                    found = numeval._exact_parts(list(block), _least(block) if bounded else 0.0)
                    assert sum(map(Fraction, found), Fraction(0)) == sum(map(Fraction, block), Fraction(0))
                    parts += found
                assert math.fsum(parts) == math.fsum(terms)

    @pytest.mark.parametrize("scale, passes", [(1.0, 3), (2.0**100, 2)], ids=["under", "above"])
    def test_low_under_the_floor_runs_the_full_loop(self, scale, passes, fsum_passes):
        # two parts: 2^-1010 is half an ulp of 2^-957 and the tie rounds
        # it off; ulp(2^-957) <= 2^54 ulp(2^-1010) is within the
        # shortcut's reach, but a low under 2^-1000 must still confirm
        # the 0.0 remainder
        terms = [2.0**-957 * scale, 2.0**-1010 * scale]
        assert numeval._exact_parts(list(terms), _least(terms)) == terms
        assert fsum_passes == [passes]


class TestEvalEzDouble:
    def test_c0_against_zeta_difference(self):
        # zeta(0, s) = zeta(s-1) - zeta(s), here at s = 5
        r = eval_ez_double(0, 5.0, 100_000)
        expected = zeta_reference(4) - zeta_reference(5)
        assert abs(r.value - expected) < 1e-10
        assert r.value.imag == 0.0

    def test_tail_bound_small_at_large_cutoff(self):
        r = eval_ez_double(0, 5.0, 100_000)
        assert 0 < r.tail_bound < 1e-14

    def test_c1_against_shifted_zetas(self):
        # zeta(-1, s+1) = (zeta(s-1) - zeta(s)) / 2
        r1 = eval_ez_double(1, 6.0, 20_000)
        r0 = eval_ez_double(0, 6.0, 20_000)
        assert abs(r1.value - r0.value / 2) < r1.tail_bound + r0.tail_bound

    def test_c2_against_shifted_zetas(self):
        # zeta(-2, s+2) = zeta(s-1)/3 - zeta(s)/2 + zeta(s+1)/6, at s = 6
        r = eval_ez_double(2, 6.0, 20_000)
        expected = (
            zeta_reference(5) / 3 - zeta_reference(6) / 2 + zeta_reference(7) / 6
        )
        assert abs(r.value - expected) < r.tail_bound + 1e-12

    def test_truncation_underestimates_within_bound(self):
        # all terms are positive, so truncation can only undershoot,
        # and by no more than the reported bound
        r = eval_ez_double(0, 5.0, 1_000)
        expected = (zeta_reference(4) - zeta_reference(5)).real
        gap = expected - r.value.real
        assert 0 < gap < r.tail_bound

    def test_doubling_cutoff_stays_within_bound(self):
        for c in (0, 3):
            a = eval_ez_double(c, 4.0, 5_000)
            b = eval_ez_double(c, 4.0, 10_000)
            assert abs(a.value - b.value) <= a.tail_bound

    def test_tail_bound_decreases_in_cutoff(self):
        bounds = [eval_ez_double(0, 4.0, k).tail_bound for k in (100, 1_000, 10_000)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_complex_point(self):
        r = eval_ez_double(1, complex(4, 3), 5_000)
        assert math.isfinite(r.value.real) and math.isfinite(r.value.imag)
        assert r.value.imag != 0.0

    def test_large_index_no_overflow(self):
        # inner sums reach ~ cutoff^(c+1); exercise the log-space path
        r = eval_ez_double(40, 3.0, 10_000)
        assert math.isfinite(r.value.real)
        assert r.value.real > 0

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            eval_ez_double(0, 2.05, 1_000)
        with pytest.raises(ValueError):
            eval_ez_double(0, 2.1, 1_000)
        with pytest.raises(ValueError):
            eval_ez_double(0, 5.0, 9)
        with pytest.raises(ValueError):
            eval_ez_double(-1, 5.0, 1_000)


class TestTornheim:
    def test_inner_sum_small(self):
        # a = 1, N = 4: 1*3 + 2*2 + 3*1 = 10
        assert tornheim_inner_sum(1, 4) == 10
        assert tornheim_inner_sum(0, 7) == 6
        assert tornheim_inner_sum(2, 5) == 16 + 36 + 36 + 16

    def test_inner_sum_edge(self):
        assert tornheim_inner_sum(3, 1) == 0
        assert tornheim_inner_sum(3, 2) == 1

    def test_inner_sum_validation(self):
        with pytest.raises(ValueError):
            tornheim_inner_sum(-1, 5)
        with pytest.raises(ValueError):
            tornheim_inner_sum(1, 0)

    def test_closed_form_matches_convolution(self):
        # the polynomial evaluator must equal the direct convolution
        from ezbasis.numeval import _tornheim_poly

        for a in range(7):
            poly, den = _tornheim_poly(a)
            for N in range(1, 60):
                horner = 0
                for coef in poly:
                    horner = horner * N + coef
                assert horner % den == 0
                assert horner // den == tornheim_inner_sum(a, N)

    def test_closed_form_equals_fraction_construction(self):
        # the integer build gives the (poly, den) of the Fraction loop,
        # the reduced denominator included
        powersums = [faulhaber(c) for c in range(301)]

        def fraction_poly(a):
            coeffs = [Fraction(0)] * (2 * a + 2)
            for i in range(a + 1):
                mult = (-1) ** i * comb(a, i)
                for k, ck in enumerate(powersums[a + i]):
                    coeffs[k] += mult * ck
            den = lcm(*(x.denominator for x in coeffs))
            return [int(x * den) for x in coeffs], den

        for a in range(151):
            assert _tornheim_poly(a) == fraction_poly(a), a

    def test_a0_equals_c0_double_zeta(self):
        # T(0,0;s) has inner sum N-1, same as the c = 0 double zeta
        t = eval_tornheim(0, 5.0, 10_000)
        z = eval_ez_double(0, 5.0, 10_000)
        assert t.value == z.value

    def test_row_identity_c2(self):
        # zeta(-2, s+2) = T(0,0;s)/2 - T(-1,-1;s+2)
        s = 6.0
        k = 20_000
        lhs = eval_ez_double(2, s, k)
        rhs = eval_tornheim(0, s, k).value / 2 - eval_tornheim(1, s, k).value
        assert abs(lhs.value - rhs) < 1e-12

    def test_complex_point_finite(self):
        r = eval_tornheim(2, complex(5, 2), 2_000)
        assert math.isfinite(r.value.real) and math.isfinite(r.value.imag)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            eval_tornheim(-1, 5.0, 1_000)
        with pytest.raises(ValueError):
            eval_tornheim(0, 2.0, 1_000)


def _euler_maclaurin(s: complex, K: int, R: int = 8) -> complex:
    acc = sum(cmath.exp(-s * math.log(n)) for n in range(1, K))
    k_pow = cmath.exp(-s * math.log(K))
    acc += K * k_pow / (s - 1) + k_pow / 2
    poch = complex(1.0)
    for r in range(1, R + 1):
        poch = s if r == 1 else poch * (s + 2 * r - 3) * (s + 2 * r - 2)
        acc += float(bernoulli(2 * r)) / math.factorial(2 * r) * poch * k_pow * float(K) ** (1 - 2 * r)
    return acc


class TestZetaReference:
    def test_table_values(self):
        assert zeta_reference(2) == complex(1.6449340668482264)
        assert zeta_reference(12) == complex(1.000246086553308)

    def test_euler_maclaurin_against_frozen(self):
        assert abs(zeta_reference(2.5) - ZETA_5_HALVES) < 1e-13
        assert abs(zeta_reference(3.5) - ZETA_7_HALVES) < 1e-13
        assert abs(zeta_reference(complex(4, 3)) - ZETA_4_PLUS_3I) < 1e-13

    def test_consistency_with_series(self):
        # brute-force sum at a comfortably convergent point
        brute = sum(n ** -8.5 for n in range(1, 200_000))
        assert abs(zeta_reference(8.5) - brute) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_reference(1.05)
        with pytest.raises(ValueError):
            zeta_reference(complex(0.5, 14.1))

    def test_imaginary_part_limit(self):
        # the largest accepted Im(s) at Re(s) = 4 is where the
        # remainder bound reaches 1e-13; the value there must still
        # match an Euler-Maclaurin sum with K = 2000 to 1e-12
        lo, hi = 0.0, 200.0
        for _ in range(50):
            mid = (lo + hi) / 2
            try:
                zeta_reference(complex(4, mid))
                lo = mid
            except ValueError:
                hi = mid
        assert 60 < lo < 90
        s = complex(4, lo)
        assert abs(zeta_reference(s) - _euler_maclaurin(s, 2_000)) < 1e-12
        with pytest.raises(ValueError, match="remainder bound"):
            zeta_reference(complex(4, 150))

    @pytest.mark.parametrize(
        "s", [math.inf, -math.inf, math.nan, complex(math.inf, 0), complex(4, math.nan)]
    )
    def test_non_finite_rejected(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            zeta_reference(s)


class TestNumericResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            NumericResult(value=float("nan"), tail_bound=0.0)
        with pytest.raises(ValueError):
            NumericResult(value=1.0, tail_bound=-1e-3)
        with pytest.raises(ValueError):
            NumericResult(value=1.0, tail_bound=math.inf)


def _reference_checks(N: int, s: complex, cutoff: int) -> list[tuple[str, float, float]]:
    """Every check as the loop over evaluated series computes it."""
    n_prime, m_top = N // 2, (N - 1) // 2
    ez = [eval_ez_double(c, s, cutoff) for c in range(max(2 * n_prime - 1, 2 * m_top + 1) + 1)]
    torn = [eval_tornheim(d - 1, s, cutoff) for d in range(1, n_prime + 1)]
    out = []

    def weighted(name, rel):
        value, bound = complex(0.0), 0.0
        for p, w in enumerate(rel.coefficients):
            if w != 0:
                value += float(w) * ez[p].value
                bound += abs(float(w)) * ez[p].tail_bound
        out.append((name, abs(value), bound))

    for idx, rel in enumerate(relation_family(N), start=1):
        weighted(f"relation {idx}", rel)
    for m in range(m_top + 1):
        weighted(f"representation m={m}", basis_representation(m).as_relation_vector())
    for c in range(2 * n_prime):
        half = 2 if c == 0 else 1
        value, bound = ez[c].value / half, ez[c].tail_bound / half
        for d, w in enumerate(tornheim_decomposition(c), start=1):
            if w != 0:
                value -= float(w) * torn[d - 1].value
                bound += abs(float(w)) * torn[d - 1].tail_bound
        out.append((f"tornheim row c={c}", abs(value), bound))
    return out


class TestNumericVerify:
    def test_small_family_passes(self):
        report = numeric_verify(6, 5.0, 2_000, 1e-5)
        assert report.passed
        assert report.max_residual < 1e-9

    def test_check_names(self):
        report = numeric_verify(6, 5.0, 2_000, 1e-5)
        names = [c.name for c in report.checks]
        assert "relation 1" in names
        assert "representation m=0" in names
        assert "tornheim row c=0" in names
        # 3 relations + 3 representations + 6 tornheim rows
        assert len(names) == 12

    def test_odd_n_adds_representation(self):
        report = numeric_verify(5, 5.0, 2_000, 1e-4)
        names = [c.name for c in report.checks]
        assert "representation m=2" in names
        assert report.passed

    def test_bounds_cover_residuals(self):
        report = numeric_verify(8, 4.5, 3_000, 1e-4)
        for check in report.checks:
            assert check.residual <= check.bound

    def test_json_shape(self, cli_stdout):
        out = cli_stdout("verify", "--n", "4", "--mode", "numeric", "--s", "6",
                         "--cutoff", "1000", "--tol", "1e-5", "--format", "json")
        d = json.loads(out)["numeric"]
        assert d["n"] == 4
        assert d["s"] == [6.0, 0.0]
        assert d["passed"] is True
        assert set(d["checks"][0]) == {"name", "residual", "bound"}

    def test_complex_sample_point(self):
        report = numeric_verify(6, complex(5, 1), 2_000, 1e-5)
        assert report.passed

    def test_tol_below_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            numeric_verify(6, 5.0, 2_000, 1e-30)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            numeric_verify(1, 5.0, 2_000, 1e-5)
        with pytest.raises(ValueError):
            numeric_verify(6, 2.05, 2_000, 1e-5)
        with pytest.raises(ValueError):
            numeric_verify(6, 5.0, 2_000, 0.0)
        with pytest.raises(ValueError):
            numeric_verify(6, 5.0, 2_000, -1e-5)

    def test_underflow_limit_uses_largest_shift(self, monkeypatch):
        # N = 6 sums shifts up to 5 and N = 8 up to 7; 2^-1074 is the
        # smallest positive float
        numeric_verify(6, 1069.0, 100, 1e-6)
        with monkeypatch.context() as mp:
            # rejected up front, before any series is summed
            mp.setattr(numeval, "_block_values", None)
            with pytest.raises(ValueError, match="underflows to 0.0"):
                numeric_verify(8, 1069.0, 100, 1e-6)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            eval_ez_double(6, 1069.0, 100)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            eval_tornheim(3, 1069.0, 100)
        assert eval_ez_double(5, 1069.0, 100).value.real > 0.0

    def test_tol_rejected_before_any_series_is_summed(self, monkeypatch):
        # the bounds are closed forms; summing N = 30 at the default
        # cutoff first would take seconds
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected tol must not sum any series")

        monkeypatch.setattr(numeval, "_block_values", refuse)
        with pytest.raises(ValueError) as info:
            numeric_verify(30, 5.0, 100_000, 1e-6)
        assert str(info.value) == (
            "tol 1e-06 is not above the achievable bound 5.607e+01; raise tol or the cutoff"
        )

    def test_weights_come_from_the_integer_rows(self, monkeypatch):
        # the plan reads `relations._family_terms`, not the public records
        expected = numeric_verify(13, 5.0, 1_000, 1e-4)

        def refuse(*args, **kwargs):
            raise AssertionError("numeric verify must build no relation record")

        for name in ("RelationVector", "BasisRepresentation", "relation_family",
                     "basis_representation", "Fraction"):
            monkeypatch.setattr(relations, name, refuse)
        assert numeric_verify(13, 5.0, 1_000, 1e-4) == expected

    @pytest.mark.parametrize("N", [12, 61, 200])
    def test_weights_equal_the_folded_fractions(self, N):
        # n/d on the unreduced integers is the float of the reduced
        # Fraction, also where numerators run to hundreds of bits
        rels, reps = relations._family_terms(N // 2, range((N + 1) // 2))
        public = relation_family(N)
        public += [basis_representation(m).as_relation_vector() for m in range((N + 1) // 2)]
        for terms, rel in zip([*rels, *reps], public, strict=True):
            assert numeval._weights(terms) == [
                (float(w), p) for p, w in enumerate(rel.coefficients) if w
            ]

    @pytest.mark.parametrize("N, s", [(9, 5.0), (12, complex(4, 3)), (13, 12.0)])
    def test_checks_equal_the_per_series_loop(self, N, s):
        # residual and bound of every check, bit for bit
        report = numeric_verify(N, s, 500, 1e-2)
        assert [(c.name, c.residual, c.bound) for c in report.checks] == (
            _reference_checks(N, s, 500)
        )

    def test_non_finite_s_rejected(self):
        with pytest.raises(ValueError, match="s must be finite"):
            numeric_verify(6, math.nan, 2_000, 1e-5)
        with pytest.raises(ValueError, match="s must be finite"):
            eval_ez_double(2, complex(5, math.inf), 2_000)

    def test_overflowing_phase_rejected(self):
        # Im(s) * log(100) is inf, so every cosine would be of inf
        message = (r"^Im\(s\) = 1e\+308 is too large: "
                   r"the phase Im\(s\)\*log\(cutoff\) is not finite$")
        for evaluate in (eval_ez_double, eval_tornheim):
            with pytest.raises(ValueError, match=message):
                evaluate(0, complex(5, 1e308), 100)
        with pytest.raises(ValueError, match=message):
            numeric_verify(4, complex(5, 1e308), 100, 1e-2)
        assert eval_ez_double(0, complex(5, 1e300), 100).tail_bound > 0

    def test_weights_fit_a_float_up_to_the_cli_ceiling(self):
        def fit(N):
            rels, reps = relations._family_terms(N // 2, range((N + 1) // 2))
            try:
                for terms in (*rels, *reps):
                    numeval._weights(terms)
            except OverflowError:
                return False
            return True

        assert cli._NUMERIC_N_CEILING == 218
        assert fit(218)
        assert not fit(219)

    def test_weight_overflow_rejected_before_any_series_is_summed(self, monkeypatch):
        monkeypatch.setattr(numeval, "_block_values", None)
        with pytest.raises(ValueError) as info:
            numeric_verify(219, 5, 10, 1e300)
        assert str(info.value) == (
            "N = 219 is too large for numeric verification: "
            "a weight of its identities overflows a float"
        )

    def test_weight_overflow_stops_the_solves_at_its_row(self, monkeypatch):
        # each row is solved when it is read, so the overflow near
        # relation 110 ends the solves there, not after all 900 of N = 600
        kernel = relations._solve_left
        solves = []

        def counted(cols, target, half, context):
            solves.append(context)
            return kernel(cols, target, half, context)

        monkeypatch.setattr(relations, "_solve_left", counted)
        with pytest.raises(ValueError, match="^N = 600 is too large for numeric verification"):
            numeric_verify(600, 5, 10, 1e300)
        assert 0 < len(solves) < 300


# ROADMAP item 1: each check's bound sums truncation bounds, but the
# truncated sums of a true identity cancel exactly, so its residual is
# float rounding only; and the verdict compares the residual with an
# absolute tol.  These verdicts are wrong today.  Each test asserts the
# true verdict, and only the verdict, so that it passes, and so fails as
# a strict xfail, once item 1 lands.
_ITEM_1 = "ROADMAP item 1: numeric verdicts compare rounding with truncation bounds"


class TestKnownFalseVerdicts:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=f"{_ITEM_1}; max residual 1.255e-04 prints FAIL")
    def test_true_identities_pass_at_n30(self, capsys):
        code = cli.run(["verify", "--n", "30", "--mode", "numeric", "--s", "12",
                        "--cutoff", "20000"])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=f"{_ITEM_1}; tol rejected against a truncation bound of 9.029e-06")
    def test_tol_not_rejected_when_the_truncation_cancels(self, capsys):
        code = cli.run(["verify", "--n", "20", "--mode", "numeric", "--s", "5",
                        "--cutoff", "20000"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=f"{_ITEM_1}; a wrong relation leaves 9.09e-13 at s = 40 and passes")
    def test_wrong_relation_fails_at_large_s(self, monkeypatch):
        # zeta(0,s)/2 - 3 zeta(-1,s+1) = 0 in place of relation 1
        family_terms = numeval._family_terms

        def wrong_first(n_rel, ms):
            rels, reps = family_terms(n_rel, ms)
            return [[(0, 1, 2), (1, -3, 1)], *list(rels)[1:]], reps

        monkeypatch.setattr(numeval, "_family_terms", wrong_first)
        assert not numeric_verify(2, 40.0, 100, 1e-6).passed
