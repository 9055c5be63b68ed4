"""Tests for the floating-point series evaluators and the numeric
verification layer."""

from __future__ import annotations

import cmath
import math

import pytest

import ezbasis.numeval as numeval
from ezbasis.coeffs import tornheim_decomposition
from ezbasis.exactnum import bernoulli
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


def _reference_ez_double(c: int, s: complex, cutoff: int) -> complex:
    state = {"acc": 0}

    def inner(n: int) -> int:
        state["acc"] += (n - 1) ** c
        return state["acc"]

    return _reference_sum_series(inner, complex(s), cutoff, shift=c)


def _reference_tornheim(a: int, s: complex, cutoff: int) -> complex:
    poly, den = _tornheim_poly(a)

    def inner(n: int) -> int:
        acc = 0
        for coef in poly:
            acc = acc * n + coef
        return acc

    return _reference_sum_series(inner, complex(s), cutoff, shift=2 * a, den=den)


class TestAgainstReferenceLoop:
    """The iterator pipelines change no bit of any value."""

    @pytest.mark.parametrize("s", [5.0, complex(4, 3), 12.0])
    def test_ez_double_bitwise(self, s):
        for c in range(12):
            assert eval_ez_double(c, s, 3_000).value == _reference_ez_double(c, s, 3_000)

    @pytest.mark.parametrize("s", [5.0, complex(4, 3), 12.0])
    def test_tornheim_bitwise(self, s):
        for a in range(6):
            assert eval_tornheim(a, s, 3_000).value == _reference_tornheim(a, s, 3_000)

    @pytest.mark.parametrize("s", [3.0, complex(3, 2)])
    def test_guard_flips_inside_series(self, s):
        # at c = 90, sigma = 3 the per-term overflow guard fails from
        # n ~ 800 on, so the whole series takes the guarded fallback
        assert eval_ez_double(90, s, 2_000).value == _reference_ez_double(90, s, 2_000)
        assert eval_tornheim(40, s, 2_000).value == _reference_tornheim(40, s, 2_000)

    def test_short_series(self):
        # fewer terms than the Tornheim polynomial has differences
        assert eval_tornheim(9, 5.0, 10).value == _reference_tornheim(9, 5.0, 10)
        assert eval_ez_double(0, 5.0, 10).value == _reference_ez_double(0, 5.0, 10)


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
        assert r.terms_used == 99_999

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
            NumericResult(value=float("nan"), tail_bound=0.0, terms_used=5)
        with pytest.raises(ValueError):
            NumericResult(value=1.0, tail_bound=-1e-3, terms_used=5)
        with pytest.raises(ValueError):
            NumericResult(value=1.0, tail_bound=0.0, terms_used=0)

    def test_json_shape(self):
        r = NumericResult(value=complex(1.5, -0.25), tail_bound=1e-9, terms_used=42)
        assert r.to_json_dict() == {
            "value": [1.5, -0.25],
            "tail_bound": 1e-9,
            "terms": 42,
        }


def _reference_checks(N: int, s: complex, cutoff: int) -> list[tuple[str, float, float]]:
    """Every check as the loop over evaluated series computes it."""
    n_prime, m_top = N // 2, (N - 1) // 2
    ez = [eval_ez_double(c, s, cutoff) for c in range(max(2 * n_prime - 1, 2 * m_top + 1) + 1)]
    torn = [eval_tornheim(d - 1, s, cutoff) for d in range(1, n_prime + 1)]
    out = []

    def folded(name, rel):
        value, bound = complex(0.0), 0.0
        for p, w in enumerate(rel.folded_coefficients()):
            if w != 0:
                value += float(w) * ez[p].value
                bound += abs(float(w)) * ez[p].tail_bound
        out.append((name, abs(value), bound))

    for idx, rel in enumerate(relation_family(N), start=1):
        folded(f"relation {idx}", rel)
    for m in range(m_top + 1):
        folded(f"representation m={m}", basis_representation(m).as_relation_vector())
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

    def test_json_shape(self):
        report = numeric_verify(4, 6.0, 1_000, 1e-5)
        d = report.to_json_dict()
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
            mp.setattr(numeval, "eval_ez_double", None)
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

        monkeypatch.setattr(numeval, "eval_ez_double", refuse)
        monkeypatch.setattr(numeval, "eval_tornheim", refuse)
        with pytest.raises(ValueError) as info:
            numeric_verify(30, 5.0, 100_000, 1e-6)
        assert str(info.value) == (
            "tol 1e-06 is not above the achievable bound 5.607e+01; raise tol or the cutoff"
        )

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
