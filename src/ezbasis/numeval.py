"""Floating-point direct summation of the double series, with
truncation bounds, used to spot-check the exact identities at sample
points.

All inner sums (the power sums S_c(n) and the Tornheim convolutions)
are carried in exact integer arithmetic and converted to float once per
outer term; outer sums go through math.fsum, so float error never
accumulates across terms: each term carries only the roundings of its
own conversion and products, and the total one more.

Each series is a pipeline of C-level iterators rather than a Python
loop.  The power sums are the running totals
accumulate(m^c for m = 1, 2, ...); the Tornheim inner values come from
the forward differences of the integer polynomial P = den * C_a at
N = 2, one nested accumulate per order.  Each term is then
float(v) * n^(-e), divided by den for Tornheim, and real s feeds the
terms straight into fsum.  Complex s stores the magnitudes once and
sums them against the phase table exp(-i Im(s) log n), which is built
once per (Im s, cutoff) and shared by every series at that point.

The overflow guard is checked once per series.  A term takes the
plain formula when its inner integer has under 900 bits and
e*log2(n) < 900.  Inner values increase with n, e is fixed, and
log2 of distinct integers is far more than an ulp apart, so when the
guard holds at n = cutoff for an upper bound of the last inner value,
it holds for every term, and the plain formula gives each term
bitwise as the per-term guard would.  Otherwise every term goes
through the guarded `_term_float`.

Tail bound derivation, used by both evaluators.  For the double zeta
series the inner sum obeys S_c(n) <= n^(c+1)/(c+1): each m^c is at most
the integral of x^c over [m, m+1], so the sum is under the integral
from 1 to n.  Hence the term at n is at most n^(1-sigma)/(c+1) with
sigma = Re(s), and since n^(1-sigma) is decreasing,

    sum_{n > K} S_c(n) n^(-sigma-c)
        <= (1/(c+1)) * integral_K^inf x^(1-sigma) dx
        = K^(2-sigma) / ((sigma-2)(c+1)).

The Tornheim convolution satisfies the same shape of bound via
C_a(N) <= N^a S_a(N) <= N^(2a+1)/(a+1).  The reported bound multiplies
by 17/16 as headroom so that float rounding in the bound itself can
never understate the truth.  The enforced margin Re(s) > 2.1 keeps
sigma - 2 away from zero so the bound stays meaningful.  At the other
end, a point is rejected once the first term 2^(-sigma-c) of the
largest-shift series underflows to 0.0, since every term of that
series would then be 0.0 and its identities would hold trivially.
"""

from __future__ import annotations

import cmath
import math
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import comb, lcm
from operator import attrgetter, mul, truediv

from ._record import record
from .coeffs import tornheim_decomposition
from .exactnum import bernoulli, faulhaber
from .relations import basis_representation, relation_family

_SLACK = 17.0 / 16.0
_MIN_SIGMA = 2.1


@record
class NumericResult:
    """A truncated series value with its truncation bound."""

    value: complex
    tail_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", complex(self.value))
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("value must be finite")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0):
            raise ValueError("tail bound must be finite and non-negative")
        if self.terms_used < 1:
            raise ValueError("at least one term must be used")

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "tail_bound": self.tail_bound,
            "terms": self.terms_used,
        }


def _require_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, got {s}")
    return s


def _check_domain(s: complex, cutoff: int, shift: int) -> complex:
    # shift is the largest c of the series summed at s, see module docstring
    s = _require_finite(s)
    if s.real <= _MIN_SIGMA:
        raise ValueError(
            f"Re(s) must exceed {_MIN_SIGMA} (convergence margin), got {s.real}"
        )
    if 2.0 ** -(s.real + shift) == 0.0:
        raise ValueError(
            f"Re(s) = {s.real} is too large: the first term 2^-(Re(s)+{shift}) "
            "underflows to 0.0, so the check would be empty"
        )
    if cutoff < 10:
        raise ValueError("cutoff must be >= 10")
    return s


def _tail_bound(sigma: float, cutoff: int, inner_div: int) -> float:
    # see module docstring for the derivation
    return _SLACK * cutoff ** (2.0 - sigma) / ((sigma - 2.0) * inner_div)


def _plain_float_ok(big: int, n: int, expo: float) -> bool:
    """True when big * n**(-expo) can be formed without overflow."""
    return big.bit_length() < 900 and expo * math.log2(n) < 900


def _term_float(big: int, n: int, expo: float) -> float:
    """big * n**(-expo) for a positive integer big, overflow-safe."""
    if _plain_float_ok(big, n, expo):
        return float(big) * n ** (-expo)
    return math.exp(math.log(big) - expo * math.log(n))


@lru_cache(maxsize=1)
def _phase_table(tau: float, cutoff: int) -> tuple[array, array]:
    """Real and imaginary parts of exp(-i tau log n) for n = 2..cutoff."""
    phases = map(cmath.exp, map(mul, repeat(-1j * tau), map(math.log, range(2, cutoff + 1))))
    flat = array("d", chain.from_iterable(map(attrgetter("real", "imag"), phases)))
    return flat[0::2], flat[1::2]


def _sum_series(inner, top: int, s: complex, cutoff: int, shift: int, den: int = 1) -> complex:
    """fsum of v_n/den * n^(-s-shift) for n = 2..cutoff.

    `inner` yields the exact positive integers v_2, ..., v_cutoff,
    which increase with n, and `top` is at least v_cutoff.  Real s
    sums the magnitudes directly; complex s multiplies them into the
    phase table of the point.
    """
    expo = s.real + shift
    ns = range(2, cutoff + 1)
    if _plain_float_ok(top, cutoff, expo):
        # the guard holds at every n <= cutoff, see module docstring
        mags = map(mul, map(float, inner), map(pow, ns, repeat(-expo)))
    else:
        mags = map(_term_float, inner, ns, repeat(expo))
    if den != 1:
        mags = map(truediv, mags, repeat(den))
    if s.imag == 0.0:
        return complex(math.fsum(mags), 0.0)
    mags = array("d", mags)
    re, im = _phase_table(s.imag, cutoff)
    return complex(math.fsum(map(mul, mags, re)), math.fsum(map(mul, mags, im)))


def eval_ez_double(c: int, s: complex, cutoff: int) -> NumericResult:
    """Truncated sum of zeta(-c, s+c) = sum_{n>=2} S_c(n) n^(-s-c).

    The inner power sums are the running totals of m^c as exact
    integers.  Requires Re(s) > 2.1, 2^(-Re(s)-c) > 0.0 in floats and
    cutoff >= 10.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    s = _check_domain(s, cutoff, shift=c)
    inner = accumulate(map(pow, range(1, cutoff), repeat(c)))
    # S_c(cutoff) has cutoff - 1 terms, each at most (cutoff - 1)^c
    top = (cutoff - 1) ** (c + 1)
    value = _sum_series(inner, top, s, cutoff, shift=c)
    return NumericResult(
        value=value,
        tail_bound=_tail_bound(s.real, cutoff, c + 1),
        terms_used=cutoff - 1,
    )


def _tornheim_poly(a: int) -> tuple[list[int], int]:
    """Integer closed form of the convolution: C_a(N) = P(N)/den.

    Expanding (N-m)^a binomially turns C_a(N) into a combination of
    power sums, each with a Faulhaber closed form; collecting powers of
    N and clearing denominators leaves one integer polynomial (listed
    highest power first) over a single denominator.
    """
    coeffs = [Fraction(0)] * (2 * a + 2)
    for i in range(a + 1):
        fc = faulhaber(a + i).coeffs
        mult = (-1) ** i * comb(a, i)
        for k, ck in enumerate(fc):
            if ck:
                coeffs[k] += mult * ck
    den = lcm(*(x.denominator for x in coeffs)) if coeffs else 1
    return [int(x * den) for x in coeffs], den


def _horner(poly: list[int], n: int) -> int:
    acc = 0
    for coef in poly:
        acc = acc * n + coef
    return acc


def eval_tornheim(a: int, s: complex, cutoff: int) -> NumericResult:
    """Truncated Tornheim value T(-a, -a; s+2a) = sum C_a(N) N^(-s-2a).

    Evaluated through the integer closed form of C_a rather than the
    O(N) convolution per term; the tests check that closed form against
    the direct convolution.  Same domain as `eval_ez_double`.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    s = _check_domain(s, cutoff, shift=2 * a)
    poly, den = _tornheim_poly(a)
    # forward differences of P at N = 2: the last one is constant, and
    # each lower order is the running total of the one above it
    diffs = []
    row = [_horner(poly, n) for n in range(2, len(poly) + 2)]
    while row:
        diffs.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    inner = repeat(diffs.pop())
    for start in reversed(diffs):
        inner = accumulate(inner, initial=start)
    inner = islice(inner, cutoff - 1)
    value = _sum_series(inner, _horner(poly, cutoff), s, cutoff, shift=2 * a, den=den)
    return NumericResult(
        value=value,
        tail_bound=_tail_bound(s.real, cutoff, a + 1),
        terms_used=cutoff - 1,
    )


# ---------------------------------------------------------------------------
# Riemann zeta reference values

# zeta(k) for integer k, rounded from standard references to full double
# precision; used so the oracle comparison at real integer arguments
# does not depend on the summation below.
_ZETA_REAL = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
    5: 1.0369277551433699,
    6: 1.0173430619844491,
    7: 1.0083492773819228,
    8: 1.0040773561979443,
    9: 1.0020083928260822,
    10: 1.0009945751278181,
    11: 1.0004941886041195,
    12: 1.000246086553308,
    13: 1.0001227133475785,
    14: 1.0000612481350587,
    15: 1.000030588236307,
    16: 1.0000152822594087,
    17: 1.0000076371976379,
    18: 1.0000038172932650,
    19: 1.0000019082127166,
    20: 1.0000009539620339,
}

_EM_TERMS = 32
_EM_CORRECTIONS = 8
_EM_MAX_REMAINDER = 1e-13


def _em_remainder_bound(s: complex) -> float:
    """Bound on the Euler-Maclaurin remainder of `zeta_reference` at s.

    After R corrections the remainder is at most |s+2R+1|/(Re(s)+2R+1)
    times the first omitted term, B_{2R+2}/(2R+2)! * s(s+1)...(s+2R) *
    K^(-s-2R-1) (Edwards, Riemann's Zeta Function, sec. 6.4).
    """
    R = _EM_CORRECTIONS
    poch = 1.0
    for j in range(2 * R + 1):
        poch *= abs(s + j)
    weight = abs(float(bernoulli(2 * R + 2))) / math.factorial(2 * R + 2)
    first_omitted = weight * poch * float(_EM_TERMS) ** (-s.real - 2 * R - 1)
    return _SLACK * abs(s + 2 * R + 1) / (s.real + 2 * R + 1) * first_omitted


def zeta_reference(s: complex) -> complex:
    """Reference zeta(s) for the oracle comparison, Re(s) > 1.1.

    Integer real arguments in the table above are returned directly;
    everything else goes through Euler-Maclaurin summation with
    _EM_TERMS direct terms and _EM_CORRECTIONS Bernoulli correction
    terms.  The remainder grows like |Im s|^17, so s is rejected with
    ValueError when its remainder bound exceeds 1e-13 (about
    |Im s| > 76 at Re(s) = 4); every accepted value is accurate to
    well under 1e-12, float rounding of the ~40 summed terms included.
    A non-finite s raises ValueError.
    """
    s = _require_finite(s)
    if s.imag == 0.0 and s.real == int(s.real) and int(s.real) in _ZETA_REAL:
        return complex(_ZETA_REAL[int(s.real)], 0.0)
    if s.real <= 1.1:
        raise ValueError("reference zeta requires Re(s) > 1.1")
    bound = _em_remainder_bound(s)
    if not bound <= _EM_MAX_REMAINDER:
        raise ValueError(
            f"reference zeta is not accurate at s = {s}: remainder bound "
            f"{bound:.1e} exceeds {_EM_MAX_REMAINDER:.0e}; reduce |Im(s)|"
        )
    K = _EM_TERMS
    acc = complex(0.0)
    for n in range(1, K):
        acc += cmath.exp(-s * math.log(n))
    k_pow = cmath.exp(-s * math.log(K))
    acc += K * k_pow / (s - 1) + k_pow / 2
    # correction terms B_{2r}/(2r)! * (s)(s+1)...(s+2r-2) * K^(1-s-2r)
    poch = complex(1.0)
    for r in range(1, _EM_CORRECTIONS + 1):
        if r == 1:
            poch = s
        else:
            poch *= (s + (2 * r - 3)) * (s + (2 * r - 2))
        weight = float(bernoulli(2 * r)) / math.factorial(2 * r)
        acc += weight * poch * k_pow * float(K) ** (1 - 2 * r)
    return acc


# ---------------------------------------------------------------------------
# verification


@record
class NumericCheck:
    name: str
    residual: float
    bound: float


@record
class NumericReport:
    """Residuals of every identity of the size-N family at one point."""

    n: int
    s: complex
    cutoff: int
    tol: float
    checks: tuple[NumericCheck, ...]

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": [self.s.real, self.s.imag],
            "cutoff": self.cutoff,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "residual": c.residual, "bound": c.bound}
                for c in self.checks
            ],
        }


def numeric_verify(N: int, s: complex, cutoff: int, tol: float) -> NumericReport:
    """Evaluate every identity of the size-N family at the point s.

    Covers the relation family, the basis representations for
    m <= floor((N-1)/2), and the Tornheim decomposition of every row.
    Each check carries a bound on its residual built from the
    truncation bounds of the evaluations involved.  Those bounds
    are closed forms, so tol at or below the largest of them is
    rejected before any series is summed, since a failure could then
    never be attributed to a wrong identity; so is an infinite tol,
    under which nothing could fail.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_prime = N // 2
    m_top = (N - 1) // 2
    top_index = max(2 * n_prime - 1, 2 * m_top + 1)
    s = _check_domain(s, cutoff, shift=top_index)
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if math.isinf(tol):
        # every finite residual is below inf, so the verdict would be a hollow PASS
        raise ValueError(f"tol must be finite, got {tol}")

    # every check is a weighted sum of series values, as (weight, index)
    # terms over zeta(-c, s+c) for c <= top_index, followed by
    # T(-a, -a; s+2a) for a < n_prime at index torn + a
    torn = top_index + 1
    folded = [(f"relation {idx}", rel) for idx, rel in enumerate(relation_family(N), start=1)]
    folded += [
        (f"representation m={m}", basis_representation(m).as_relation_vector())
        for m in range(m_top + 1)
    ]
    plans = [
        (name, [(float(w), p) for p, w in enumerate(rel.folded_coefficients()) if w])
        for name, rel in folded
    ]
    for c in range(2 * n_prime):
        # zeta(0,s)/2 for c = 0, minus the Tornheim side
        terms = [(0.5 if c == 0 else 1.0, c)]
        for d, w in enumerate(tornheim_decomposition(c), start=1):
            if w:
                terms.append((-float(w), torn + d - 1))
        plans.append((f"tornheim row c={c}", terms))

    def combine(terms, series, acc):
        # strictly left to right: the reported floats depend on the order
        for w, i in terms:
            acc += w * series[i]
        return acc

    tails = [_tail_bound(s.real, cutoff, c + 1) for c in range(top_index + 1)]
    tails += [_tail_bound(s.real, cutoff, a + 1) for a in range(n_prime)]
    bounds = [combine([(abs(w), i) for w, i in terms], tails, 0.0) for _, terms in plans]
    worst = max(bounds)
    if tol <= worst:
        raise ValueError(
            f"tol {tol} is not above the achievable bound {worst:.3e}; "
            "raise tol or the cutoff"
        )
    values = [eval_ez_double(c, s, cutoff).value for c in range(top_index + 1)]
    values += [eval_tornheim(a, s, cutoff).value for a in range(n_prime)]
    checks = tuple(
        NumericCheck(name=name, residual=abs(combine(terms, values, 0j)), bound=bound)
        for (name, terms), bound in zip(plans, bounds)
    )
    return NumericReport(n=N, s=s, cutoff=cutoff, tol=tol, checks=checks)
