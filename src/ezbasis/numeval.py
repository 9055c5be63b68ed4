"""Floating-point direct summation of the double series, with
truncation bounds, used to spot-check the exact identities at sample
points.

All inner sums (the power sums S_c(n) and the Tornheim convolutions)
are carried in exact integer arithmetic and converted to float once per
outer term, so each term carries only the roundings of its own
conversion and products.

Every series is summed by one loop over blocks of _BLOCK values of n:
`numeric_verify` passes it all the series of a point, `eval_ez_double`
and `eval_tornheim` one each.  Per block, C-level maps build the float
bases n, for complex s the phases cos and sin of -Im(s) log n, and the
integer powers m^c: the first shift with `pow`, each later one as the
block list of the shift before times m.  The power sums continue from
the last block as running totals (accumulate with an initial value),
and the Tornheim values P(N) = den * C_a(N) from the forward
differences of the integer polynomial P, an iterator that keeps its
state between blocks.  zeta(-2a, s+2a) and T(-a, -a; s+2a) share the
block's powers n^(-Re(s)-2a).  Each term is float(v) * n^(-Re(s)-e),
divided by den for Tornheim, times the phases for complex s.  After each
block but the last, the loop stops once the unsummed tail cannot change
a bit of any value (see "Early exit" below).

A block's terms are then reduced to their exact sum, held as a few
floats: fsum of the terms minus the parts found so far, repeated until
it returns 0.0, or until a part is proved the last (see `_exact_parts`).
A value is the fsum of all its parts.  fsum is correctly rounded and
the parts add up exactly to the terms, so the value is the fsum of all
the terms bit for bit, as if they had been stored; the tests check it
against a term-by-term loop.  The proof needs a lower bound `low` on
the block's nonzero |terms|, which costs O(1) per series and block.  On
the plain path it is float(inner[0]) * powers[-1] / den / 4.  The inner
values increase with n and the bases' powers fall, so inner[0] is the
smallest and powers[-1] the smallest power, up to pow's error: if pow
errs by under a third, every power of the block is at least half of
powers[-1].  The other factor 1/2 covers the roundings of the terms and
of low itself, all relative since low >= 2^-1000 keeps them off
the subnormals.  For complex s, low is multiplied by the smallest |cos|
or |sin| of the block, found once per block for all series.  The
guarded path passes low = 0.0, and `_exact_parts` ignores any low under
2^-1000; both run the full loop.  So does, as a rule, the first block:
there inner[0] is S_c(2) = 1 while powers[-1] is about 1024^(-Re(s)-e),
so low lies more than 2^54 below the block's sum for all but the
smallest shifts.
Working memory is a few blocks at any cutoff, and nothing is cached
between calls.

The identities' weights are the integer terms (p, n, d) of
`relations._family_terms`, which the exact collapse reads too; n/d is
one correctly rounded division, the float that the reduced `Fraction`
gives.

The overflow guard is decided once per series and block.  A term
takes the plain formula when its inner integer has under 900 bits and
e*log2(n) < 900.  Within a block the inner values and n increase, e is
fixed, and log2 of distinct integers is far more than an ulp apart, so
when the guard holds at the block's last term it holds at every term of
the block, and the plain formula gives each term bitwise as the
per-term guard would.  Otherwise the block goes through the guarded
`_term_float`.

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
series would then be 0.0 and its identities would hold trivially, and
so is an Im(s) whose phase Im(s)*log(cutoff) is not finite.

Early exit.  The same bound, taken at the last n = K of a block rather
than at the cutoff, ends the block loop once no later term can change a
bit of any value.  Take one series, and one of its part lists (real or
imaginary; a real point has no imaginary terms).  The parts add up
exactly to the head sum H of its terms at n <= K.  The float terms at
n > K add up exactly to some T, and the value is the fsum of all terms,
round(H + T).  Each float term exceeds the true term only by the
relative roundings of its conversion, pow or exp, division and phase,
far under the 1/16 of slack, and by under 2^-1073 in all where those
steps fall to the subnormals.  So |T| <= U = _tail_bound(sigma, K, div),
with div = c+1 for zeta(-c, s+c) and a+1 for T(-a, -a; s+2a).  A U
under 2^-1022, where the bound's own rounding is no longer relative, is
raised to 2^-1022, which also covers the subnormal roundings of any
feasible cutoff (under 2^40 terms).  Rounding to nearest is monotone,
so when fsum(parts + [U]) == fsum(parts + [-U]), that is round(H + U) ==
round(H - U), the value round(H + T) is that float, and so is
fsum(parts) = round(H).  The loop leaves when this holds for every
series and each of its part lists, so every value stays the fsum of all
its terms bit for bit.  A pre-screen skips the two fsums where they
cannot agree: both ends round to one float v only if 2U <= ulp(v), so
2U < ulp(fsum(parts)) is required first.  Where a point does not
settle (s = 5 at a cutoff of 10^6), the check mostly stops at its first
series, zeta(0, s), and costs about one fsum per block over that
series' parts, a few per block summed so far.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, islice, repeat
from math import comb, gcd, lcm
from operator import add, mul, neg, truediv

from ._record import record
from .coeffs import tornheim_decomposition
from .exactnum import _faulhaber_ints, _horner, bernoulli
from .relations import _family_terms

_SLACK = 17.0 / 16.0
_BLOCK = 1024
_MIN_SIGMA = 2.1
_TAIL_FLOOR = 2.0**-1022


@record
class NumericResult:
    """A truncated series value with its truncation bound."""

    value: complex
    tail_bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", complex(self.value))
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("value must be finite")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0):
            raise ValueError("tail bound must be finite and non-negative")


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
    if not math.isfinite(s.imag * math.log(cutoff)):
        raise ValueError(
            f"Im(s) = {s.imag} is too large: the phase Im(s)*log(cutoff) is not finite"
        )
    return s


def _tail_bound(sigma: float, cutoff: int, inner_div: int) -> float:
    # see module docstring for the derivation
    return _SLACK * cutoff ** (2.0 - sigma) / ((sigma - 2.0) * inner_div)


def _settled(parts, bounds, tau: float) -> bool:
    """True when tails of at most `bounds` cannot change a bit of any value.

    `parts` holds each series' (real, imaginary) part lists and `bounds`
    the bound on each series' unsummed tail, raised to 2^-1022; a real
    point (tau = 0.0) has empty imaginary lists, which are not read.
    See "Early exit" in the module docstring for the proof.
    """
    for (re, im), bound in zip(parts, bounds):
        bound = max(bound, _TAIL_FLOOR)
        for acc in (re, im) if tau else (re,):
            if not (2.0 * bound < math.ulp(math.fsum(acc))
                    and math.fsum([*acc, bound]) == math.fsum([*acc, -bound])):
                return False
    return True


def _plain_float_ok(big: int, n: int, expo: float) -> bool:
    """True when big * n**(-expo) can be formed without overflow."""
    return big.bit_length() < 900 and expo * math.log2(n) < 900


def _term_float(big: int, n: int, expo: float) -> float:
    """big * n**(-expo) for a positive integer big, overflow-safe."""
    if _plain_float_ok(big, n, expo):
        return float(big) * n ** (-expo)
    return math.exp(math.log(big) - expo * math.log(n))


def _phases(tau: float, ns: range) -> tuple[list[float], list[float]]:
    """Real and imaginary parts of exp(-i tau log n) for n in ns.

    They are cos and sin of -tau log n, bit for bit as cmath.exp gives
    them for the zero-real argument -i tau log n.
    """
    angles = list(map(mul, repeat(-tau), map(math.log, ns)))
    return list(map(math.cos, angles)), list(map(math.sin, angles))


def _exact_parts(terms: list[float], low: float) -> list[float]:
    """A few floats whose exact sum is the exact sum of `terms`.

    Each part is the correctly rounded fsum of the terms minus the parts
    before it, until that is 0.0, which only an exact 0 rounds to.  The
    negated parts are appended to `terms` on the way.

    `low` is at most every nonzero |term|, or 0.0 when no bound is
    known.  When low >= 2^-1000, every term is a multiple of
    u = ulp(low), and so is every part: a rounded multiple of u is one.
    The remainder after a part p is then a multiple of u of size at most
    ulp(p)/2.  If ulp(p) <= 2^54 u, that is at most 2^53 u, so the
    remainder is a float, and the next fsum returns it exactly, or 0.0:
    the loop ends there, without a pass to confirm a 0.0.  A smaller
    low never shortens the loop.
    """
    reach = 2.0**54 * math.ulp(low) if low >= 2.0**-1000 else 0.0
    count = len(terms)
    last = False
    while rest := math.fsum(terms):
        terms.append(-rest)
        if last:
            break
        last = math.ulp(rest) <= reach
    return list(map(neg, terms[count:]))


def _tornheim_poly(a: int) -> tuple[list[int], int]:
    """Integer closed form of the convolution: C_a(N) = P(N)/den.

    Expanding (N-m)^a binomially turns C_a(N) into the combination
    sum_i (-1)^i C(a, i) N^(a-i) S_{a+i}(N) of power sums.  Their
    Faulhaber coefficients are integers over one denominator L, so P
    collects integer numerators over L (listed highest power first),
    and dividing out their gcd with L leaves the reduced denominator.
    """
    forms = [_faulhaber_ints(a + i) for i in range(a + 1)]
    big = lcm(*(d for d, _ in forms))
    poly = [0] * (2 * a + 2)
    for i, (d, nums) in enumerate(forms):
        scale = (-1) ** i * comb(a, i) * (big // d)
        poly[:len(nums)] = map(add, poly, map(mul, nums, repeat(scale)))
    g = gcd(big, *poly)
    return [x // g for x in poly], big // g


def _tornheim_values(poly: list[int]):
    """P(N) for N = 2, 3, ... from the forward differences of P at N = 2."""
    # the last difference is constant, and each lower order is the
    # running total of the one above it
    diffs = []
    row = [_horner(poly, n) for n in range(2, len(poly) + 2)]
    while row:
        diffs.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    values = repeat(diffs.pop())
    for start in reversed(diffs):
        values = accumulate(values, initial=start)
    return values


def _block_values(s: complex, cutoff: int, ez: range, torn: range) -> list[complex]:
    """zeta(-c, s+c) for c in ez, then T(-a, -a; s+2a) for a in torn.

    Sums n = 2..cutoff block by block, and stops early once the tail
    cannot change a bit, see module docstring.  `ez` has step 1, so that
    each power m^c is m^(c-1) times m.
    """
    sigma, tau = s.real, s.imag
    divs = [c + 1 for c in ez] + [a + 1 for a in torn]
    forms = [_tornheim_poly(a) for a in torn]
    torn_values = [_tornheim_values(poly) for poly, _ in forms]
    totals = [0] * len(ez)  # S_c(lo - 1) at the block start lo
    parts = [([], []) for _ in range(len(ez) + len(torn))]
    shifts = sorted({*ez, *(2 * a for a in torn)})
    for lo in range(2, cutoff + 1, _BLOCK):
        ns = range(lo, min(lo + _BLOCK, cutoff + 1))
        ms = list(range(lo - 1, ns.stop - 1))  # built once, read by every shift
        bases = list(map(float, ns))
        if tau:
            phases = _phases(tau, ns)
            phase_lows = [min(map(abs, phase)) for phase in phases]
        else:
            phases = None
        pw = None
        for e in shifts:
            jobs = []  # (series index, exact inner values, den)
            if e in ez:
                k = e - ez.start
                pw = list(map(pow, ms, repeat(e))) if pw is None else list(map(mul, pw, ms))
                inner = list(accumulate(pw, initial=totals[k]))
                del inner[0]
                totals[k] = inner[-1]
                jobs.append((k, inner, 1))
            if e % 2 == 0 and e // 2 in torn:
                k = e // 2 - torn.start
                inner = list(islice(torn_values[k], len(ns)))
                jobs.append((len(ez) + k, inner, forms[k][1]))
            expo = sigma + e
            powers = None
            for i, inner, den in jobs:
                if _plain_float_ok(inner[-1], ns[-1], expo):
                    # the guard holds at every n of the block, see module docstring
                    if powers is None:
                        powers = list(map(pow, bases, repeat(-expo)))
                    # int * float converts the int as float(int) does
                    # (PyLong_AsDouble), so each term is float(v) * power
                    mags = map(mul, inner, powers)
                    # at most every term of the block, see module docstring
                    low = float(inner[0]) * powers[-1] / den * 0.25
                else:
                    mags = map(_term_float, inner, ns, repeat(expo))
                    low = 0.0
                if den != 1:
                    mags = map(truediv, mags, repeat(den))
                if phases is None:
                    parts[i][0].extend(_exact_parts(list(mags), low))
                    continue
                mags = list(mags)
                for acc, phase, phase_low in zip(parts[i], phases, phase_lows):
                    acc.extend(_exact_parts(list(map(mul, mags, phase)), low * phase_low))
        if ns.stop <= cutoff and _settled(
                parts, (_tail_bound(sigma, ns[-1], div) for div in divs), tau):
            break
    return [complex(math.fsum(re), math.fsum(im)) for re, im in parts]


def eval_ez_double(c: int, s: complex, cutoff: int) -> NumericResult:
    """Truncated sum of zeta(-c, s+c) = sum_{n>=2} S_c(n) n^(-s-c).

    The inner power sums are the running totals of m^c as exact
    integers.  Requires Re(s) > 2.1, 2^(-Re(s)-c) > 0.0 in floats,
    cutoff >= 10 and a finite phase Im(s)*log(cutoff).
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    s = _check_domain(s, cutoff, shift=c)
    return NumericResult(
        value=_block_values(s, cutoff, range(c, c + 1), range(0))[0],
        tail_bound=_tail_bound(s.real, cutoff, c + 1),
    )


def eval_tornheim(a: int, s: complex, cutoff: int) -> NumericResult:
    """Truncated Tornheim value T(-a, -a; s+2a) = sum C_a(N) N^(-s-2a).

    Evaluated through the integer closed form of C_a rather than the
    O(N) convolution per term; the tests check that closed form against
    the direct convolution.  Same domain as `eval_ez_double`.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    s = _check_domain(s, cutoff, shift=2 * a)
    return NumericResult(
        value=_block_values(s, cutoff, range(0), range(a, a + 1))[0],
        tail_bound=_tail_bound(s.real, cutoff, a + 1),
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
    poch = s
    for r in range(1, _EM_CORRECTIONS + 1):
        weight = float(bernoulli(2 * r)) / math.factorial(2 * r)
        acc += weight * poch * k_pow * float(K) ** (1 - 2 * r)
        poch *= (s + (2 * r - 1)) * (s + 2 * r)
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


def _weights(terms: list[tuple[int, int, int]]) -> list[tuple[float, int]]:
    """(weight, p) over zeta(-p, s+p) of the nonzero terms."""
    return [(n / d, p) for p, n, d in terms if n]


def numeric_verify(N: int, s: complex, cutoff: int, tol: float) -> NumericReport:
    """Evaluate every identity of the size-N family at the point s.

    Covers the relation family, the basis representations for
    m <= floor((N-1)/2), and the Tornheim decomposition of every row.
    Each check carries a bound on its residual built from the
    truncation bounds of the evaluations involved.  Those bounds
    are closed forms, so tol at or below the largest of them is
    rejected before any series is summed, since a failure could then
    never be attributed to a wrong identity; so is an infinite tol,
    under which nothing could fail.  An N so large that a weight of
    its identities overflows a float raises ValueError naming N, also
    before any series is summed.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_prime = N // 2
    m_top = (N - 1) // 2
    # the top representation's index; the top relation's, 2 n_prime - 1,
    # equals it for even N and is 2 below it for odd N
    top_index = 2 * m_top + 1
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
    rels, reps = _family_terms(n_prime, range(m_top + 1))
    try:
        plans = [(f"relation {i}", _weights(terms)) for i, terms in enumerate(rels, start=1)]
        plans += [(f"representation m={m}", _weights(terms)) for m, terms in enumerate(reps)]
    except OverflowError:
        raise ValueError(
            f"N = {N} is too large for numeric verification: "
            "a weight of its identities overflows a float"
        ) from None
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
    values = _block_values(s, cutoff, range(top_index + 1), range(n_prime))
    checks = tuple(
        NumericCheck(name=name, residual=abs(combine(terms, values, 0j)), bound=bound)
        for (name, terms), bound in zip(plans, bounds)
    )
    return NumericReport(n=N, s=s, cutoff=cutoff, tol=tol, checks=checks)
