"""Exact scalar arithmetic: the canonical string form of a rational,
Bernoulli numbers, and power-sum (Faulhaber) polynomials.

Everything in this module is exact.  Rationals are `fractions.Fraction`
at every interface; no float ever enters or leaves.  The inner loops do
not add `Fraction`s, because each such add runs a gcd: the Bernoulli
recurrence, the Faulhaber coefficients and Faulhaber evaluation work on
integer numerators over one common denominator and build one `Fraction`
per result.  The Bernoulli cache grows deterministically, a call for
B_n filling the table up to n once.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul

from ._record import record


def rat_to_str(x: Fraction) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" when q == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _over_lcm(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Rationals as (lcm of their denominators, integer numerators over it)."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


_bern_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# the integer form (den, nums) of the cache, beside a copy of the cache
# it was derived from, so that a replaced cache or entry is noticed
_bern_ints: tuple[list[Fraction], int, list[int]] = ([], 1, [])
# the Pascal row C(r, 0..r) for r = len(_pascal_row) - 1, left by the last
# fill for the next one; a row is never changed in place
_pascal_row: list[int] = [1, 3, 3, 1]


def _bernoulli_ints() -> tuple[int, list[int]]:
    """Every cached B_k as (common denominator, integer numerators).

    `_bern_cache` stays the one source of the values: the stored integer
    form is derived again whenever the cache no longer equals the copy
    it was derived from.  Callers must not mutate the returned list.
    """
    global _bern_ints
    if _bern_ints[0] != _bern_cache:
        _bern_ints = (list(_bern_cache), *_over_lcm(_bern_cache))
    return _bern_ints[1], _bern_ints[2]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed by the defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0
    and cached, so a call for B_n fills the table up to n once.  The
    fill keeps every cached B_k as an integer numerator over the lcm
    of their denominators, and carries the Pascal row C(m+1, .) from
    step to step, and from one fill to the next, by integer adds, so
    each step is one integer dot product; it stores that integer form
    for `_bernoulli_ints`.
    """
    global _bern_ints, _pascal_row
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if len(_bern_cache) <= n:
        # B_k = nums[k] / den for every cached k
        den, nums = _bernoulli_ints()
        nums = list(nums)
        start = len(_bern_cache)
        # row[k] = C(m+1, k) for k = 0..m+1
        row = _pascal_row
        if len(row) != start + 2:
            row = [comb(start + 1, k) for k in range(start + 2)]
        for m in range(start, n + 1):
            # sum_{k=0}^{m} C(m+1, k) B_k = 0, solved for B_m
            acc = sum(map(mul, row, nums))
            row = [1, *map(add, row, row[1:]), 1]
            b = Fraction(-acc, den * (m + 1))
            _bern_cache.append(b)
            scale = b.denominator // gcd(den, b.denominator)
            if scale != 1:
                nums = [x * scale for x in nums]
                den *= scale
            nums.append(b.numerator * (den // b.denominator))
        _bern_ints = (list(_bern_cache), den, nums)
        _pascal_row = row
    return _bern_cache[n]


@record
class FaulhaberPoly:
    """Closed form of the power sum S_c(n) = sum_{m=1}^{n-1} m^c.

    `coeffs` lists the coefficients of the degree-(c+1) polynomial in n,
    highest degree first, so coeffs[0] multiplies n^(c+1).  Construction
    validates the three anchors that pin the polynomial down: leading
    coefficient 1/(c+1), value 0 at n = 1, and value 1 at n = 2.
    """

    c: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError("exponent must be >= 0")
        if len(self.coeffs) != self.c + 2:
            raise ValueError("coefficient vector must have length c + 2")
        if self.coeffs[0] != Fraction(1, self.c + 1):
            raise ValueError("leading coefficient must be 1/(c+1)")
        if self.eval_at(1) != 0:
            raise ValueError("empty sum at n = 1 must vanish")
        if self.eval_at(2) != 1:
            raise ValueError("sum at n = 2 must equal 1")

    def eval_at(self, n: int) -> Fraction:
        """S_c(n) by Horner's rule on integer numerators over one denominator."""
        den, nums = _over_lcm(self.coeffs)
        acc = 0
        for x in nums:
            acc = acc * n + x
        return Fraction(acc, den)


def _faulhaber_ints(c: int) -> tuple[int, list[int]]:
    """Coefficients of `faulhaber(c)` as (common denominator D, numerators).

    Builds no `Fraction`.  The anchors are checked on the integers:
    leading coefficient 1/(c+1), S_c(1) = 0, S_c(2) = 1 and, for
    c >= 1, the coefficient -1/2 of n^c.  A corrupted Bernoulli value
    B_i, i <= c, breaks S_c(1) = 0 and raises ValueError.
    """
    if c < 0:
        raise ValueError("exponent must be >= 0")
    bernoulli(c)
    bden, bnums = _bernoulli_ints()
    den = bden * (c + 1)
    nums = [comb(c + 1, i) * bnums[i] for i in range(c + 1)]
    nums.append(-den if c == 0 else 0)
    if nums[0] * (c + 1) != den:
        raise ValueError("leading coefficient must be 1/(c+1)")
    if sum(nums) != 0:
        raise ValueError("empty sum at n = 1 must vanish")
    acc = 0
    for x in nums:
        acc = 2 * acc + x
    if acc != den:
        raise ValueError("sum at n = 2 must equal 1")
    if c >= 1 and 2 * nums[1] != -den:
        raise ValueError("coefficient of n^c must be -1/2")
    return den, nums


def faulhaber(c: int) -> FaulhaberPoly:
    """Power-sum polynomial for exponent c >= 0.

    The coefficient of n^(c+1-i) is C(c+1, i) B_i / (c+1) for
    i = 0..c, with constant term 0; for c = 0 the constant is adjusted
    by -1 because the m = 0 term does not appear in S_0(n) = n - 1.
    """
    den, nums = _faulhaber_ints(c)
    return FaulhaberPoly(c=c, coeffs=tuple(Fraction(x, den) for x in nums))
