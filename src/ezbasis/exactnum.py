"""Exact scalar arithmetic: the canonical string form of a rational,
Bernoulli numbers, and power-sum (Faulhaber) polynomials.

Everything in this module is exact.  Rationals are `fractions.Fraction`
at every interface; no float ever enters or leaves.  The inner loops do
not add `Fraction`s, because each such add runs a gcd: the Bernoulli
recurrence and the Faulhaber coefficients work on integer numerators
over one common denominator and build one `Fraction` per result.  The
Bernoulli numbers live in one integer table that grows
deterministically, a call for B_n filling it up to n once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms with q > 0 as text: "p" when q == 1, else "p/q"."""
    return str(p) if q == 1 else f"{p}/{q}"


def rat_to_str(x: Fraction) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" when q == 1.

    x must be an int or a Fraction; anything else raises TypeError.
    """
    x = _fraction(x, "value")
    return _ratio_str(x.numerator, x.denominator)


def _fraction(x, what: str, *index: int) -> Fraction:
    """x as a Fraction: kept if it is one, converted if an int (bool too).

    Any other type raises TypeError naming the field `what.format(*index)`.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(
        f"{what.format(*index)} is a {type(x).__name__}, not an exact int or Fraction"
    )


# every B_k filled so far as (common denominator, integer numerators,
# Pascal row): B_k = nums[k] / den, den the lcm of the reduced
# denominators, and row = C(len(nums) + 1, .), the row the next fill
# starts from.  A fill replaces the tuple and never changes a list in place.
_bern: tuple[int, list[int], list[int]] = (2, [2, -1], [1, 3, 3, 1])


def _bernoulli_ints(n: int) -> tuple[int, list[int]]:
    """B_0..B_n and beyond as (common denominator, integer numerators).

    Fills the table up to n once, by the defining recurrence
    sum_{k=0}^{m} C(m+1, k) B_k = 0 solved for B_m.  The Pascal row
    C(m+1, .) is carried from step to step, and from one fill to the
    next in the table, by integer adds, so each even m costs one integer
    dot product and one gcd; B_m = 0 for odd m >= 3 only advances the
    row.  Callers must not mutate the returned list.
    """
    global _bern
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    den, nums, row = _bern
    start = len(nums)
    if start > n:
        return den, nums
    nums = list(nums)
    # row[k] = C(m+1, k) for k = 0..m+1; m >= 2, as the table starts at B_1
    for m in range(start, n + 1):
        if m % 2:
            nums.append(0)
        else:
            # B_m = -acc / (den (m+1)); over the lcm of den and its reduced
            # denominator that is -(acc/g) / (den (m+1)/g), g = gcd(acc, m+1)
            acc = sum(map(mul, row, nums))
            g = gcd(acc, m + 1)
            scale = (m + 1) // g
            if scale != 1:
                nums = [x * scale for x in nums]
                den *= scale
            nums.append(-acc // g)
        row = [1, *map(add, row, row[1:]), 1]
    _bern = (den, nums, row)
    return den, nums


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Read from the table of `_bernoulli_ints`, which a call for B_n fills
    up to n once.
    """
    den, nums = _bernoulli_ints(n)
    return Fraction(nums[n], den)


def _horner(poly: list[int], n: int) -> int:
    """The integer polynomial `poly`, highest power first, at n."""
    acc = 0
    for coef in poly:
        acc = acc * n + coef
    return acc


def _faulhaber_ints(c: int) -> tuple[int, list[int]]:
    """Coefficients of `faulhaber(c)` as (common denominator D, numerators).

    Builds no `Fraction`.  The anchors are checked on the integers:
    leading coefficient 1/(c+1), S_c(1) = 0, S_c(2) = 1 and, for
    c >= 1, the coefficient -1/2 of n^c.  A corrupted Bernoulli value
    B_i, i <= c, breaks S_c(1) = 0 and raises ValueError.
    """
    if c < 0:
        raise ValueError("exponent must be >= 0")
    bden, bnums = _bernoulli_ints(c)
    den, nums, b = bden * (c + 1), [], 1
    for i, x in enumerate(bnums[: c + 1]):
        # b = C(c+1, i) by the multiplicative recurrence; B_i = 0 skips the product
        nums.append(b * x if x else 0)
        b = b * (c + 1 - i) // (i + 1)
    nums.append(-den if c == 0 else 0)
    if nums[0] * (c + 1) != den:
        raise ValueError("leading coefficient must be 1/(c+1)")
    if sum(nums) != 0:
        raise ValueError("empty sum at n = 1 must vanish")
    if _horner(nums, 2) != den:
        raise ValueError("sum at n = 2 must equal 1")
    if c >= 1 and 2 * nums[1] != -den:
        raise ValueError("coefficient of n^c must be -1/2")
    return den, nums


def faulhaber(c: int) -> tuple[Fraction, ...]:
    """Coefficients of the power sum S_c(n) = sum_{m=1}^{n-1} m^c, c >= 0.

    S_c is a polynomial of degree c+1 in n, and the tuple lists its c+2
    coefficients, highest degree first.  The coefficient of n^(c+1-i)
    is C(c+1, i) B_i / (c+1) for i = 0..c, with constant term 0; for
    c = 0 the constant is adjusted by -1 because the m = 0 term does
    not appear in S_0(n) = n - 1.  The anchors are checked once, by
    `_faulhaber_ints`.
    """
    den, nums = _faulhaber_ints(c)
    return tuple(Fraction(x, den) for x in nums)
