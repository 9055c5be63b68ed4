"""Pole catalog and the exact shifted-zeta verification oracle.

Substituting the closed form of the inner power sum into the defining
series gives, for every index c, a finite exact identity

    zeta(-c, s+c) = sum_{j} q_j zeta(s + j - 1)

valid for Re(s) > 2 and hence for the meromorphic continuations.  The
vector q is rational and computable from the Faulhaber coefficients, so
any Q-linear relation among family members can be verified exactly by
collapsing it onto the zeta(s+j-1) coordinates: the relation holds as
an identity of functions if and only if every coordinate cancels.  No
independence assumption about the symbols zeta(s+j-1) is needed for
that direction, which is the only one used.  The collapse reads nothing
but these expansions: it never touches the coefficient matrix or its
inverses, so it checks the matrix path rather than repeating it.  It
adds integer numerators over one common denominator per relation, and
takes each expansion in the same integer form, built from the Bernoulli
numerators without an intermediate `Fraction`.  `verify_relations_exact`
takes its rows from `relations._family_terms` and counts what it collapsed.

The same expansion independently reproduces the pole catalog: each
zeta(s+j-1) contributes a simple pole at s = 2-j with residue q_j, so
the catalog built directly from the residue formulas must match the
expansion's nonzero q_j entry by entry.  `residues_from_expansion`
enforces exactly that.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from ._record import record
from .coeffs import ZERO
from .errors import VerificationError
from .exactnum import _bernoulli_ints, _faulhaber_ints, _fraction, _ratio_str
from .relations import RelationVector, _family_terms, function_label

@record
class PoleRecord:
    """A simple pole of one family member: location, exact residue.

    The residue is the evaluated rational, never symbolic.  The location
    is one that a residue formula gives: 2, 1 or a non-positive even
    integer.
    """

    location: int
    residue: Fraction

    def __post_init__(self) -> None:
        if type(self.residue) is not Fraction:
            object.__setattr__(self, "residue", _fraction(self.residue, "residue"))
        if not self.residue:
            raise ValueError("a pole record must carry a nonzero residue")
        if self.location not in (2, 1) and (self.location > 0 or self.location % 2):
            raise ValueError(f"no residue formula gives a pole at s = {self.location}")


@record
class PoleTable:
    """All poles of zeta(-n, s+n), sorted by descending location.

    Size is pinned by construction: exactly two records (s = 2 and
    s = 1) for n <= 1, and 2 + floor(n/2) records at
    s = 2, 1, 0, -2, ..., -2*floor(n/2)+2 for n >= 2.
    """

    n: int
    records: tuple[PoleRecord, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        locs = [r.location for r in self.records]
        if sorted(locs, reverse=True) != locs or len(set(locs)) != len(locs):
            raise ValueError("records must have distinct descending locations")
        expected = 2 if self.n <= 1 else 2 + self.n // 2
        if len(self.records) != expected:
            raise ValueError(
                f"table for n = {self.n} must have {expected} records, got {len(self.records)}"
            )

    def locations(self) -> tuple[int, ...]:
        return tuple(r.location for r in self.records)

    def residue_at(self, location: int) -> Fraction:
        for r in self.records:
            if r.location == location:
                return r.residue
        return ZERO


@cache
def _catalog_ints(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The poles of zeta(-n, s+n) as (locations, reduced (numerator, denominator)s).

    s = 2 carries residue 1/(n+1).  s = 1 carries residue -1 for n = 0
    and -1/2 for every n >= 1 (for n = 0 both contributing terms of the
    continuation hit s = 1, doubling the usual zeta(0) = -1/2).  For
    n >= 2 there are further simple poles at s = -2k,
    k = 0..floor(n/2)-1, with residue binom(2k-n, 2k+1) * zeta(-2k-1);
    for odd n the candidate pole at the next even location is canceled
    by a trivial zero, hence the floor(n/2) count.  Since 2k-n < 0,
    binom(2k-n, 2k+1) = -C(n, 2k+1), and zeta(-2k-1) = -B_{2k+2}/(2k+2),
    so each residue is C(n, 2k+1) B_{2k+2} / (2k+2), reduced by one gcd.
    Reads only the Bernoulli table and `math.comb`, and builds no Fraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    residues = [(1, n + 1), (-1, 1 if n == 0 else 2)]
    bden, bnums = _bernoulli_ints(n)
    for k in range(n // 2):
        num, den = comb(n, 2 * k + 1) * bnums[2 * k + 2], bden * (2 * k + 2)
        g = gcd(num, den)
        residues.append((num // g, den // g))
    return (2, 1, *range(0, -2 * (n // 2), -2)), tuple(residues)


def pole_table(n: int) -> PoleTable:
    """Direct catalog of the poles of zeta(-n, s+n): `_catalog_ints(n)` as records.

    One Fraction per record.
    """
    records = (PoleRecord(s, Fraction(*r)) for s, r in zip(*_catalog_ints(n)))
    return PoleTable(n=n, records=tuple(records))


@record
class ZetaShiftExpansion:
    """The exact vector q with zeta(-c, s+c) = sum_j q_j zeta(s+j-1).

    q has length c+1 for c >= 1 (trailing zero kept explicit when the
    top Bernoulli coefficient vanishes) and length 2 for c = 0, whose
    inner sum n-1 has a genuine constant term: q = (1, -1).
    Construction pins q_0 = 1/(c+1) and, for c >= 1, q_1 = -1/2.
    """

    c: int
    q: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(_fraction(x, "q_{}", j) for j, x in enumerate(self.q)))
        if self.c < 0:
            raise ValueError("c must be >= 0")
        expected_len = 2 if self.c == 0 else self.c + 1
        if len(self.q) != expected_len:
            raise ValueError(f"q must have length {expected_len} for c = {self.c}")
        if self.q[0] != Fraction(1, self.c + 1):
            raise ValueError("q_0 must be 1/(c+1)")
        if self.c == 0:
            if self.q[1] != -1:
                raise ValueError("q must be (1, -1) for c = 0")
        elif self.q[1] != Fraction(-1, 2):
            raise ValueError("q_1 must be -1/2 for c >= 1")


@cache
def _expansion_ints(c: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """zeta_shift_expansion(c).q as (least common denominator, nonzero (j, numerator)).

    q_j is the coefficient of n^(c+1-j) in the Faulhaber closed form of
    the inner power sum: summing S_c(n) * n^(-s-c) over n termwise
    turns the n^(c+1-j) piece into zeta(s+j-1).  For c >= 1 the closed
    form has zero constant term and j stops at c; for c = 0 the
    constant -1 of S_0(n) = n - 1 contributes the j = 1 entry.  So the
    numerators of `_faulhaber_ints(c)` are truncated, reduced by their
    gcd with the denominator and the zeros left out.  The expansion, the
    collapse and `residues_from_expansion` read this memo.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    den, nums = _faulhaber_ints(c)
    q = nums if c == 0 else nums[: c + 1]
    g = gcd(den, *q)
    return den // g, tuple((j, x // g) for j, x in enumerate(q) if x)


def zeta_shift_expansion(c: int) -> ZetaShiftExpansion:
    """Expansion of zeta(-c, s+c) over shifted Riemann zetas.

    Built from the memo `_expansion_ints(c)`, one Fraction per nonzero
    entry and the shared `coeffs.ZERO` for each zero.
    """
    den, pairs = _expansion_ints(c)
    q = dict(pairs)
    return ZetaShiftExpansion(c=c, q=tuple(
        Fraction(q[j], den) if j in q else ZERO for j in range(2 if c == 0 else c + 1)))


def residues_from_expansion(c: int) -> PoleTable:
    """Rebuild the pole table of zeta(-c, s+c) from its expansion.

    zeta(s+j-1) has its only pole at s = 2-j with residue 1, so each
    nonzero q_j yields the pole (2-j, q_j); odd Bernoulli zeros make
    every odd j >= 3 drop out, which is exactly the trivial-zero
    cancellation of the direct catalog.  These poles must equal
    `_catalog_ints(c)`, compared on integers with each q_j reduced by
    one gcd; a mismatch raises VerificationError.  Only a match builds
    the table, one Fraction per record, and it equals `pole_table(c)`.
    """
    den, pairs = _expansion_ints(c)
    locations = tuple(2 - j for j, _ in pairs)
    residues = [(x // g, den // g) for _, x in pairs for g in (gcd(x, den),)]
    direct_locations, direct = _catalog_ints(c)
    if locations != direct_locations:
        raise VerificationError(
            f"pole locations differ for c = {c}: expansion {locations} "
            f"vs direct {direct_locations}"
        )
    for location, got, want in zip(locations, residues, direct):
        if got != want:
            raise VerificationError(
                f"residue mismatch for c = {c} at s = {location}: "
                f"expansion {_ratio_str(*got)} vs direct {_ratio_str(*want)}"
            )
    records = (PoleRecord(s, Fraction(*r)) for s, r in zip(locations, residues))
    return PoleTable(n=c, records=tuple(records))


@record
class ExactRelationReport:
    """Outcome of collapsing a family's relations onto the oracle."""

    n: int
    relations_checked: int
    representations_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _collapse(terms: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """(D, acc) with acc[j]/D the coordinate on zeta(s+j-1) of the terms (p, n, d).

    Term (p, n, d) weights position p by n/d.  Each term is reduced by
    its gcd, and all are put over the lcm D of the results.
    """
    scaled = []
    for p, n, d in terms:
        if n:
            den, pairs = _expansion_ints(p)
            d *= den
            g = gcd(n, d)
            scaled.append((n // g, d // g, pairs))
    D = lcm(*(d for _, d, _ in scaled))
    # position p expands over j <= p, and position 0 over j <= 1
    acc = [0] * (2 + max(p for p, _, _ in terms))
    for n, d, pairs in scaled:
        f = n * (D // d)
        for j, x in pairs:
            acc[j] += f * x
    return D, acc


def collapse_relation(rel: RelationVector) -> dict[int, Fraction]:
    """Nonzero coordinates of a relation on the zeta(s+j-1) symbols; {} if exact."""
    D, acc = _collapse([(p, w.numerator, w.denominator) for p, w in enumerate(rel.coefficients)])
    return {j: Fraction(v, D) for j, v in enumerate(acc) if v}


def verify_relations_exact(N: int) -> ExactRelationReport:
    """Collapse every relation and basis representation of the size-N family.

    Checks the floor(N/2) relation vectors of `relation_family(N)` and
    the representations for m <= floor((N-1)/2); each must cancel to
    the zero vector over the zeta(s+j-1) symbols.  Nonzero residual
    coordinates are reported with their origin and j index, and so is a
    count of collapsed rows short of the family's size.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_rel, ms = N // 2, range((N + 1) // 2)
    rels, reps = _family_terms(n_rel, ms)
    failures = []

    def collapse(origin, terms):
        D, acc = _collapse(terms)
        failures.extend(f"{origin}: residual {Fraction(v, D)} on j = {j}"
                        for j, v in enumerate(acc) if v)

    n_rels = n_reps = 0
    for n_rels, terms in enumerate(rels, start=1):
        collapse(f"relation {n_rels}", terms)
    for n_reps, terms in enumerate(reps, start=1):
        collapse(f"representation m = {n_reps - 1}", terms)
    for got, want, kind in ((n_rels, n_rel, "relations"), (n_reps, len(ms), "representations")):
        if got != want:
            failures.append(f"collapsed {got} of {want} {kind}")
    return ExactRelationReport(
        n=N,
        relations_checked=n_rels,
        representations_checked=n_reps,
        failures=tuple(failures),
    )


def independence_witness(m: int) -> PoleRecord:
    """The pole certifying zeta(-2m, s+2m) cannot be eliminated.

    Returns the record `pole_table(2m)` ends with, the pole at s = 2-2m,
    built from `_catalog_ints` alone, and asserts that no smaller member
    has a pole there (their locations stop strictly higher).  Since the
    locations 2-2m strictly decrease in m, each witness is distinct.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    location = 2 - 2 * m
    locations, residues = _catalog_ints(2 * m)
    if locations[-1] != location:
        raise VerificationError(
            f"{function_label(2 * m)} lacks the expected pole at s = {location}"
        )
    for c in range(2 * m):
        if location in _catalog_ints(c)[0]:
            raise VerificationError(
                f"witness at s = {location} is not exclusive: "
                f"{function_label(c)} shares it"
            )
    return PoleRecord(location, Fraction(*residues[-1]))
