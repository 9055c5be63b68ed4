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
numerators without an intermediate `Fraction`.

The same expansion independently reproduces the pole catalog: each
zeta(s+j-1) contributes a simple pole at s = 2-j with residue q_j, so
the catalog built directly from the residue formulas must match the
expansion's nonzero q_j entry by entry.  `residues_from_expansion`
enforces exactly that.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from ._record import record
from .errors import VerificationError
from .exactnum import _faulhaber_ints, bernoulli, rat_to_str
from .relations import RelationVector, _solved_rows, function_label

S_EQ_2 = "s_eq_2"
S_EQ_1 = "s_eq_1"
S_EQ_MINUS_2K = "s_eq_minus_2k"


@record
class PoleRecord:
    """A simple pole of one family member: location, exact residue.

    `annotation` preserves the closed form of the residue for display
    ("binom(-2,1)*zeta(-1)" and the like); the residue itself is always
    the evaluated rational, never symbolic.
    """

    location: int
    residue: Fraction
    source_label: str
    annotation: str = ""

    def __post_init__(self) -> None:
        if type(self.residue) is not Fraction:
            object.__setattr__(self, "residue", Fraction(self.residue))
        if self.residue == 0:
            raise ValueError("a pole record must carry a nonzero residue")
        if self.source_label not in (S_EQ_2, S_EQ_1, S_EQ_MINUS_2K):
            raise ValueError(f"unknown source label {self.source_label!r}")


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
        return Fraction(0)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "poles": [
                {"s": r.location, "residue": rat_to_str(r.residue)} for r in self.records
            ],
        }

    def to_latex(self) -> str:
        """Four-column `at & s=... & residue & value` display table."""
        lines = ["\\begin{array}{cccc}"]
        for r in self.records:
            lines.append(
                f" \\text{{at}} & s={r.location}, & \\text{{residue}} & "
                f"{rat_to_str(r.residue)}, \\\\"
            )
        lines.append("\\end{array}")
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = [f"poles of {function_label(self.n)}:"]
        for r in self.records:
            note = f"  [{r.annotation}]" if r.annotation else ""
            lines.append(f"  s = {r.location:>3}   residue {rat_to_str(r.residue)}{note}")
        return "\n".join(lines)


@cache
def pole_table(n: int) -> PoleTable:
    """Direct catalog of the poles of zeta(-n, s+n).

    s = 2 carries residue 1/(n+1).  s = 1 carries residue -1 for n = 0
    and -1/2 for every n >= 1 (for n = 0 both contributing terms of the
    continuation hit s = 1, doubling the usual zeta(0) = -1/2).  For
    n >= 2 there are further simple poles at s = -2k,
    k = 0..floor(n/2)-1, with residue binom(2k-n, 2k+1) * zeta(-2k-1);
    for odd n the candidate pole at the next even location is canceled
    by a trivial zero, hence the floor(n/2) count.  Since 2k-n < 0,
    binom(2k-n, 2k+1) = -C(n, 2k+1), and zeta(-2k-1) = -B_{2k+2}/(2k+2),
    so each residue is evaluated as C(n, 2k+1) B_{2k+2} / (2k+2) from
    `math.comb` and the Bernoulli numerator and denominator, one
    Fraction per record; the annotation keeps the binom * zeta form.
    The table is immutable and memoised per n, because the independence
    witnesses ask for every smaller catalog again and again.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    records = [
        PoleRecord(location=2, residue=Fraction(1, n + 1), source_label=S_EQ_2,
                   annotation=f"1/({n}+1)"),
        PoleRecord(location=1, residue=Fraction(-1) if n == 0 else Fraction(-1, 2),
                   source_label=S_EQ_1,
                   annotation="2*zeta(0)" if n == 0 else "zeta(0)"),
    ]
    for k in range(n // 2):
        b = bernoulli(2 * k + 2)
        residue = Fraction(comb(n, 2 * k + 1) * b.numerator, b.denominator * (2 * k + 2))
        records.append(
            PoleRecord(
                location=-2 * k,
                residue=residue,
                source_label=S_EQ_MINUS_2K,
                annotation=f"binom({2 * k - n},{2 * k + 1})*zeta({-2 * k - 1})",
            )
        )
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
        object.__setattr__(
            self, "q", tuple(x if type(x) is Fraction else Fraction(x) for x in self.q)
        )
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

    def term_label(self, j: int) -> str:
        arg = {0: "s-1", 1: "s"}.get(j, f"s+{j - 1}")
        return f"zeta({arg})"

    def to_json_dict(self) -> dict:
        return {"c": self.c, "q": [rat_to_str(x) for x in self.q]}


@cache
def zeta_shift_expansion(c: int) -> ZetaShiftExpansion:
    """Expansion of zeta(-c, s+c) over shifted Riemann zetas.

    q_j is the coefficient of n^(c+1-j) in the Faulhaber closed form of
    the inner power sum: summing S_c(n) * n^(-s-c) over n termwise
    turns the n^(c+1-j) piece into zeta(s+j-1).  For c >= 1 the closed
    form has zero constant term and j stops at c; for c = 0 the
    constant -1 of S_0(n) = n - 1 contributes the j = 1 entry.  q is
    built from the integer numerators of `_faulhaber_ints(c)`, which
    has already checked the Faulhaber anchors, one Fraction per entry;
    it does not go through the memo of `_expansion_ints`, which only
    the collapse needs.  The result is immutable and memoised per c.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    den, nums = _faulhaber_ints(c)
    q = nums if c == 0 else nums[: c + 1]
    return ZetaShiftExpansion(c=c, q=tuple(Fraction(x, den) for x in q))


def residues_from_expansion(c: int) -> PoleTable:
    """Rebuild the pole table of zeta(-c, s+c) from its expansion.

    zeta(s+j-1) has its only pole at s = 2-j with residue 1, so each
    nonzero q_j yields the pole (2-j, q_j); odd Bernoulli zeros make
    every odd j >= 3 drop out, which is exactly the trivial-zero
    cancellation of the direct catalog.  The rebuilt table must equal
    `pole_table(c)` record by record; a mismatch raises
    VerificationError.
    """
    exp = zeta_shift_expansion(c)
    records = []
    for j, qj in enumerate(exp.q):
        if qj == 0:
            continue
        if j == 0:
            label = S_EQ_2
        elif j == 1:
            label = S_EQ_1
        else:
            label = S_EQ_MINUS_2K
        records.append(
            PoleRecord(location=2 - j, residue=qj, source_label=label,
                       annotation=f"q_{j}")
        )
    table = PoleTable(n=c, records=tuple(records))
    direct = pole_table(c)
    if table.locations() != direct.locations():
        raise VerificationError(
            f"pole locations differ for c = {c}: expansion {table.locations()} "
            f"vs direct {direct.locations()}"
        )
    for got, want in zip(table.records, direct.records):
        if got.residue != want.residue:
            raise VerificationError(
                f"residue mismatch for c = {c} at s = {got.location}: "
                f"expansion {got.residue} vs direct {want.residue}"
            )
    return table


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


@cache
def _expansion_ints(c: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """zeta_shift_expansion(c).q as (least common denominator, nonzero (j, numerator)).

    Truncates the Faulhaber numerators as `zeta_shift_expansion` does
    and divides out their gcd with the denominator, without building
    a `Fraction`; the anchors were checked by `_faulhaber_ints`.  The
    zeros, about half since odd Bernoulli numbers vanish, are left out.
    """
    den, nums = _faulhaber_ints(c)
    q = nums if c == 0 else nums[: c + 1]
    g = gcd(den, *q)
    return den // g, tuple((j, x // g) for j, x in enumerate(q) if x)


def _collapse(terms: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """(D, acc) with acc[j]/D the coordinate on zeta(s+j-1) of the terms (p, n, d).

    Term (p, n, d) weights position p by n/d, and position 0 through
    half its expansion, as it stands for zeta(0,s)/2.  Each term is
    reduced by its gcd, and all are put over the lcm D of the results.
    """
    scaled = []
    for p, n, d in terms:
        if n:
            den, pairs = _expansion_ints(p)
            d *= den * (2 if p == 0 else 1)
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


def _family_terms(N: int) -> Iterator[tuple[str, list[tuple[int, int, int]]]]:
    """(origin, `_collapse` terms) of each row `verify_relations_exact` collapses.

    The integers come from `relations._solved_rows`; the representation
    rows are those of `BasisRepresentation.as_relation_vector`.
    """
    rels, reps = _solved_rows(N // 2, range((N + 1) // 2))
    for i, (x, dx, y, dy) in enumerate(rels, start=1):
        yield f"relation {i}", ([(2 * k, v, dx) for k, v in enumerate(x)]
                                + [(2 * k + 1, -v, dy) for k, v in enumerate(y)])
    for m, (x, d) in enumerate(reps):
        yield f"representation m = {m}", [(2 * m + 1, 1, 1)] + [
            (2 * k, -v, d) for k, v in enumerate(x)
        ]


def verify_relations_exact(N: int) -> ExactRelationReport:
    """Collapse every relation and basis representation of the size-N family.

    Checks the floor(N/2) relation vectors of `relation_family(N)` and
    the representations for m <= floor((N-1)/2); each must cancel to
    the zero vector over the zeta(s+j-1) symbols.  Nonzero residual
    coordinates are reported with their origin and j index.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    failures = []
    for origin, terms in _family_terms(N):
        D, acc = _collapse(terms)
        failures += [f"{origin}: residual {Fraction(v, D)} on j = {j}"
                     for j, v in enumerate(acc) if v]
    return ExactRelationReport(
        n=N,
        relations_checked=N // 2,
        representations_checked=(N + 1) // 2,
        failures=tuple(failures),
    )


def independence_witness(m: int) -> PoleRecord:
    """The pole certifying zeta(-2m, s+2m) cannot be eliminated.

    Returns the pole of zeta(-2m, s+2m) at s = 2-2m and asserts that no
    family member of smaller index has a pole there (their catalogs
    stop strictly higher).  Since the locations 2-2m strictly decrease
    in m, each witness is distinct.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    location = 2 - 2 * m
    table = pole_table(2 * m)
    record = None
    for r in table.records:
        if r.location == location:
            record = r
            break
    if record is None:
        raise VerificationError(
            f"zeta(-{2 * m},s+{2 * m}) lacks the expected pole at s = {location}"
        )
    for c in range(2 * m):
        if pole_table(c).residue_at(location) != 0:
            raise VerificationError(
                f"witness at s = {location} is not exclusive: "
                f"{function_label(c)} shares it"
            )
    return record
