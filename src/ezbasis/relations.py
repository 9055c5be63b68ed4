"""The Q-linear relation family and the odd-index basis representations.

The function family under study is zeta(-c, s+c) for c = 0, 1, 2, ...,
ordered by c.  Throughout this module a coefficient vector over the
family of size L is indexed by position p = 0..L-1, where position p
weighs zeta(-p, s+p).  The constant row of the coefficient matrix
stands for zeta(0,s)/2, so the solve's weight on it is halved once, in
`_family_terms`.

`relation_family` and the matrix path below share one back-substitution
on the integer coefficient rows and build no inverse, and `_family_terms`
lays the solved rows out for `relation_family` and both verifiers.  Two
independent derivations of the same basis coefficients exist:

* `basis_representation` reads them off a row of A2 * A1^(-1), pure
  exact linear algebra on the integer coefficient rows, by one
  back-substitution against A1;
* `residue_system_representation` never touches the matrix and instead
  matches pole residues of the meromorphic continuations, walking the
  shared pole locations from the lowest up and solving one linear
  equation per pole.

Their exact agreement for every m is one of the package's main checks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from ._record import record
from .coeffs import ONE, ZERO, coeff_row
from .errors import VerificationError
from .exactnum import _fraction

def function_label(p: int) -> str:
    """Display name of family member p: zeta(0,s), zeta(-1,s+1), ..."""
    if p < 0:
        raise ValueError("index must be >= 0")
    if p == 0:
        return "zeta(0,s)"
    return f"zeta(-{p},s+{p})"


@record
class RelationVector:
    """One Q-linear relation sum_p coefficients[p] * f_p = 0.

    Position p refers to zeta(-p, s+p).  The identity holds for the
    meromorphic continuations away from their singularities.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(
            _fraction(x, "coefficient {}", p) for p, x in enumerate(self.coefficients)))
        if all(x == 0 for x in self.coefficients):
            raise ValueError("relation must have a nonzero coefficient")


def relation_family(N: int) -> list[RelationVector]:
    """All N' relations of the size-N family, one per matrix row.

    Row i of A1^(-1) contributes the even positions and row i of
    -A2^(-1) the odd positions of relation i, with entry 0 halved;
    relation 1 is zeta(0,s)/2 - zeta(-1,s+1) = 0.  The weights come from
    `_family_terms`.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n_prime = N // 2
    out = []
    for terms in _family_terms(n_prime, range(0))[0]:
        coeffs = [ZERO] * (2 * n_prime)
        for p, n, d in terms:
            coeffs[p] = Fraction(n, d)
        out.append(RelationVector(coefficients=tuple(coeffs)))
    return out


def _family_terms(n_rel: int, ms: range) -> tuple[Iterator[list], Iterator[list]]:
    """Relations 1..n_rel and representations m in ms as integer terms (p, n, d).

    Term (p, n, d) weights position p by n/d, in ascending p.  Relation
    i is x/dx on the even and -y/dy on the odd positions; representation
    m is -x/d on the even positions and 1 on 2m+1.  The solve's x_0
    weighs zeta(0,s)/2, so position 0 takes x_0/(2d) here, the one place
    it is halved.  Relation i+1 solves (x/dx) * A1 = e_i = (y/dy) * A2;
    representation m solves as in `basis_representation` and is checked
    by `_check_gamma`.  Each row is solved only when its generator
    reaches it, so one solved row is held at a time.
    """
    cols1, cols2 = _columns(1, max(n_rel, ms.stop)), _columns(2, n_rel)

    def rel_terms():
        for i in range(n_rel):
            unit, where = [0] * i + [1], f"relation {i + 1}"
            x, dx = _solve_left(cols1, unit, 1, where)
            y, dy = _solve_left(cols2, unit, 2, where)
            yield [(0, x[0], 2 * dx), (1, -y[0], dy)] + [
                t for k in range(1, len(x)) for t in ((2 * k, x[k], dx), (2 * k + 1, -y[k], dy))]

    def rep_terms():
        for m in ms:
            x, d = _solve_left(cols1, coeff_row(2 * m + 2), 1, f"m = {m}")
            _check_gamma(m, x, d)
            yield ([(0, -x[0], 2 * d)] + [(2 * k, -x[k], d) for k in range(1, m + 1)]
                   + [(2 * m + 1, 1, 1)])

    return rel_terms(), rep_terms()


def _columns(half: int, n: int) -> list[list[int]]:
    """Columns of the leading n-square block of A1 or A2 (half = 1, 2), pivot first."""
    rows = [coeff_row(2 * l + half) for l in range(n)]
    return [[row[k] for row in rows[k:]] for k in range(n)]


def _solve_left(cols: list[list[int]], target: Sequence[int], half: int,
                context: str) -> tuple[list[int], int]:
    """x with x * B = target on the leading square block B of `_columns` cols.

    Back-substitution from the last unknown down, with x as integer
    numerators over one returned common denominator: one C-level dot
    product with column k and one gcd per pivot, and only a cofactor
    other than +-1 rescales x.  A zero pivot raises VerificationError.
    """
    n = len(target)
    num, den = [0] * n, 1
    for k in range(n - 1, -1, -1):
        rhs = den * target[k] - sum(map(mul, num[k + 1:], cols[k][1:n - k]))
        piv = cols[k][0]
        if piv == 0:
            raise VerificationError(
                f"zero pivot a_{{{2 * k + half},{k + 1}}} at diagonal position "
                f"{k + 1} of A{half} in the solve for {context}"
            )
        g = gcd(rhs, piv)
        rhs, piv = rhs // g, piv // g
        if abs(piv) == 1:
            num[k] = rhs * piv
        else:
            num = [x * piv for x in num]
            num[k] = rhs
            den *= piv
    return num, den


def _check_gamma(m: int, x: Sequence[int], den: int) -> None:
    """Leading coefficient and residue balance on x/den = (2*gamma[0], gamma[1], ...).

    The balance 2*gamma[0] + sum_{k>=1} gamma[k] = 1 is sum(x) = den.
    """
    head = 2 if m == 0 else 1
    if 2 * x[m] != (2 * m + 1) * head * den:
        raise VerificationError(
            f"leading coefficient must be (2m+1)/2, got {Fraction(x[m], head * den)}"
        )
    if sum(x) != den:
        raise VerificationError("residue balance 2*gamma_0 + sum gamma_2k = 1 violated")


@record
class BasisRepresentation:
    """zeta(-2m-1, s+2m+1) written over the even-index basis.

    gamma[k] multiplies zeta(-2k, s+2k).  Construction enforces the two
    structural facts that hold for every valid representation: the
    leading coefficient gamma[m] = (2m+1)/2, and the residue balance
    2*gamma[0] + sum_{k>=1} gamma[k] = 1 coming from the common pole at
    s = 1.  Violations raise VerificationError because they can only
    mean a corrupted derivation, not a bad argument.
    """

    m: int
    gamma: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(
            _fraction(x, "gamma[{}]", k) for k, x in enumerate(self.gamma)))
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if len(self.gamma) != self.m + 1:
            raise VerificationError("gamma must have length m + 1")
        den = lcm(*(g.denominator for g in self.gamma))
        nums = [g.numerator * (den // g.denominator) for g in self.gamma]
        _check_gamma(self.m, [2 * nums[0], *nums[1:]], den)

    def as_relation_vector(self) -> RelationVector:
        """The same identity as a zero relation over the family.

        Coefficient +1 on the target, -gamma[k] on each basis member.
        """
        coeffs = [ZERO] * (2 * self.m + 2)
        coeffs[2 * self.m + 1] = ONE
        for k, g in enumerate(self.gamma):
            coeffs[2 * k] = -g
        return RelationVector(coefficients=tuple(coeffs))


def basis_representation(m: int) -> BasisRepresentation:
    """Basis coefficients for zeta(-2m-1, s+2m+1) from the matrix path.

    The coefficients are row m+1 of A2 * A1^(-1), found without the
    inverse by solving x * A1 = (row m+1 of A2).  Both halves are lower
    triangular, so only the leading (m+1) x (m+1) block of A1 takes
    part: its row l is the integer row a_{2l+1,.} and the target is
    a_{2m+2,.}, both read from `coeff_row`.  The back-substitution is
    `_solve_left`, as in `relation_family`; its pivots are A1's diagonal
    entries (+-1 or +-2), and a zero pivot raises VerificationError.
    gamma is minus the even positions of the row `_family_terms` lays out.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    [terms] = _family_terms(0, range(m, m + 1))[1]
    gamma = tuple(Fraction(-n, d) for _, n, d in terms[:-1])
    return BasisRepresentation(m=m, gamma=gamma)


def residue_system_representation(m: int) -> BasisRepresentation:
    """The same coefficients derived purely from pole residues.

    Write the sought identity as the zero relation

        0 = zeta(-2m-1, s+2m+1) + sum_{k=1}^{m} c_{2k} zeta(-2k, s+2k)
            + c_0 * zeta(0,s)/2.

    Every member here has a simple pole at s = 2 - 2j for each j up to
    its index bound, with residue binom(2j-2-idx, 2j-1) * zeta(1-2j)
    where idx is the member's family index.  Matching residues at
    s = 2-2j involves only c_{2k} with k >= j, and the k = j weight
    binom(-2, 2j-1) never vanishes, so solving from j = m down to j = 1
    is triangular with one unknown each.  c_0 then comes from the pole
    at s = 1 where every term carries residue -1/2.  The untouched pole
    at s = 2 (residue 1/(idx+1), and 1/2 for the halved head) gives one
    redundant equation, checked at the end; an imbalance there would
    mean the system was inconsistent and raises VerificationError.
    Finally gamma = -c restores the positive convention, with gamma[0]
    absorbing the halving.  Every residue weight is an integer binomial
    with a negative top, taken through C(x, k) = (-1)^k C(k-x-1, k):

        binom(2j-3-2m, 2j-1) = -C(2m+1, 2j-1),
        binom(2j-2-2k, 2j-1) = -C(2k, 2j-1),
        binom(-2, 2j-1)      = -2j,

    so the solve keeps c_{2k} as integer numerators over one common
    denominator and builds each Fraction once.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    num: dict[int, int] = {}
    den = 1
    for j in range(m, 0, -1):
        rhs = -den * comb(2 * m + 1, 2 * j - 1)
        for k in range(j + 1, m + 1):
            rhs -= num[2 * k] * comb(2 * k, 2 * j - 1)
        piv = -2 * j
        g = gcd(rhs, piv)
        rhs //= g
        piv //= g
        if abs(piv) == 1:
            num[2 * j] = -rhs * piv
        else:
            num = {idx: x * piv for idx, x in num.items()}
            num[2 * j] = -rhs
            den *= piv
    # c_0 = n0 / den, and the balance at s = 2 over L * den
    n0 = -den - sum(num.values())
    L = lcm(2 * m + 2, *range(3, 2 * m + 2, 2))
    balance = den * (L // (2 * m + 2)) + n0 * (L // 2)
    balance += sum(num[2 * k] * (L // (2 * k + 1)) for k in range(1, m + 1))
    if balance != 0:
        raise VerificationError(
            f"residue system inconsistent at s = 2 for m = {m}: "
            f"imbalance {Fraction(balance, L * den)}"
        )
    gamma = [Fraction(-n0, 2 * den)] + [Fraction(-num[2 * k], den) for k in range(1, m + 1)]
    return BasisRepresentation(m=m, gamma=tuple(gamma))
