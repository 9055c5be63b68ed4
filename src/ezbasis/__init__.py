"""Exact constructions and verifications for the double zeta family
zeta(-c, s+c).

The package builds the integer coefficient matrix governing the
Q-linear relations among Euler-Zagier double zeta functions with
non-positive first argument, inverts its triangular halves exactly,
produces the relation family and the odd-index basis representations,
catalogs every pole with its exact residue, and verifies all of it
through independent oracles: a second inversion algorithm, a
residue-matching derivation of the basis coefficients, an exact
expansion over shifted Riemann zeta functions, and floating-point
summation with truncation bounds.  All symbolic data is
`fractions.Fraction`; nothing symbolic ever touches a float.
"""

from .coeffs import (
    CoeffMatrix,
    PowerSumReport,
    build_matrix_A,
    split_A1_A2,
    tornheim_decomposition,
    verify_power_sum_identity,
)
from .analytic import (
    PoleRecord,
    PoleTable,
    ZetaShiftExpansion,
    independence_witness,
    pole_table,
    residues_from_expansion,
    verify_relations_exact,
    zeta_shift_expansion,
)
from .errors import SingularMatrixError, VerificationError
from .exactnum import bernoulli, faulhaber, rat_to_str
from .relations import (
    BasisRepresentation,
    RelationVector,
    basis_representation,
    relation_family,
    residue_system_representation,
)
# trilinalg stays an eager import: perfbench/tracer.py rebinds only the
# modules loaded before it installs, so a lazy trilinalg would read 0 in
# every trilinalg.* per-layer metric
from .trilinalg import invert_cofactor, invert_forward, mat_mul

__version__ = "0.1.0"

__all__ = [
    "BasisRepresentation",
    "CoeffMatrix",
    "NumericReport",
    "NumericResult",
    "PoleRecord",
    "PoleTable",
    "PowerSumReport",
    "RelationVector",
    "SingularMatrixError",
    "VerificationError",
    "ZetaShiftExpansion",
    "basis_representation",
    "bernoulli",
    "build_matrix_A",
    "eval_ez_double",
    "eval_tornheim",
    "faulhaber",
    "independence_witness",
    "invert_cofactor",
    "invert_forward",
    "mat_mul",
    "numeric_verify",
    "pole_table",
    "rat_to_str",
    "relation_family",
    "residue_system_representation",
    "residues_from_expansion",
    "split_A1_A2",
    "tornheim_decomposition",
    "verify_power_sum_identity",
    "verify_relations_exact",
    "zeta_reference",
    "zeta_shift_expansion",
]

# numeval loads on first use: no exact command needs it, and importing
# it costs every command-line start a few milliseconds; every other
# name in __all__ is bound above


def __getattr__(name: str):
    if name in __all__:
        from . import numeval

        return getattr(numeval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
