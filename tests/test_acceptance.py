"""Acceptance gate: the package's headline guarantees, each with a
runtime budget, reported as one pass/fail line per criterion in the
terminal summary."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from conftest import record_acceptance
from ezbasis.analytic import (
    independence_witness,
    residues_from_expansion,
    verify_relations_exact,
)
from ezbasis.coeffs import (
    CoeffMatrix,
    build_matrix_A,
    split_A1_A2,
    verify_power_sum_identity,
)
from ezbasis.numeval import eval_ez_double, numeric_verify, zeta_reference
from ezbasis.relations import (
    basis_list,
    basis_representation,
    dimension,
    residue_system_representation,
)
from ezbasis.trilinalg import invert_cofactor, invert_forward, mat_mul
from golden_values import A1_INV_12, A2_INV_12, A_12, GAMMA
from reference import row_sums


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _report(f"criterion {num:2d} ({label}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        line = (
            f"criterion {num:2d} ({label}): FAIL "
            f"(time {elapsed:.2f}s exceeds budget {budget:g}s)"
        )
        _report(line)
        pytest.fail(line)
    timing = f"{elapsed:.2f}s" + (f" / budget {budget:g}s" if budget else "")
    _report(f"criterion {num:2d} ({label}): pass ({timing})")


def _report(line: str) -> None:
    record_acceptance(line)
    print(line)


def test_criterion_01_golden_matrix_and_inverses():
    with criterion(1, "size-12 matrix and triangular inverses", budget=1.0):
        m = build_matrix_A(12)
        for i in range(12):
            for j in range(6):
                assert m.entries[i][j] == A_12[i][j]
        a1, a2 = split_A1_A2(m)
        inv1 = invert_forward(a1)
        inv2 = invert_forward(a2)
        for i in range(6):
            for j in range(6):
                assert inv1.entries[i][j] == A1_INV_12[i][j]
                assert inv2.entries[i][j] == A2_INV_12[i][j]


def test_criterion_02_golden_basis_coefficients():
    with criterion(2, "basis coefficients through m = 7", budget=1.0):
        for m, expected in GAMMA.items():
            assert basis_representation(m).gamma == expected
        lead = basis_representation(7).gamma[0]
        assert lead == F(-929569, 16)
        assert 929569 == 257 * 3617


def test_criterion_03_two_paths_agree():
    with criterion(3, "matrix and residue derivations agree m <= 30", budget=10.0):
        for m in range(31):
            assert (
                residue_system_representation(m).gamma
                == basis_representation(m).gamma
            )


def test_criterion_04_power_sum_identity():
    with criterion(4, "symbolic power-sum identity e <= 400", budget=60.0):
        report = verify_power_sum_identity(400)
        assert report.ok
        assert report.checked == 400


def test_criterion_05_inverse_row_sums():
    with criterion(5, "inverse row sums for every size N <= 200", budget=300.0):
        # sizes N and N+1 share their matrix, so each half-size once
        for n_prime in range(1, 101):
            a1, a2 = split_A1_A2(build_matrix_A(2 * n_prime))
            for m in (a1, a2):
                sums = row_sums(invert_forward(m))
                assert sums[0] == 1
                assert all(s == 0 for s in sums[1:])


def test_criterion_06_exact_relation_collapse():
    with criterion(6, "exact relation collapse at N = 60", budget=30.0):
        report = verify_relations_exact(60)
        assert report.ok
        assert report.relations_checked == 30
        assert report.representations_checked == 30


def test_criterion_07_expansion_residues():
    with criterion(7, "expansion residues match catalogs c <= 100", budget=5.0):
        for c in range(101):
            residues_from_expansion(c)


def test_criterion_08_witnesses_and_dimension():
    with criterion(8, "independence witnesses and span dimensions"):
        locations = []
        for m in range(1, 51):
            w = independence_witness(m)
            assert w.location == 2 - 2 * m
            assert w.residue != 0
            locations.append(w.location)
        assert len(set(locations)) == len(locations)
        for N in range(201):
            assert dimension(N) == N // 2 + 1
            assert len(basis_list(N)) == dimension(N)


def test_criterion_09_numeric_verification():
    with criterion(9, "numeric spot check at s = 5", budget=30.0):
        report = numeric_verify(12, 5.0, 100_000, 1e-6)
        assert report.passed
        assert report.max_residual < 1e-8
        direct = eval_ez_double(0, 5.0, 100_000)
        expected = zeta_reference(4) - zeta_reference(5)
        assert abs(direct.value - expected) < 1e-10


def test_criterion_10_random_inversion_cross_check():
    with criterion(10, "inversion algorithms on 100 random matrices", budget=60.0):
        rng = random.Random(183520251)
        for _ in range(100):
            n = rng.randint(1, 50)
            rows = []
            for i in range(n):
                row = [
                    F(rng.randint(-10_000, 10_000), rng.randint(1, 10_000))
                    for _ in range(i)
                ]
                diag = F(0)
                while diag == 0:
                    diag = F(rng.randint(-10_000, 10_000), rng.randint(1, 10_000))
                rows.append(row + [diag] + [F(0)] * (n - i - 1))
            m = CoeffMatrix.from_rows(rows)
            inv = invert_forward(m)
            assert invert_cofactor(m) == inv
            eye = CoeffMatrix.identity(n)
            assert mat_mul(m, inv) == eye
            assert mat_mul(inv, m) == eye
