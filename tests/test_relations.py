"""Tests for the relation family and the two basis-coefficient paths."""

from __future__ import annotations

import inspect
import json
from fractions import Fraction as F
from math import comb

import pytest

from ezbasis import analytic, coeffs, relations, trilinalg
from ezbasis.coeffs import build_matrix_A, split_A1_A2
from ezbasis.errors import VerificationError
from ezbasis.relations import (
    BasisRepresentation,
    RelationVector,
    basis_representation,
    function_label,
    relation_family,
    residue_system_representation,
)
from ezbasis.trilinalg import invert_forward
from golden_values import A1_INV_12, A2_INV_12, BASIS_LATEX_M5, GAMMA
from reference import gen_binomial


class TestFunctionLabel:
    def test_labels(self):
        assert function_label(0) == "zeta(0,s)"
        assert function_label(1) == "zeta(-1,s+1)"
        assert function_label(10) == "zeta(-10,s+10)"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            function_label(-1)


class TestRelationVector:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            RelationVector(coefficients=(F(0), F(0)))

    def test_frozen(self):
        r = RelationVector(coefficients=(F(1),))
        with pytest.raises(AttributeError):
            r.coefficients = (F(2),)


class TestRelationFamily:
    def test_count(self):
        assert len(relation_family(12)) == 6
        assert len(relation_family(2)) == 1
        assert len(relation_family(13)) == 6

    def test_first_relation(self):
        # zeta(0,s)/2 - zeta(-1,s+1) = 0
        fam = relation_family(4)
        assert fam[0].coefficients == (F(1, 2), F(-1), F(0), F(0))

    def test_second_relation(self):
        fam = relation_family(4)
        assert fam[1].coefficients == (F(1, 4), F(-1, 3), F(-1, 2), F(1, 3))

    def test_interleaving_matches_inverses(self):
        # row i of A1^(-1) with entry 0 halved, and row i of -A2^(-1)
        fam = relation_family(12)
        for i in range(6):
            assert fam[i].coefficients[0] == A1_INV_12[i][0] / 2
            for k in range(1, 6):
                assert fam[i].coefficients[2 * k] == A1_INV_12[i][k]
            for k in range(6):
                assert fam[i].coefficients[2 * k + 1] == -A2_INV_12[i][k]

    def test_interleaves_the_forward_inverses(self):
        # the route the back-substitutions replaced: both inverses in
        # full, with entry 0 of each A1^(-1) row halved
        for N in range(2, 61):
            a1, a2 = split_A1_A2(build_matrix_A(N))
            inv1 = invert_forward(a1).entries
            inv2 = invert_forward(a2).entries
            expected = [
                tuple(v for x, y in zip((r1[0] / 2, *r1[1:]), r2) for v in (x, -y))
                for r1, r2 in zip(inv1, inv2)
            ]
            assert [r.coefficients for r in relation_family(N)] == expected, f"N = {N}"

    def test_halves_the_solved_head_only(self, monkeypatch):
        # the solve weighs zeta(0,s)/2; the family weighs zeta(0,s)
        # itself, and every other position as solved
        kernel = relations._solve_left
        solves = []

        def spy(cols, target, half, context):
            solves.append((half, kernel(cols, target, half, context)))
            return solves[-1][1]

        monkeypatch.setattr(relations, "_solve_left", spy)
        for N in (2, 3, 12, 13, 61):
            solves.clear()
            family = relation_family(N)
            # relation i solves against A1, then against A2
            assert [half for half, _ in solves] == [1, 2] * (N // 2)
            rels = [(*x, *y) for (_, x), (_, y) in zip(solves[::2], solves[1::2])]
            for rel, (x, dx, y, dy) in zip(family, rels, strict=True):
                solved = [v for k in range(len(x)) for v in (F(x[k], dx), F(-y[k], dy))]
                solved += [F(0)] * (2 * (N // 2) - len(solved))
                assert rel.coefficients == (solved[0] / 2, *solved[1:]), f"N = {N}"

    def test_imports_nothing_from_trilinalg(self):
        assert not any(
            getattr(obj, "__module__", None) == trilinalg.__name__
            for obj in vars(relations).values()
        )

    def test_too_small(self):
        with pytest.raises(ValueError):
            relation_family(1)


class TestBasisRepresentation:
    def test_golden_gammas(self):
        for m, expected in GAMMA.items():
            rep = basis_representation(m)
            assert rep.gamma == expected, f"m = {m}"

    def test_leading_coefficient_rule(self):
        for m in range(12):
            assert basis_representation(m).gamma[m] == F(2 * m + 1, 2)

    def test_residue_balance_rule(self):
        for m in range(12):
            g = basis_representation(m).gamma
            assert 2 * g[0] + sum(g[1:]) == 1

    def test_enlarged_matrix_same_answer(self):
        # row m of A2 * A1^(-1) does not change when the matrix grows
        for m in range(6):
            for size in (m + 1, m + 4, m + 10):
                assert basis_representation(m).gamma == _gamma_reference(size)[m]

    def test_negative_m(self):
        with pytest.raises(ValueError):
            basis_representation(-1)

    def test_constructor_rejects_negative_m(self):
        with pytest.raises(ValueError, match=r"^m must be >= 0$"):
            BasisRepresentation(m=-1, gamma=())

    def test_target_label(self, cli_stdout):
        out = cli_stdout("basis", "--m", "2", "--format", "json")
        assert json.loads(out)["target"] == "zeta(-5,s+5)"

    def test_constructor_rejects_wrong_length(self):
        with pytest.raises(VerificationError):
            BasisRepresentation(m=1, gamma=(F(1, 2),))

    def test_constructor_rejects_wrong_leading(self):
        with pytest.raises(VerificationError):
            BasisRepresentation(m=1, gamma=(F(-1, 4), F(5, 2)))

    def test_constructor_rejects_unbalanced(self):
        # leading term right but balance broken
        with pytest.raises(VerificationError):
            BasisRepresentation(m=1, gamma=(F(0), F(3, 2)))

    @pytest.mark.parametrize("m", [1, 3, 10, 40])
    def test_constructor_rejects_broken_balance(self, m):
        gamma = basis_representation(m).gamma
        for k in range(m):
            for delta in (F(1), F(-1, 2), F(1, 2**40), F(-1, 3**m)):
                broken = gamma[:k] + (gamma[k] + delta,) + gamma[k + 1:]
                with pytest.raises(VerificationError, match="residue balance"):
                    BasisRepresentation(m=m, gamma=broken)
        if m >= 2:
            # gamma_0 counts twice: moving delta off gamma_0 and 2 delta
            # onto gamma_1 keeps the balance
            delta = F(5, 7)
            shifted = (gamma[0] - delta, gamma[1] + 2 * delta) + gamma[2:]
            BasisRepresentation(m=m, gamma=shifted)

    def test_fractions_are_kept_and_others_converted(self):
        rep = basis_representation(5)
        again = BasisRepresentation(m=5, gamma=rep.gamma)
        assert all(a is b for a, b in zip(again.gamma, rep.gamma))
        rel = RelationVector(coefficients=(1, F(-1, 2), 0))
        assert rel.coefficients == (F(1), F(-1, 2), F(0))
        assert all(type(x) is F for x in rel.coefficients)
        mixed = BasisRepresentation(m=2, gamma=(F(-1, 4), -1, F(5, 2)))
        assert type(mixed.gamma[1]) is F

    def test_as_relation_vector(self):
        # gamma = (-1/4, 3/2): -gamma[k] at 2k, the head included
        rel = basis_representation(1).as_relation_vector()
        assert rel.coefficients == (F(1, 4), F(0), F(-3, 2), F(1))
        for m in (0, 5, 30):
            rep = basis_representation(m)
            coeffs = rep.as_relation_vector().coefficients
            assert coeffs[0::2] == tuple(-g for g in rep.gamma)
            assert coeffs[1::2] == (F(0),) * m + (F(1),)

    def test_json_dict(self, cli_stdout):
        d = json.loads(cli_stdout("basis", "--m", "1", "--format", "json"))
        assert d == {
            "target": "zeta(-3,s+3)",
            "coeffs": {"0": "-1/4", "2": "3/2"},
        }

    def test_latex_m5(self, cli_stdout):
        # whitespace-insensitive: the reference line uses display spacing
        text = cli_stdout("basis", "--m", "5", "--format", "latex")
        assert "".join(text.split()) == "".join(BASIS_LATEX_M5.split())

    def test_latex_m0(self, cli_stdout):
        out = cli_stdout("basis", "--m", "0", "--format", "latex")
        assert out == "\\zeta(-1,s+1) = \\zeta(0,s)/2"

    def test_text_m1(self, cli_stdout):
        assert cli_stdout("basis", "--m", "1") == "zeta(-3,s+3) = 3/2 zeta(-2,s+2) - 1/4 zeta(0,s)"


def _gamma_reference(size):
    # row m of A2 * A1^(-1) by Fraction sums over the full inverse,
    # the product the back-substitution replaced, for every m < size
    a1, a2 = split_A1_A2(build_matrix_A(2 * size))
    inv1 = invert_forward(a1).entries
    out = []
    for m in range(size):
        a2_row = a2.entries[m]
        row = [
            sum((a2_row[l] * inv1[l][k] for l in range(k, m + 1) if a2_row[l]), F(0))
            for k in range(m + 1)
        ]
        out.append(tuple([row[0] / 2] + row[1:]))
    return out


class TestRowKernelAgainstFractionLoop:
    def test_shared_size_50(self):
        # row m of A2 * A1^(-1) is the same at every size above m, so
        # one size-50 reference serves every m < 50
        for m, ref in enumerate(_gamma_reference(50)):
            gamma = basis_representation(m).gamma
            assert gamma == ref, f"m = {m}"
            assert all(type(g) is F for g in gamma)

    def test_default_size(self):
        # the same rows walked from the top down: no call depends on
        # an earlier one
        reference = _gamma_reference(50)
        for m in reversed(range(50)):
            assert basis_representation(m).gamma == reference[m], f"m = {m}"

    def test_builds_no_inverse(self, monkeypatch):
        reference = _gamma_reference(50)
        kernel = relations._solve_left
        solves = []

        def refuse(*args, **kwargs):
            raise AssertionError("basis_representation must not invert a matrix")

        def spy(cols, target, half, context):
            solves.append((len(target), half))
            return kernel(cols, target, half, context)

        for name, obj in vars(trilinalg).items():
            if inspect.isfunction(obj) and obj.__module__ == trilinalg.__name__:
                monkeypatch.setattr(trilinalg, name, refuse)
        monkeypatch.setattr(relations, "relation_family", refuse)
        monkeypatch.setattr(relations, "_solve_left", spy)
        for m, ref in enumerate(reference):
            assert basis_representation(m).gamma == ref, f"m = {m}"
        # one solve against the leading block of A1 per row, no inverse rows
        assert solves == [(m + 1, 1) for m in range(50)]


def _corrupt_row(monkeypatch, c, d, value):
    # a copy of the family with a_{c,d} replaced; rows 1..12 are built first
    coeffs.coeff_row(12)
    rows = [list(r) for r in coeffs._coeff_rows]
    rows[c - 1][d - 1] = value
    monkeypatch.setattr(coeffs, "_coeff_rows", rows)


class TestBackSubstitutionSafety:
    def test_zero_pivot_is_reported(self, monkeypatch):
        # a_{7,4} is the fourth diagonal entry of A1
        _corrupt_row(monkeypatch, 7, 4, 0)
        with pytest.raises(VerificationError, match=r"a_\{7,4\}.*position 4"):
            basis_representation(5)

    @pytest.mark.parametrize("c, d, half", [(7, 4, 1), (10, 5, 2)])
    def test_zero_pivot_in_the_relation_family(self, monkeypatch, c, d, half):
        # a_{7,4} is the fourth diagonal entry of A1, a_{10,5} the fifth of A2
        _corrupt_row(monkeypatch, c, d, 0)
        with pytest.raises(
            VerificationError, match=rf"a_\{{{c},{d}\}} at diagonal position {d} of A{half}"
        ):
            relation_family(12)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_corrupted_a2_entry_is_caught(self, monkeypatch, d):
        # row 12 of the family is row 6 of A2, the target row for m = 5
        _corrupt_row(monkeypatch, 12, d, coeffs.coeff_row(12)[d - 1] + 1)
        try:
            rep = basis_representation(5)
        except VerificationError:
            return
        assert rep.gamma != residue_system_representation(5).gamma


def _residue_weight(idx, j):
    # residue of family member idx at s = 2 - 2j, up to the factor zeta(1-2j)
    return gen_binomial(2 * j - 2 - idx, 2 * j - 1)


def _residue_system_reference(m, weight=_residue_weight):
    """The residue solve in plain Fractions: (gamma, imbalance at s = 2)."""
    c = {}
    for j in range(m, 0, -1):
        rhs = weight(2 * m + 1, j) + sum(c[2 * k] * weight(2 * k, j) for k in range(j + 1, m + 1))
        c[2 * j] = -rhs / weight(2 * j, j)
    c0 = -(1 + sum(c.values(), F(0)))
    balance = F(1, 2 * m + 2) + sum((c[2 * k] / (2 * k + 1) for k in range(1, m + 1)), F(0))
    balance += c0 / 2
    return (-c0 / 2, *(-c[2 * k] for k in range(1, m + 1))), balance


class TestResiduePath:
    def test_agrees_with_matrix_path(self):
        for m in range(61):
            mat = basis_representation(m)
            res = residue_system_representation(m)
            assert res == mat, f"m = {m}"

    def test_integer_weights_match_the_binomials(self):
        # the three weights the solve takes as integers
        for m in range(61):
            for j in range(1, m + 1):
                assert gen_binomial(2 * j - 3 - 2 * m, 2 * j - 1) == -comb(2 * m + 1, 2 * j - 1)
                assert gen_binomial(-2, 2 * j - 1) == -2 * j
                for k in range(j + 1, m + 1):
                    assert gen_binomial(2 * j - 2 - 2 * k, 2 * j - 1) == -comb(2 * k, 2 * j - 1)

    def test_matches_the_fraction_solve(self):
        for m in range(31):
            gamma, balance = _residue_system_reference(m)
            assert balance == 0
            assert residue_system_representation(m).gamma == gamma, f"m = {m}"

    def test_inconsistent_system_is_reported(self, monkeypatch):
        # a wrong weight of the target at s = 0 breaks the redundant
        # equation at s = 2; the message carries the exact imbalance
        m = 4

        def wrong_weight(idx, j):
            w = _residue_weight(idx, j)
            return w - 1 if (idx, j) == (2 * m + 1, 1) else w

        def wrong_comb(n, k):
            return comb(n, k) + (1 if (n, k) == (2 * m + 1, 1) else 0)

        _, imbalance = _residue_system_reference(m, wrong_weight)
        assert imbalance != 0
        monkeypatch.setattr(relations, "comb", wrong_comb)
        with pytest.raises(VerificationError) as info:
            residue_system_representation(m)
        assert str(info.value) == (
            f"residue system inconsistent at s = 2 for m = {m}: imbalance {imbalance}"
        )

    def test_reads_no_matrix(self, monkeypatch):
        reference = [residue_system_representation(m).gamma for m in range(21)]

        def refuse(*args, **kwargs):
            raise AssertionError("the residue path must not read the matrix path")

        for module in (trilinalg, coeffs):
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    monkeypatch.setattr(module, name, refuse)
        for name in ("coeff_row", "_columns", "_solve_left"):
            monkeypatch.setattr(relations, name, refuse)
        assert [residue_system_representation(m).gamma for m in range(21)] == reference

    def test_pinned_m3(self):
        assert residue_system_representation(3).gamma == GAMMA[3]

    def test_pinned_m7(self):
        rep = residue_system_representation(7)
        assert rep.gamma == GAMMA[7]
        assert rep.gamma[0] == F(-929569, 16)
        assert 929569 == 257 * 3617

    def test_negative_m(self):
        with pytest.raises(ValueError):
            residue_system_representation(-2)


class TestFamilyTerms:
    @pytest.mark.parametrize("N", [2, 3, 12, 13, 61, 100])
    def test_rows_match_the_public_objects(self, N):
        # the integer rows both verifiers read are the relation vectors
        # and the representations, entry for entry, in ascending position
        rels, reps = relations._family_terms(N // 2, range((N + 1) // 2))
        rows = [*rels, *reps]
        public = relation_family(N)
        public += [basis_representation(m).as_relation_vector() for m in range((N + 1) // 2)]
        assert len(rows) == len(public) == N
        for i, (terms, rel) in enumerate(zip(rows, public)):
            positions = [p for p, _, _ in terms]
            assert positions == sorted(set(positions)), i
            weights = {p: F(n, d) for p, n, d in terms}
            coeffs = [weights.pop(p, F(0)) for p in range(len(rel.coefficients))]
            assert coeffs == list(rel.coefficients) and not weights, i

    def test_kernel_reduces_each_term(self):
        # 6/4 of zeta(-1,s+1) is 3/2: unreduced terms give the same
        # coordinates over the same least denominator
        D, acc = analytic._collapse([(1, 6, 4)])
        assert (D, acc) == analytic._collapse([(1, 3, 2)])
        assert D == 4 and acc == [3, -3, 0]

    def test_verify_builds_no_fraction_or_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact verify must stay on integer rows")

        for module in (relations, analytic):
            monkeypatch.setattr(module, "Fraction", refuse)
        for name in ("RelationVector", "BasisRepresentation", "relation_family",
                     "basis_representation"):
            monkeypatch.setattr(relations, name, refuse)
        report = analytic.verify_relations_exact(61)
        assert report.ok and report.relations_checked == 30
