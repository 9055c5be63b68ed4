"""Tests for the pole catalog, the shifted-zeta expansion, and the
exact relation oracle built on it."""

from __future__ import annotations

import inspect
from fractions import Fraction as F
from math import gcd

import pytest

import ezbasis.analytic as analytic
import ezbasis.exactnum as exactnum
import ezbasis.relations as relations
import ezbasis.trilinalg as trilinalg
from ezbasis.analytic import (
    S_EQ_1,
    S_EQ_2,
    S_EQ_MINUS_2K,
    PoleRecord,
    PoleTable,
    ZetaShiftExpansion,
    collapse_relation,
    independence_witness,
    pole_table,
    residues_from_expansion,
    verify_relations_exact,
    zeta_shift_expansion,
)
from ezbasis.errors import VerificationError
from ezbasis.exactnum import faulhaber
from ezbasis.relations import (
    MATRIX_PATH,
    RelationVector,
    basis_representation,
    relation_family,
)
from reference import gen_binomial, zeta_neg


class TestPoleTable:
    def test_n0(self):
        t = pole_table(0)
        assert t.locations() == (2, 1)
        assert t.residue_at(2) == 1
        assert t.residue_at(1) == -1

    def test_n1(self):
        t = pole_table(1)
        assert t.locations() == (2, 1)
        assert t.residue_at(2) == F(1, 2)
        assert t.residue_at(1) == F(-1, 2)

    def test_n2(self):
        t = pole_table(2)
        assert t.locations() == (2, 1, 0)
        assert t.residue_at(2) == F(1, 3)
        assert t.residue_at(1) == F(-1, 2)
        # binom(-2,1) * zeta(-1) = (-2)(-1/12) = 1/6
        assert t.residue_at(0) == F(1, 6)

    def test_n3(self):
        t = pole_table(3)
        assert t.locations() == (2, 1, 0)
        assert t.residue_at(2) == F(1, 4)
        assert t.residue_at(0) == gen_binomial(-3, 1) * zeta_neg(1)
        assert t.residue_at(0) == F(1, 4)

    def test_counts_and_order(self):
        for n in range(41):
            t = pole_table(n)
            expected = 2 if n <= 1 else 2 + n // 2
            assert len(t.records) == expected
            locs = t.locations()
            assert locs[0] == 2 and locs[1] == 1
            assert list(locs) == sorted(locs, reverse=True)

    def test_source_labels(self):
        t = pole_table(6)
        assert t.records[0].source_label == S_EQ_2
        assert t.records[1].source_label == S_EQ_1
        assert all(r.source_label == S_EQ_MINUS_2K for r in t.records[2:])

    def test_residue_at_missing_location(self):
        assert pole_table(4).residue_at(-17) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pole_table(-1)

    def test_residues_match_the_binomial_zeta_formula(self):
        # the catalog evaluates C(n, 2k+1) B_{2k+2} / (2k+2); the formula
        # it stands for is binom(2k-n, 2k+1) * zeta(-2k-1)
        for n in range(301):
            for k, r in enumerate(pole_table(n).records[2:]):
                assert r.location == -2 * k
                assert r.residue == gen_binomial(2 * k - n, 2 * k + 1) * zeta_neg(2 * k + 1)
                assert type(r.residue) is F

    def test_catalog_reads_no_expansion(self, monkeypatch):
        reference = [pole_table(n) for n in range(41)]

        def refuse(*args, **kwargs):
            raise AssertionError("the direct catalog must not read an expansion")

        for name in ("_faulhaber_ints", "_expansion_ints", "zeta_shift_expansion"):
            monkeypatch.setattr(analytic, name, refuse)
        monkeypatch.setattr(exactnum, "_faulhaber_ints", refuse)
        monkeypatch.setattr(exactnum, "faulhaber", refuse)
        assert [pole_table.__wrapped__(n) for n in range(41)] == reference

    def test_record_keeps_fractions_and_converts_others(self):
        x = F(1, 6)
        assert PoleRecord(location=0, residue=x, source_label=S_EQ_MINUS_2K).residue is x
        r = PoleRecord(location=2, residue=1, source_label=S_EQ_2)
        assert type(r.residue) is F and r.residue == 1

    def test_record_rejects_zero_residue(self):
        with pytest.raises(ValueError):
            PoleRecord(location=2, residue=F(0), source_label=S_EQ_2)

    def test_record_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PoleRecord(location=2, residue=F(1), source_label="someplace")

    def test_table_rejects_wrong_count(self):
        only = (PoleRecord(location=2, residue=F(1), source_label=S_EQ_2),)
        with pytest.raises(ValueError):
            PoleTable(n=0, records=only)

    def test_table_rejects_unsorted(self):
        recs = (
            PoleRecord(location=1, residue=F(-1), source_label=S_EQ_1),
            PoleRecord(location=2, residue=F(1), source_label=S_EQ_2),
        )
        with pytest.raises(ValueError):
            PoleTable(n=0, records=recs)

    def test_json_shape(self):
        d = pole_table(3).to_json_dict()
        assert d == {
            "n": 3,
            "poles": [
                {"s": 2, "residue": "1/4"},
                {"s": 1, "residue": "-1/2"},
                {"s": 0, "residue": "1/4"},
            ],
        }

    def test_latex(self):
        text = pole_table(3).to_latex()
        assert text.startswith("\\begin{array}{cccc}")
        assert " \\text{at} & s=2, & \\text{residue} & 1/4, \\\\" in text
        assert text.endswith("\\end{array}")

    def test_text(self):
        text = pole_table(0).to_text()
        assert text.splitlines()[0] == "poles of zeta(0,s):"
        assert "s =   2" in text


class TestZetaShiftExpansion:
    def test_c0(self):
        e = zeta_shift_expansion(0)
        assert e.q == (F(1), F(-1))

    def test_c1(self):
        e = zeta_shift_expansion(1)
        assert e.q == (F(1, 2), F(-1, 2))

    def test_c2(self):
        e = zeta_shift_expansion(2)
        assert e.q == (F(1, 3), F(-1, 2), F(1, 6))

    def test_c3_trailing_zero(self):
        e = zeta_shift_expansion(3)
        assert e.q == (F(1, 4), F(-1, 2), F(1, 4), F(0))

    def test_lengths_and_pins(self):
        for c in range(41):
            e = zeta_shift_expansion(c)
            assert len(e.q) == (2 if c == 0 else c + 1)
            assert e.q[0] == F(1, c + 1)
            if c >= 1:
                assert e.q[1] == F(-1, 2)

    def test_matches_faulhaber(self):
        for c in range(1, 30):
            assert zeta_shift_expansion(c).q == faulhaber(c).coeffs[: c + 1]

    def test_term_labels(self):
        e = zeta_shift_expansion(3)
        assert e.term_label(0) == "zeta(s-1)"
        assert e.term_label(1) == "zeta(s)"
        assert e.term_label(2) == "zeta(s+1)"
        assert e.term_label(3) == "zeta(s+2)"

    def test_integer_form_matches_the_expansion(self):
        for c in range(151):
            den, pairs = analytic._expansion_ints(c)
            assert gcd(den, *(x for _, x in pairs)) == 1
            assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
            q = zeta_shift_expansion(c).q
            assert {j: F(x, den) for j, x in pairs} == {j: v for j, v in enumerate(q) if v}

    def test_integer_form_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the integer expansion must not build a Fraction")

        exactnum.bernoulli(60)
        expected = [analytic._expansion_ints(c) for c in range(61)]
        monkeypatch.setattr(exactnum, "Fraction", refuse)
        monkeypatch.setattr(analytic, "Fraction", refuse)
        assert [analytic._expansion_ints.__wrapped__(c) for c in range(61)] == expected

    def test_keeps_fractions_and_converts_others(self):
        half = F(1, 2)
        e = ZetaShiftExpansion(c=1, q=(half, F(-1, 2)))
        assert e.q[0] is half
        e = ZetaShiftExpansion(c=0, q=(1, -1))
        assert e.q == (1, -1) and all(type(x) is F for x in e.q)

    def test_json(self):
        assert zeta_shift_expansion(2).to_json_dict() == {
            "c": 2,
            "q": ["1/3", "-1/2", "1/6"],
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            ZetaShiftExpansion(c=1, q=(F(1, 2),))
        with pytest.raises(ValueError):
            ZetaShiftExpansion(c=1, q=(F(1, 3), F(-1, 2)))
        with pytest.raises(ValueError):
            ZetaShiftExpansion(c=1, q=(F(1, 2), F(-1, 3)))
        with pytest.raises(ValueError):
            ZetaShiftExpansion(c=0, q=(F(1), F(-2)))


class TestResiduesFromExpansion:
    def test_agrees_with_direct_catalog(self):
        for c in range(31):
            rebuilt = residues_from_expansion(c)
            direct = pole_table(c)
            assert rebuilt.locations() == direct.locations()
            for loc in rebuilt.locations():
                assert rebuilt.residue_at(loc) == direct.residue_at(loc)

    def test_pinned_c4(self):
        t = residues_from_expansion(4)
        assert t.locations() == (2, 1, 0, -2)
        assert t.residue_at(-2) == gen_binomial(-2, 3) * zeta_neg(3)

    @pytest.mark.parametrize("build", [zeta_shift_expansion, residues_from_expansion])
    def test_negative_c_names_c(self, build):
        with pytest.raises(ValueError, match=r"^c must be >= 0$"):
            build(-1)


class TestCollapseRelation:
    def test_valid_relation_collapses_to_nothing(self):
        for rel in relation_family(12):
            assert collapse_relation(rel) == {}

    def test_invalid_relation_leaves_residue(self):
        bad = RelationVector(coefficients=(F(1), F(-2)), provenance=MATRIX_PATH)
        residual = collapse_relation(bad)
        # zeta(0,s)/2 - 2 zeta(-1,s+1): coordinates (1/2 - 1, -1/2 + 1)
        assert residual == {0: F(-1, 2), 1: F(1, 2)}

    def test_representation_vectors_collapse(self):
        for m in range(8):
            rel = basis_representation(m).as_relation_vector()
            assert collapse_relation(rel) == {}


def _collapse_reference(rel):
    # the plain Fraction accumulation the integer kernel replaced
    acc = {}
    for p, w in enumerate(rel.coefficients):
        if w == 0:
            continue
        scale = w / 2 if p == 0 else w
        for j, qj in enumerate(zeta_shift_expansion(p).q):
            if qj == 0:
                continue
            acc[j] = acc.get(j, F(0)) + scale * qj
    return {j: v for j, v in acc.items() if v != 0}


def _corrupted(rel, position, delta):
    coeffs = list(rel.coefficients)
    coeffs[position] += delta
    return RelationVector(coefficients=tuple(coeffs), provenance=rel.provenance)


def _vectors_n100():
    rels = relation_family(100)
    reps = [basis_representation(m).as_relation_vector() for m in range(50)]
    corrupted = [
        # position 0 stands for zeta(0,s)/2: pins the halving
        _corrupted(rels[9], 0, F(1, 3)),
        # q of c = 5 has zeros at j = 3 and j = 5
        _corrupted(rels[19], 5, F(-1, 7)),
        _corrupted(reps[30], 61, F(5, 11)),
    ]
    return rels + reps, corrupted


def _terms(rel):
    return [(p, w.numerator, w.denominator) for p, w in enumerate(rel.coefficients)]


def _coordinates(terms):
    D, acc = analytic._collapse(terms)
    return {j: F(v, D) for j, v in enumerate(acc) if v}


class TestCollapseAgainstFractionLoop:
    def test_family_n100_and_corruptions(self):
        exact, corrupted = _vectors_n100()
        for rel in exact:
            assert collapse_relation(rel) == _collapse_reference(rel) == {}
        for rel in corrupted:
            got = collapse_relation(rel)
            assert got == _collapse_reference(rel)
            assert got and all(type(v) is F for v in got.values())
        assert set(collapse_relation(corrupted[0])) == {0, 1}
        assert set(collapse_relation(corrupted[1])) == {0, 1, 2, 4}

    def test_independent_of_matrix_path(self, monkeypatch):
        exact, corrupted = _vectors_n100()
        expected = [_collapse_reference(rel) for rel in corrupted]
        rows = [terms for _, terms in analytic._family_terms(100)]

        def refuse(*args, **kwargs):
            raise AssertionError("the collapse oracle must not use the matrix path")

        for name, obj in vars(trilinalg).items():
            if inspect.isfunction(obj) and obj.__module__ == trilinalg.__name__:
                monkeypatch.setattr(trilinalg, name, refuse)
        for name in ("relation_family", "basis_representation", "_solved_rows",
                     "_solve_left", "coeff_row"):
            monkeypatch.setattr(relations, name, refuse)
        monkeypatch.setattr(analytic, "_solved_rows", refuse)
        monkeypatch.setattr(analytic, "_expansion_ints", analytic._expansion_ints.__wrapped__)
        zeta_shift_expansion.cache_clear()
        for rel in exact:
            assert collapse_relation(rel) == {}
        assert [collapse_relation(rel) for rel in corrupted] == expected
        # the integer kernel on the verify rows and on the same weights
        for terms in rows:
            assert not any(analytic._collapse(terms)[1])
        assert [_coordinates(_terms(rel)) for rel in corrupted] == expected

    def test_imports_nothing_from_trilinalg(self):
        assert not any(
            getattr(obj, "__module__", None) == trilinalg.__name__
            for obj in vars(analytic).values()
        )


class TestFamilyTerms:
    @pytest.mark.parametrize("N", [2, 3, 12, 13, 61, 100])
    def test_rows_match_the_public_objects(self, N):
        # the integer rows the exact verify collapses are the relation
        # vectors and representations, entry for entry
        public = [(f"relation {i}", rel) for i, rel in enumerate(relation_family(N), start=1)]
        public += [
            (f"representation m = {m}", basis_representation(m).as_relation_vector())
            for m in range((N + 1) // 2)
        ]
        rows = list(analytic._family_terms(N))
        assert [origin for origin, _ in rows] == [origin for origin, _ in public]
        for (origin, terms), (_, rel) in zip(rows, public):
            weights = {p: F(n, d) for p, n, d in terms}
            assert len(weights) == len(terms), origin
            coeffs = [weights.pop(p, F(0)) for p in range(len(rel.coefficients))]
            assert coeffs == list(rel.coefficients) and not weights, origin

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
        report = verify_relations_exact(61)
        assert report.ok and report.relations_checked == 30


class TestVerifyRelationsExact:
    def test_n2(self):
        report = verify_relations_exact(2)
        assert report.ok
        assert report.relations_checked == 1
        assert report.representations_checked == 1

    def test_n12(self):
        report = verify_relations_exact(12)
        assert report.ok
        assert report.relations_checked == 6
        assert report.representations_checked == 6

    @pytest.mark.parametrize("N", [13, 61])
    def test_odd_n_adds_one_representation(self, N):
        # relations use n' = (N-1)/2, representations the larger (N+1)/2
        report = verify_relations_exact(N)
        assert report.ok
        assert report.relations_checked == (N - 1) // 2
        assert report.representations_checked == (N + 1) // 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify_relations_exact(1)


class TestIndependenceWitness:
    def test_m1(self):
        w = independence_witness(1)
        assert w.location == 0
        assert w.residue == F(1, 6)

    def test_m2(self):
        w = independence_witness(2)
        assert w.location == -2
        # binom(-2,3) * zeta(-3) = (-4)(1/120) = -1/30
        assert w.residue == F(-1, 30)

    def test_m3_location(self):
        assert independence_witness(3).location == -4

    def test_distinct_locations(self):
        locs = [independence_witness(m).location for m in range(1, 21)]
        assert len(set(locs)) == len(locs)
        assert locs == sorted(locs, reverse=True)

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            independence_witness(0)

    def test_witness_absent_below(self):
        # spot-check the exclusivity the function asserts internally
        for m in (1, 2, 5):
            loc = 2 - 2 * m
            for c in range(2 * m):
                assert pole_table(c).residue_at(loc) == 0
            assert pole_table(2 * m).residue_at(loc) != 0


class TestResidueBalanceAcrossTables:
    def test_representation_residues_match(self):
        # at every shared pole the residues of both sides of the basis
        # identity must agree; checked directly from the tables
        for m in range(1, 31):
            rep = basis_representation(m)
            target = pole_table(2 * m + 1)
            for loc in target.locations():
                lhs = target.residue_at(loc)
                rhs = sum(
                    (g * pole_table(2 * k).residue_at(loc) for k, g in
                     enumerate(rep.gamma)),
                    F(0),
                )
                assert lhs == rhs, f"m = {m}, s = {loc}"
