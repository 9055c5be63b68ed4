"""Tests for the pole catalog, the shifted-zeta expansion, and the
exact relation oracle built on it."""

from __future__ import annotations

import inspect
import json
from fractions import Fraction as F
from math import comb, gcd

import pytest

import ezbasis.analytic as analytic
import ezbasis.cli as cli
import ezbasis.exactnum as exactnum
import ezbasis.relations as relations
import ezbasis.trilinalg as trilinalg
from ezbasis.analytic import (
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
from ezbasis.coeffs import ZERO
from ezbasis.errors import VerificationError
from ezbasis.exactnum import faulhaber
from ezbasis.relations import RelationVector, basis_representation, relation_family
import reference
from reference import gen_binomial, zeta_neg
from test_trilinalg import _fraction_news


@pytest.fixture
def fresh_memos():
    """Empty catalog and expansion memos before and after a test that patches their inputs."""
    memos = (analytic._catalog_ints, analytic._expansion_ints)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


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

    def test_residue_at_missing_location(self):
        assert pole_table(4).residue_at(-17) is ZERO

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

    def test_catalog_reads_no_expansion(self, monkeypatch, fresh_memos):
        # the catalog memo is emptied, so each table is built from scratch
        # while the expansion side refuses
        reference = [pole_table(n) for n in range(41)]
        analytic._catalog_ints.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("the direct catalog must not read an expansion")

        for name in ("_faulhaber_ints", "_expansion_ints", "zeta_shift_expansion"):
            monkeypatch.setattr(analytic, name, refuse)
        monkeypatch.setattr(exactnum, "_faulhaber_ints", refuse)
        monkeypatch.setattr(exactnum, "faulhaber", refuse)
        assert [pole_table(n) for n in range(41)] == reference

    def test_catalog_producer_reads_no_expansion(self, monkeypatch):
        # the memo of _catalog_ints is warm here, so the tables are built
        # from it, and then the producer and the tables are recomputed,
        # all while the expansion side refuses
        ints = [analytic._catalog_ints(n) for n in range(41)]
        tables = [pole_table(n) for n in range(41)]

        def refuse(*args, **kwargs):
            raise AssertionError("the direct catalog must not read an expansion")

        for name in ("_faulhaber_ints", "_expansion_ints", "zeta_shift_expansion"):
            monkeypatch.setattr(analytic, name, refuse)
        monkeypatch.setattr(exactnum, "_faulhaber_ints", refuse)
        monkeypatch.setattr(exactnum, "faulhaber", refuse)
        assert [pole_table(n) for n in range(41)] == tables
        assert [analytic._catalog_ints.__wrapped__(n) for n in range(41)] == ints
        monkeypatch.setattr(analytic, "_catalog_ints", analytic._catalog_ints.__wrapped__)
        assert [pole_table(n) for n in range(41)] == tables
        witnesses = [independence_witness(m) for m in range(1, 21)]
        assert witnesses == [t.records[-1] for t in tables[2::2]]

    def test_expansion_reads_no_catalog(self, monkeypatch):
        reference_q = [zeta_shift_expansion(c) for c in range(41)]
        reference_ints = [analytic._expansion_ints(c) for c in range(41)]

        def refuse(*args, **kwargs):
            raise AssertionError("the expansion must not read a catalog")

        for name in ("_catalog_ints", "pole_table", "comb"):
            monkeypatch.setattr(analytic, name, refuse)
        monkeypatch.setattr(analytic, "_expansion_ints", analytic._expansion_ints.__wrapped__)
        assert [analytic._expansion_ints(c) for c in range(41)] == reference_ints
        assert [zeta_shift_expansion(c) for c in range(41)] == reference_q

    def test_equals_the_fraction_per_record_construction(self):
        for n in range(301):
            records = pole_table(n).records
            assert records == tuple(PoleRecord(s, res) for s, res, _ in reference.pole_table(n))
            assert all(type(r.residue) is F for r in records)

    def test_integer_catalog_is_reduced(self):
        for n in range(121):
            locations, residues = analytic._catalog_ints(n)
            assert locations == pole_table(n).locations()
            assert all(q > 0 and gcd(p, q) == 1 for p, q in residues)

    def test_integer_catalog_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the integer catalog must not build a Fraction")

        expected = [analytic._catalog_ints(n) for n in range(61)]
        monkeypatch.setattr(exactnum, "Fraction", refuse)
        monkeypatch.setattr(analytic, "Fraction", refuse)
        assert [analytic._catalog_ints.__wrapped__(n) for n in range(61)] == expected

    def test_record_keeps_fractions_and_converts_others(self):
        x = F(1, 6)
        assert PoleRecord(location=0, residue=x).residue is x
        r = PoleRecord(location=2, residue=1)
        assert type(r.residue) is F and r.residue == 1

    def test_record_rejects_zero_residue(self):
        # the int, a fresh Fraction and the shared zero
        for zero in (0, F(0), ZERO):
            with pytest.raises(ValueError):
                PoleRecord(location=2, residue=zero)

    def test_record_rejects_bad_label(self):
        # a bad label is a location that no residue formula gives
        for location in (3, -1):
            with pytest.raises(ValueError, match=f"no residue formula .* at s = {location}$"):
                PoleRecord(location=location, residue=F(1))

    def test_table_rejects_wrong_count(self):
        only = (PoleRecord(location=2, residue=F(1)),)
        with pytest.raises(ValueError):
            PoleTable(n=0, records=only)

    def test_table_rejects_unsorted(self):
        recs = (
            PoleRecord(location=1, residue=F(-1)),
            PoleRecord(location=2, residue=F(1)),
        )
        with pytest.raises(ValueError):
            PoleTable(n=0, records=recs)

    def test_table_rejects_negative_n(self):
        # n = 0's records would pass every other check at n = -1
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            PoleTable(n=-1, records=pole_table(0).records)

    def test_json_shape(self, cli_stdout):
        d = json.loads(cli_stdout("poles", "--n", "3", "--format", "json"))
        assert d == {
            "n": 3,
            "poles": [
                {"s": 2, "residue": "1/4"},
                {"s": 1, "residue": "-1/2"},
                {"s": 0, "residue": "1/4"},
            ],
        }

    def test_latex(self, cli_stdout):
        text = cli_stdout("poles", "--n", "3", "--format", "latex")
        assert text.startswith("\\begin{array}{cccc}")
        assert " \\text{at} & s=2, & \\text{residue} & 1/4, \\\\" in text
        assert text.endswith("\\end{array}")

    def test_text(self, cli_stdout):
        text = cli_stdout("poles", "--n", "0")
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

    def test_record_rejects_negative_c(self):
        with pytest.raises(ValueError, match=r"^c must be >= 0$"):
            ZetaShiftExpansion(c=-1, q=())

    def test_lengths_and_pins(self):
        for c in range(41):
            e = zeta_shift_expansion(c)
            assert len(e.q) == (2 if c == 0 else c + 1)
            assert e.q[0] == F(1, c + 1)
            if c >= 1:
                assert e.q[1] == F(-1, 2)

    def test_matches_faulhaber(self):
        for c in range(1, 30):
            assert zeta_shift_expansion(c).q == faulhaber(c)[: c + 1]

    def test_equals_the_fraction_per_entry_construction(self):
        # the construction it replaced: one Fraction per Faulhaber numerator
        for c in range(121):
            den, nums = exactnum._faulhaber_ints(c)
            old = tuple(F(x, den) for x in (nums if c == 0 else nums[: c + 1]))
            q = zeta_shift_expansion(c).q
            assert q == old
            assert all(x is ZERO for x in q if not x)
            assert all(type(x) is F for x in q)

    def test_term_labels(self):
        # the labels the expand command writes; odd j >= 3 never render,
        # as their q_j vanish
        assert cli._shift_label(0) == "zeta(s-1)"
        assert cli._shift_label(1) == "zeta(s)"
        assert cli._shift_label(2) == "zeta(s+1)"
        assert cli._shift_label(3) == "zeta(s+2)"

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

    def test_json(self, cli_stdout):
        assert json.loads(cli_stdout("expand", "--c", "2", "--format", "json")) == {
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
    def test_equals_direct_catalog(self):
        for c in range(121):
            assert residues_from_expansion(c) == pole_table(c)

    def test_pinned_c4(self):
        t = residues_from_expansion(4)
        assert t.locations() == (2, 1, 0, -2)
        assert t.residue_at(-2) == gen_binomial(-2, 3) * zeta_neg(3)

    def test_equals_the_fraction_per_record_construction(self):
        for c in range(301):
            table = residues_from_expansion(c)
            expected = reference.residues_from_expansion(c, zeta_shift_expansion(c).q)
            assert table.n == c
            assert table.records == tuple(PoleRecord(*r) for r in expected)

    def test_one_fraction_per_record(self):
        for c in range(61):
            # the first call warms the integer producers
            records = residues_from_expansion(c).records
            assert _fraction_news(lambda: residues_from_expansion(c)) == len(records)

    @staticmethod
    def _fails_with(c, message):
        # the producers are warm, so any Fraction would come from the comparison
        analytic._catalog_ints(c)
        analytic._expansion_ints(c)

        def work():
            with pytest.raises(VerificationError) as info:
                residues_from_expansion(c)
            assert str(info.value) == message

        assert _fraction_news(work) == 0

    def test_corrupted_catalog_residue(self, monkeypatch, fresh_memos):
        # C(6, 3) = 21 in place of 20 at s = -2: 21 * (-1/30) / 4
        monkeypatch.setattr(analytic, "comb", lambda n, k: comb(n, k) + ((n, k) == (6, 3)))
        self._fails_with(6, "residue mismatch for c = 6 at s = -2: expansion -1/6 vs direct -7/40")
        residues_from_expansion(5)

    @pytest.mark.parametrize(
        "c, j, delta, message",
        [
            # q_2 of S_6 is 1/2; one more
            (6, 2, 1, "residue mismatch for c = 6 at s = 0: expansion 3/2 vs direct 1/2"),
            # c = 0 has integer residues, worded without a denominator
            (0, 1, -1, "residue mismatch for c = 0 at s = 1: expansion -2 vs direct -1"),
            # a nonzero odd Bernoulli slot adds a pole that no formula gives
            (6, 3, 1, "pole locations differ for c = 6: expansion (2, 1, 0, -1, -2, -4) "
                      "vs direct (2, 1, 0, -2, -4)"),
        ],
        ids=["fraction", "integer", "added"],
    )
    def test_corrupted_expansion_numerator(self, monkeypatch, fresh_memos, c, j, delta, message):
        faulhaber_ints = exactnum._faulhaber_ints

        def corrupted(k):
            den, nums = faulhaber_ints(k)
            if k == c:
                nums = list(nums)
                nums[j] += delta * den
            return den, nums

        monkeypatch.setattr(analytic, "_faulhaber_ints", corrupted)
        self._fails_with(c, message)
        residues_from_expansion(c + 1)

    @pytest.mark.parametrize(
        "edit, direct",
        [
            (lambda locations, residues: (locations[:-1], residues[:-1]), "(2, 1, 0, -2)"),
            # as many poles as the expansion's, one of them elsewhere
            (lambda locations, residues: (locations[:-1] + (-6,), residues), "(2, 1, 0, -2, -6)"),
        ],
        ids=["dropped", "moved"],
    )
    def test_corrupted_catalog_location(self, monkeypatch, fresh_memos, edit, direct):
        catalog_ints = analytic._catalog_ints

        def corrupted(n):
            return edit(*catalog_ints(n)) if n == 6 else catalog_ints(n)

        monkeypatch.setattr(analytic, "_catalog_ints", corrupted)
        self._fails_with(6, "pole locations differ for c = 6: "
                            f"expansion (2, 1, 0, -2, -4) vs direct {direct}")
        residues_from_expansion(7)

    @pytest.mark.parametrize("build", [zeta_shift_expansion, residues_from_expansion])
    def test_negative_c_names_c(self, build):
        with pytest.raises(ValueError, match=r"^c must be >= 0$"):
            build(-1)


class TestCollapseRelation:
    def test_valid_relation_collapses_to_nothing(self):
        for rel in relation_family(12):
            assert collapse_relation(rel) == {}

    def test_invalid_relation_leaves_residue(self):
        # zeta(0,s) = zeta(s-1) - zeta(s) and zeta(-1,s+1) = (zeta(s-1) - zeta(s))/2
        assert collapse_relation(RelationVector(coefficients=(F(1), F(-2)))) == {}
        bad = RelationVector(coefficients=(F(1), F(-1)))
        residual = collapse_relation(bad)
        # zeta(0,s) - zeta(-1,s+1): coordinates (1 - 1/2, -1 + 1/2)
        assert residual == {0: F(1, 2), 1: F(-1, 2)}

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
        for j, qj in enumerate(zeta_shift_expansion(p).q):
            if qj == 0:
                continue
            acc[j] = acc.get(j, F(0)) + w * qj
    return {j: v for j, v in acc.items() if v != 0}


def _corrupted(rel, position, delta):
    coeffs = list(rel.coefficients)
    coeffs[position] += delta
    return RelationVector(coefficients=tuple(coeffs))


def _vectors_n100():
    rels = relation_family(100)
    reps = [basis_representation(m).as_relation_vector() for m in range(50)]
    corrupted = [
        # position 0 weighs zeta(0,s) itself: pins the unhalved head
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
        rows = [terms for gen in relations._family_terms(50, range(50)) for terms in gen]

        def refuse(*args, **kwargs):
            raise AssertionError("the collapse oracle must not use the matrix path")

        for name, obj in vars(trilinalg).items():
            if inspect.isfunction(obj) and obj.__module__ == trilinalg.__name__:
                monkeypatch.setattr(trilinalg, name, refuse)
        for name in ("relation_family", "basis_representation", "_solve_left", "coeff_row"):
            monkeypatch.setattr(relations, name, refuse)
        monkeypatch.setattr(analytic, "_family_terms", refuse)
        monkeypatch.setattr(analytic, "_expansion_ints", analytic._expansion_ints.__wrapped__)
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

    def test_is_the_last_record_of_the_catalog(self, monkeypatch):
        tables = [pole_table(2 * m) for m in range(1, 61)]

        def refuse(*args, **kwargs):
            raise AssertionError("the witness must not build a pole table")

        monkeypatch.setattr(analytic, "pole_table", refuse)
        assert [independence_witness(m) for m in range(1, 61)] == [t.records[-1] for t in tables]
        # on a warm catalog, the one Fraction of the returned record
        assert all(_fraction_news(lambda: independence_witness(m)) == 1 for m in range(1, 61))

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            independence_witness(0)

    def test_missing_pole_is_caught(self, monkeypatch):
        catalog_ints = analytic._catalog_ints

        def truncated(n):
            locations, residues = catalog_ints(n)
            return locations[:-1], residues[:-1]

        monkeypatch.setattr(analytic, "_catalog_ints", truncated)
        message = r"^zeta\(-6,s\+6\) lacks the expected pole at s = -4$"
        with pytest.raises(VerificationError, match=message):
            independence_witness(3)

    def test_shared_location_below_is_caught(self, monkeypatch, fresh_memos):
        catalog_ints = analytic._catalog_ints

        def shared(n):
            locations, residues = catalog_ints(n)
            if n == 3:
                return locations + (-2,), residues + ((1, 1),)
            return locations, residues

        monkeypatch.setattr(analytic, "_catalog_ints", shared)
        assert independence_witness(1).location == 0
        message = r"^witness at s = -2 is not exclusive: zeta\(-3,s\+3\) shares it$"
        with pytest.raises(VerificationError, match=message):
            independence_witness(2)

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
