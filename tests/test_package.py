"""The package namespace: what `ezbasis` exports, what importing it loads,
and the value records it returns."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import ezbasis
from ezbasis._record import record
from ezbasis.analytic import (
    S_EQ_2,
    ExactRelationReport,
    PoleRecord,
    PoleTable,
    ZetaShiftExpansion,
    pole_table,
)
from ezbasis.coeffs import CoeffMatrix, PowerSumReport
from ezbasis.exactnum import FaulhaberPoly
from ezbasis.numeval import NumericCheck, NumericReport, NumericResult
from ezbasis.relations import (
    MATRIX_PATH,
    RESIDUE_PATH,
    BasisFunction,
    BasisRepresentation,
    RelationVector,
)


def test_all_resolves_without_duplicates():
    assert len(set(ezbasis.__all__)) == len(ezbasis.__all__)
    for name in ezbasis.__all__:
        assert hasattr(ezbasis, name), name


def test_every_public_binding_is_exported():
    bound = {
        name
        for name, value in vars(ezbasis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= set(ezbasis.__all__), sorted(bound - set(ezbasis.__all__))


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a fresh process that finds src."""
    src = str(Path(ezbasis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


_IMPORT_AUDIT = """
import sys
before = set(sys.modules)
import ezbasis, ezbasis.cli
print(sorted({"dataclasses", "inspect", "ezbasis.numeval"} & (set(sys.modules) - before)))
from ezbasis import NumericReport
print(NumericReport.__module__, ezbasis.numeric_verify is ezbasis.numeval.numeric_verify)
"""


def test_import_loads_no_dataclasses_and_defers_numeval():
    proc = _run_fresh("-c", _IMPORT_AUDIT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "ezbasis.numeval True"]


def test_cold_numeric_verify_loads_numeval():
    proc = _run_fresh("-m", "ezbasis", "verify", "--n", "4", "--mode", "numeric",
                      "--cutoff", "1000", "--tol", "1e-4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").endswith("result: PASS")


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        ezbasis.frobnicate


# one instance of every value record, as (class, keyword arguments)
_RECORDS = [
    (CoeffMatrix, {"rows": 1, "cols": 2, "entries": ((F(1), F(-2, 3)),)}),
    (PowerSumReport, {"e_max": 3, "checked": 3, "failures": ()}),
    (FaulhaberPoly, {"c": 1, "coeffs": (F(1, 2), F(-1, 2), F(0))}),
    (RelationVector, {"coefficients": (F(1), F(-1)), "provenance": MATRIX_PATH}),
    (BasisRepresentation, {"m": 0, "gamma": (F(1, 2),), "provenance": RESIDUE_PATH}),
    (BasisFunction, {"c": 2}),
    (PoleRecord, {"location": 2, "residue": F(1, 3), "source_label": S_EQ_2,
                  "annotation": "x"}),
    (PoleTable, {"n": 1, "records": pole_table(1).records}),
    (ZetaShiftExpansion, {"c": 0, "q": (F(1), F(-1))}),
    (ExactRelationReport, {"n": 4, "relations_checked": 2,
                           "representations_checked": 2, "failures": ()}),
    (NumericResult, {"value": 1 + 2j, "tail_bound": 0.5, "terms_used": 3}),
    (NumericCheck, {"name": "x", "residual": 1.0, "bound": 2.0}),
    (NumericReport, {"n": 2, "s": 5 + 0j, "cutoff": 10, "tol": 1e-6,
                     "checks": (NumericCheck("x", 1.0, 2.0),)}),
]
_IDS = [cls.__name__ for cls, _ in _RECORDS]


@pytest.fixture(params=_RECORDS, ids=_IDS)
def record_case(request):
    cls, kwargs = request.param
    return cls, kwargs, cls(**kwargs)


class TestRecords:
    def test_fields_are_read_only(self, record_case):
        cls, kwargs, rec = record_case
        for name in kwargs:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(rec, name)
        assert rec == cls(**kwargs)

    def test_equal_to_its_own_class_only(self, record_case):
        cls, kwargs, rec = record_case
        values = tuple(getattr(rec, name) for name in kwargs)
        assert rec != values
        assert rec.__eq__(values) is NotImplemented
        twin = record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
        assert twin(*values) == twin(*values)
        assert rec != twin(*values)
        assert rec.__eq__(twin(*values)) is NotImplemented

    def test_equal_records_hash_equal(self, record_case):
        cls, kwargs, rec = record_case
        other = cls(**kwargs)
        assert other is not rec
        assert other == rec
        assert hash(other) == hash(rec)

    def test_positional_and_keyword_construction_agree(self, record_case):
        cls, kwargs, rec = record_case
        assert cls.__match_args__ == tuple(kwargs)
        assert cls(*kwargs.values()) == rec

    def test_missing_or_unknown_argument(self, record_case):
        cls, kwargs, _ = record_case
        first = next(iter(kwargs))
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != first})
        with pytest.raises(TypeError):
            cls(**kwargs, frobnicate=1)

    def test_match_reads_match_args(self, record_case):
        cls, kwargs, rec = record_case
        match rec:
            case cls(first):
                assert first == next(iter(kwargs.values()))
            case _:
                pytest.fail(f"{cls.__name__} did not match its own class pattern")


def test_record_defaults():
    assert PoleRecord(2, F(1, 3), S_EQ_2).annotation == ""
    assert BasisRepresentation(0, (F(1, 2),)).provenance == MATRIX_PATH


def test_record_repr_is_the_dataclass_text():
    assert repr(PoleRecord(2, F(1, 3), "s_eq_2")) == (
        "PoleRecord(location=2, residue=Fraction(1, 3), source_label='s_eq_2', annotation='')"
    )
