"""The mutant registry of `tests/mutants/run.py` stays applicable.

Running the mutants takes a pytest run each, so tier-1 only checks that
every entry still points at real text and real tests; a refactor that
moves a mutated line must update its entry.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutant_registry", _ROOT / "tests/mutants/run.py")
registry = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(registry)


def test_names_are_unique():
    names = [m.name for m in registry.MUTANTS]
    assert len(set(names)) == len(names) >= 6


@pytest.mark.parametrize("mutant", registry.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert (_ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", registry.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (_ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), node
