"""`tools/ceilings.py` picks its rows by whole words.

The script times commands at their ceilings, which takes minutes, so
tier-1 checks only its row filter and runs no command.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ceilings", _ROOT / "tools/ceilings.py")
ceilings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ceilings)


def test_no_words_select_every_row():
    assert ceilings.select([]) == ceilings.COMMANDS


def test_a_size_selects_only_its_own_row():
    # "verify --n 40" is a string prefix of "verify --n 400 --mode exact"
    assert ceilings.select(["verify", "--n", "40"]) == [
        "verify --n 40 --mode numeric --s 4+3i --cutoff 1000000 --tol 1e16"]
    assert ceilings.select(["verify", "--n", "400"]) == ["verify --n 400 --mode exact"]


def test_a_command_selects_all_its_rows():
    rows = ceilings.select(["invert"])
    assert rows == ["invert --n 600", "invert --n 600 --oracle"]
    assert ceilings.select(["verify"]) == [c for c in ceilings.COMMANDS if c.startswith("verify ")]


def test_a_partial_word_selects_nothing():
    assert ceilings.select(["verif"]) == []
    assert ceilings.select(["invert", "--n", "6"]) == []
