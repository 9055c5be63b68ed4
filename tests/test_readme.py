"""README's python examples and `ezbasis` command lines run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import ezbasis.cli as cli

_README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = _README.read_text(encoding="utf-8")
# (first line number, source) of every ```python block
_BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", _TEXT, re.M | re.S)
]
# (line number, command line) of every example of the `ezbasis` entry point
_COMMANDS = [
    (_TEXT.count("\n", 0, m.start()) + 1, m.group())
    for m in re.finditer(r"^ezbasis .*$", _TEXT, re.M)
]


def test_readme_has_python_blocks():
    assert _BLOCKS


# ids from the text, not the line numbers, so that a prose edit renames no case
@pytest.mark.parametrize("line, source", _BLOCKS, ids=[s.partition("\n")[0] for _, s in _BLOCKS])
def test_python_block_runs(line, source, capsys):
    # each block in a fresh namespace, so it must import what it uses;
    # the padding makes a traceback name the README line
    code = compile("\n" * (line - 1) + source, str(_README), "exec")
    exec(code, {"__name__": "__readme__"})
    assert capsys.readouterr().err == ""


def test_readme_has_command_lines():
    assert _COMMANDS


@pytest.mark.parametrize("line, command", _COMMANDS, ids=[c for _, c in _COMMANDS])
def test_command_line_runs(line, command, capsys):
    # in-process, as the entry point would run it
    code = cli.run(shlex.split(command)[1:])
    assert (code, capsys.readouterr().err) == (0, ""), f"README line {line}: {command}"
