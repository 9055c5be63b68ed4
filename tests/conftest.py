"""Shared pytest plumbing.

Collects the one-line pass/fail records emitted by the acceptance tests
and prints them in a dedicated section of the terminal summary so they
stay visible even under captured output.  The `cli_stdout` fixture runs
one command line, for the tests of what the records render to.
"""

from __future__ import annotations

import pytest

import ezbasis.cli as cli

acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    acceptance_lines.append(line)


@pytest.fixture
def cli_stdout(capsys):
    """Run `cli.run(argv)`, check it exits 0 with no stderr, and give its stdout.

    The one trailing newline that `print` adds is left off.
    """

    def run(*argv: str) -> str:
        code = cli.run(list(argv))
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), err
        return out.removesuffix("\n")

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
