"""List the lines of ezbasis's functions that no tier-1 test executes.

Run from anywhere, with pytest installed:

    python3 tools/unreached.py

The script takes no arguments.  It installs a `sys.settrace` hook and
then runs pytest in this process on the repository's `tests` directory.
The hook traces only frames whose code lives in `src/ezbasis`, and
records each line that such a frame executes.  The candidates are the
lines of every function, method, lambda and comprehension in the
package's source, compiled here; module and class bodies run at import
and are left out.  It prints each candidate line that no test executed
as `path:line: source` and exits 1 when it prints any, or when pytest
does not pass.  Child processes that the tests start are not traced, so
a line reached only there is listed.  Standard library only, apart from
the pytest that it runs; the trace roughly doubles the suite's time.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ezbasis")


def _function_lines(code) -> set[int]:
    """Lines that code's own instructions carry, without nested code objects."""
    return {line for _, _, line in code.co_lines() if line is not None}


def _candidates() -> dict[str, set[int]]:
    """Per source file of the package, the lines inside its functions."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        lines = set()
        while stack:
            code = stack.pop()
            if code.co_flags & inspect.CO_NEWLOCALS:
                lines |= _function_lines(code)
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
        found[path] = lines
    return found


def _trace() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on tier-1, and the (file, line)s run in the package."""
    prefix = PACKAGE + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    return int(status), hits


def main() -> int:
    os.chdir(ROOT)
    status, hits = _trace()
    missed = 0
    for path, lines in _candidates().items():
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(lines):
            if (path, line) not in hits:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} unreached lines", file=sys.stderr)
    if status != 0:
        print(f"pytest exited {status}", file=sys.stderr)
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
