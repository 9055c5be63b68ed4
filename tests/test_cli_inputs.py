"""Awkward values for every size and numeric option of the CLI.

Each case runs `cli.run` in this process.  It must exit 0, 1 or 2 and
print no traceback; on exit 2 stderr names no private (`_`-prefixed)
identifier, and a size past its ceiling exits 2 within 50 ms, before
any work starts.  The small sizes are drawn from a seeded generator.
"""

from __future__ import annotations

import random
import re
import time

import pytest

import ezbasis.cli as cli

_FORMATS = ("text", "json", "latex", "csv")
_VERIFY_FORMATS = ("text", "json")
# a numeric run that is cheap and whose tol is above its bound
_NUMERIC = ("verify", "--n", "4", "--mode", "numeric")

# (argv before the size, size option, its ceiling, formats)
_SIZE_OPTIONS = [
    (("matrix",), "--n", 800, _FORMATS),
    (("invert",), "--n", 600, _FORMATS),
    (("invert", "--which", "a2", "--oracle"), "--n", 600, _FORMATS),
    (("relations",), "--n", 600, _FORMATS),
    (("basis",), "--m", 800, _FORMATS),
    (("poles",), "--n", 1500, _FORMATS),
    (("expand",), "--c", 1500, _FORMATS),
    (("verify",), "--n", 600, _VERIFY_FORMATS),
    (("verify", "--mode", "all", "--cutoff", "200", "--tol", "1e-2"), "--n", 600,
     _VERIFY_FORMATS),
    ((*_NUMERIC, "--tol", "1e-2"), "--cutoff", 10**6, _VERIFY_FORMATS),
]
# "１２" is 12 in full-width digits, which int() reads
_ODD_SIZES = ["-1", "0", "1_000", "0x10", "１２", "", " 5"]

_ODD_FLOATS = ["nan", "inf", "-inf", "-0", "1e300", "1e-320", "2.1", "4+3i", "-4+3i"]
# (argv before the value, option, values); Im(s) = 1e308 makes the phase
# Im(s)*log(n) overflow
_FLOAT_OPTIONS = [
    ((*_NUMERIC, "--cutoff", "200", "--tol", "1e-2"), "--s", [*_ODD_FLOATS, "5+1e308j"]),
    ((*_NUMERIC, "--cutoff", "200"), "--tol", _ODD_FLOATS),
    ((*_NUMERIC, "--tol", "1e-2"), "--cutoff", _ODD_FLOATS),
]


def _cases():
    rng = random.Random(23)
    for head, option, ceiling, formats in _SIZE_OPTIONS:
        for fmt in formats:
            small = [str(rng.randint(1, 12)) for _ in range(2)]
            for value in small + _ODD_SIZES:
                yield [*head, option, value, "--format", fmt], False
            for value in (ceiling + 1, 10**40):
                yield [*head, option, str(value), "--format", fmt], True
    for head, option, values in _FLOAT_OPTIONS:
        for fmt in _VERIFY_FORMATS:
            for value in values:
                yield [*head, option, value, "--format", fmt], False


_CASES = list(_cases())
_PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


@pytest.mark.parametrize("argv, past_ceiling", _CASES,
                         ids=[" ".join(map(repr, argv)) for argv, _ in _CASES])
def test_odd_input_exits_cleanly(capsys, argv, past_ceiling):
    start = time.perf_counter()
    code = cli.run(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), err
    assert "Traceback" not in out + err
    if code == 2:
        assert not _PRIVATE_NAME.search(err), err
    if past_ceiling:
        assert code == 2 and "above the ceiling" in err, err
        assert seconds < 0.05


def test_overflowing_phase_names_im_s(capsys):
    code = cli.run([*_NUMERIC, "--s", "5+1e308j", "--cutoff", "100", "--tol", "1e-2"])
    assert (code, *capsys.readouterr()) == (
        2, "", "ezbasis: Im(s) = 1e+308 is too large: "
               "the phase Im(s)*log(cutoff) is not finite\n")
