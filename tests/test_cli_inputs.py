"""Awkward values for every size and numeric option of the CLI.

Each case runs `cli.run` in this process.  It must exit 0, 1 or 2 and
print no traceback.  On exit 2 stderr names the option under test,
never says "expected one argument" (argparse reading the value as an
option) and names no private (`_`-prefixed) identifier.  A size past
its ceiling exits 2 within 50 ms, before any work starts, and every odd
value of a numeric option exits 2 except the few that are valid.  The
small sizes are drawn from a seeded generator.
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
# "１２" is 12 in full-width digits, which int() reads; "-inf" starts
# with '-' but is no negative number, so argparse must still take it as
# the value
_ODD_SIZES = ["-1", "0", "1_000", "0x10", "１２", "", " 5", "-inf"]

_ODD_FLOATS = ["nan", "inf", "-inf", "-0", "1e300", "1e-320", "2.1", "4+3i", "-4+3i"]
# (argv before the value, option, values); Im(s) = 1e308 makes the phase
# Im(s)*log(n) overflow
_FLOAT_OPTIONS = [
    ((*_NUMERIC, "--cutoff", "200", "--tol", "1e-2"), "--s", [*_ODD_FLOATS, "5+1e308j", "abc"]),
    ((*_NUMERIC, "--cutoff", "200"), "--tol", _ODD_FLOATS),
    ((*_NUMERIC, "--tol", "1e-2"), "--cutoff", _ODD_FLOATS),
]
# the odd values above that a numeric run accepts
_VALID_FLOATS = {("--s", "4+3i"), ("--tol", "1e300"), ("--tol", "2.1")}


def _cases():
    rng = random.Random(23)
    # (argv, past its ceiling, must exit 2)
    for head, option, ceiling, formats in _SIZE_OPTIONS:
        for fmt in formats:
            small = [str(rng.randint(1, 12)) for _ in range(2)]
            for value in small + _ODD_SIZES:
                yield [*head, option, value, "--format", fmt], False, False
            for value in (ceiling + 1, 10**40):
                yield [*head, option, str(value), "--format", fmt], True, True
    for head, option, values in _FLOAT_OPTIONS:
        for fmt in _VERIFY_FORMATS:
            for value in values:
                yield ([*head, option, value, "--format", fmt], False,
                       (option, value) not in _VALID_FLOATS)


_CASES = list(_cases())
_PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


@pytest.mark.parametrize("argv, past_ceiling, rejected", _CASES,
                         ids=[" ".join(map(repr, argv)) for argv, _, _ in _CASES])
def test_odd_input_exits_cleanly(capsys, argv, past_ceiling, rejected):
    start = time.perf_counter()
    code = cli.run(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), err
    assert "Traceback" not in out + err
    if rejected:
        assert code == 2, out
    if code == 2:
        assert not _PRIVATE_NAME.search(err), err
        # the option under test precedes its value and the --format pair;
        # its name may stand without dashes, as the N of "N must be >= 2"
        name = argv[-4].lstrip("-")
        assert re.search(rf"(?<!\w){name}(?!\w)", err, re.IGNORECASE), err
        assert "expected one argument" not in err, err
    if past_ceiling:
        assert code == 2 and "above the ceiling" in err, err
        assert seconds < 0.05


def test_overflowing_phase_names_im_s(capsys):
    code = cli.run([*_NUMERIC, "--s", "5+1e308j", "--cutoff", "100", "--tol", "1e-2"])
    assert (code, *capsys.readouterr()) == (
        2, "", "ezbasis: Im(s) = 1e+308 is too large: "
               "the phase Im(s)*log(cutoff) is not finite\n")
