"""Re-measure the ceiling table of README.md, one command at a time.

Run from the root of a source checkout:

    python3 tools/ceilings.py              # every row of the table
    python3 tools/ceilings.py verify       # only the commands starting with "verify"

Each command runs three times, each time in a fresh interpreter that
imports `ezbasis.cli` from `src` and calls `cli.run` on the command's
arguments, with its output sent to `os.devnull`; the import and the run
are timed together.  While they run, `perfbench/child.py`'s `SpeedProbe`
times the host every 50 ms with `probe`, which takes about 200 us on
the host that the perfbench reference seconds refer to, and the
probes' own time is taken off the run's seconds.  A run too short for
any probe is timed by one probe afterwards.  A run's reference seconds
are its raw seconds times 200 us over the median probe time, so that
rows taken on a slower or busier host compare.  Its peak RSS is the
interpreter's own, from `resource.getrusage(RUSAGE_SELF)`.  The script
prints one markdown row per command: the medians of the three runs' raw
seconds and reference seconds (to 1 ms under 0.1 s) and probe times,
the largest peak RSS and the exit code.  It needs nothing beyond the
standard library.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
REFERENCE_PROBE_US = 200.0

# the commands behind each row of README's ceiling table, at the ceiling
COMMANDS = [
    "matrix --n 800",
    "invert --n 600",
    "invert --n 600 --oracle",
    "relations --n 600",
    "basis --m 800",
    "poles --n 1500",
    "expand --c 1500",
    "verify --n 600 --mode exact",
    "verify --n 400 --mode exact",
    "verify --n 12 --mode numeric --s 5 --cutoff 1000000",
    "verify --n 12 --mode numeric --s 4+3i --cutoff 1000000",
    # every series settles after the first block, so the loop stops there
    "verify --n 12 --mode numeric --s 12 --cutoff 1000000",
    # a tol above the bound (2.1e15 here), so that the series are summed
    "verify --n 40 --mode numeric --s 4+3i --cutoff 1000000 --tol 1e16",
    # a series term costs more as its degree grows with N
    "verify --n 200 --mode numeric --s 5 --cutoff 8000 --tol 1e300",
]


def _measure_one(args: list[str]) -> None:
    """Run one command in this fresh interpreter and print its cost as JSON."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from child import SpeedProbe, probe

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), \
            SpeedProbe() as speed:
        speed.active = True
        start = time.perf_counter()
        import ezbasis.cli

        code = ezbasis.cli.run(args)
        seconds = time.perf_counter() - start
        speed.active = False
    # the probes ran inside the timed command; their time is not the command's
    seconds -= sum(speed.times)
    # ru_maxrss is in kB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "peak_mb": peak_mb, "exit": code,
                      "probe_us": statistics.median(speed.times or [probe()]) * 1e6}))


def _seconds(x: float) -> str:
    # a run that stops early would read 0.0 s at one decimal
    return f"{x:.1f} s" if x >= 0.1 else f"{x:.3f} s"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        _measure_one(argv[1:])
        return 0
    commands = [c for c in COMMANDS if c.startswith(" ".join(argv))]
    if not commands:
        print(f"no ceiling command starts with {' '.join(argv)!r}", file=sys.stderr)
        return 2
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} cores; "
          f"medians of {RUNS} runs, reference seconds at a {REFERENCE_PROBE_US:.0f} us probe")
    print("| command | seconds | reference seconds | probe | peak RSS | exit |")
    print("|---|---|---|---|---|---|")
    for command in commands:
        costs = [json.loads(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", *command.split()],
            capture_output=True, text=True, check=True).stdout) for _ in range(RUNS)]
        seconds = statistics.median(c["seconds"] for c in costs)
        reference = statistics.median(
            c["seconds"] * REFERENCE_PROBE_US / c["probe_us"] for c in costs)
        probe = statistics.median(c["probe_us"] for c in costs)
        peak_mb = max(c["peak_mb"] for c in costs)
        exits = "/".join(sorted({str(c["exit"]) for c in costs}))
        print(f"| `{command}` | {_seconds(seconds)} | {_seconds(reference)} | {probe:.0f} us "
              f"| {peak_mb:.1f} MB | {exits} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
