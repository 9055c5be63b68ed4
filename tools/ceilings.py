"""Re-measure the ceiling table of README.md, one command at a time.

Run from the root of a source checkout:

    python3 tools/ceilings.py              # every row of the table
    python3 tools/ceilings.py verify       # only the commands starting with "verify"

Each command runs three times as `python -m ezbasis ...`, with `src`
on the path and its output discarded, each time in a fresh interpreter
that a fresh wrapper process starts and waits for.  The wrapper reads
the command's peak RSS from `resource.getrusage(RUSAGE_CHILDREN)`, which
then covers that command alone, and right after the command it times
the host: the median time of `perfbench/child.py`'s `probe`, which takes
about 200 us on the host that the perfbench reference seconds refer to.
A run's reference seconds are its raw seconds times 200 us over that
probe time, so that rows taken on a slower or busier host compare.  The
script prints one markdown row per command: the medians of the three
runs' raw seconds, reference seconds and probe times, the largest peak
RSS and the exit code.  It needs nothing beyond the standard library.
"""

from __future__ import annotations

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
    # a tol above the bound (2.1e15 here), so that the series are summed
    "verify --n 40 --mode numeric --s 4+3i --cutoff 1000000 --tol 1e16",
    # a series term costs more as its degree grows with N
    "verify --n 200 --mode numeric --s 5 --cutoff 8000 --tol 1e300",
]


def _measure_one(args: list[str]) -> None:
    """Run one command as this process's only child and print its cost as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "ezbasis", *args], env=env,
                          stdout=subprocess.DEVNULL).returncode
    seconds = time.perf_counter() - start
    # ru_maxrss is in kB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "peak_mb": peak_mb, "exit": code,
                      "probe_us": _host_probe_us()}))


def _host_probe_us() -> float:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from child import probe

    return statistics.median(probe() for _ in range(40)) * 1e6


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
        print(f"| `{command}` | {seconds:.1f} s | {reference:.1f} s | {probe:.0f} us "
              f"| {peak_mb:.1f} MB | {exits} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
