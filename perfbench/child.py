"""One benchmark sample, run in a fresh interpreter.

Imports ezbasis from the checkout's `src` (timed as set-up), then reads
a JSON spec on stdin, runs the spec's tasks (timed as the work), and
prints one JSON record on stdout.  Output produced by the CLI is
captured, so the record is the only thing this process prints.

Only modules that the interpreter has loaded at start-up anyway (and
the builtin `gc`) are imported before the timed import, so `setup_s`
includes every module that ezbasis and its CLI pull in.  Everything
else this script needs is imported after it.

Spec keys: "mode" ("setup" imports only, "sample" runs "tasks",
"counts" computes the machine-independent size counts from "counts"),
and "trace" (path for the span file, or null for an untraced sample).
"""

import gc
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROBE_INTERVAL_S = 0.05
PROBES_AFTER_IMPORT = 40


def probe() -> float:
    """Time one fixed snippet of rational, integer and float arithmetic.

    The snippet's time tracks how fast this host runs interpreted code at
    the moment, which on a shared machine swings by more than a third
    within minutes.  run.py rescales the measured times by it.  The
    cyclic collector is off while it runs, so a collection that the
    probe's allocations would set off stays in the program's time.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i % 13 - 6, i % 7 + 1)
        x = 0
        for i in range(1, 300):
            x += (i * i) % 97
        y = 0.0
        for i in range(1, 200):
            y += i * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Runs `probe` from a SIGALRM handler every PROBE_INTERVAL_S while active.

    The handler runs between bytecodes of the measured work, so the probe
    times sample the host's speed across the whole measured interval.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.active = False

    def _tick(self, signum, frame) -> None:
        if self.active:
            self.times.append(probe())

    def __enter__(self) -> "SpeedProbe":
        import signal

        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)


def _bits(values) -> int:
    """Largest bit length of a numerator or denominator among `values`."""
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in values
    )


def _cli(ez, task):
    import contextlib
    import hashlib
    import io

    def work():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ez.cli.run(task["argv"])
        return code, out.getvalue(), err.getvalue()

    def report(result):
        code, out, err = result
        data = out.encode("utf-8")
        rec = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if len(data) <= 1 << 16:
            rec["stdout"] = out
        if err:
            rec["stderr"] = err[-2000:]
        return rec

    return work, report


def _triangular(ez, task):
    from fractions import Fraction

    M = ez.CoeffMatrix.from_rows([[Fraction(x) for x in row] for row in task["rows"]])

    def work():
        fwd = ez.invert_forward(M)
        cof = ez.invert_cofactor(M)
        prod = ez.mat_mul(M, fwd)
        return fwd == cof, prod == ez.CoeffMatrix.identity(M.rows)

    def report(result):
        agree, identity = result
        detail = []
        if not agree:
            detail.append("forward and cofactor inverses differ")
        if not identity:
            detail.append("M * inverse is not the identity")
        return {"ok": agree and identity, "detail": "; ".join(detail), "n": M.rows}

    return work, report


def _residue_vs_matrix(ez, task):
    def work():
        return [
            m for m in range(task["m_max"] + 1)
            if ez.residue_system_representation(m).gamma != ez.basis_representation(m).gamma
        ]

    def report(bad):
        return {"ok": not bad, "detail": f"paths disagree at m = {bad}" if bad else ""}

    return work, report


def _expansion_residues(ez, task):
    def work():
        # residues_from_expansion raises VerificationError on any mismatch
        # with the direct catalog, so returning at all is the check
        return [len(ez.residues_from_expansion(c).records) for c in range(task["c_max"] + 1)]

    def report(sizes):
        bad = [c for c, k in enumerate(sizes) if k != (2 if c <= 1 else 2 + c // 2)]
        return {"ok": not bad, "detail": f"wrong pole count at c = {bad}" if bad else ""}

    return work, report


def _witnesses(ez, task):
    def work():
        return [ez.independence_witness(m).location for m in range(1, task["m_max"] + 1)]

    def report(locations):
        bad = [m for m, loc in enumerate(locations, start=1) if loc != 2 - 2 * m]
        return {"ok": not bad, "detail": f"witness misplaced at m = {bad}" if bad else ""}

    return work, report


_TASKS = {
    "cli": _cli,
    "triangular": _triangular,
    "residue-vs-matrix": _residue_vs_matrix,
    "expansion-residues": _expansion_residues,
    "witnesses": _witnesses,
}


def _counts(ez, params: dict) -> dict:
    """Size counts that do not depend on the machine, from public return values."""
    n = params["n"]
    a1, a2 = ez.split_A1_A2(ez.build_matrix_A(n))
    inv1 = ez.invert_forward(a1)
    inv2 = ez.invert_forward(a2)
    gamma_bits = max(_bits(ez.basis_representation(m).gamma) for m in range((n - 1) // 2 + 1))
    report = ez.numeric_verify(params["numeric_n"], complex(params["s"]),
                               params["cutoff"], params["tol"])
    return {
        "trilinalg.inv_a1.max_bits": _bits(x for row in inv1.entries for x in row),
        "trilinalg.inv_a2.max_bits": _bits(x for row in inv2.entries for x in row),
        "relations.gamma.max_bits": gamma_bits,
        "numeval.bound_violations": sum(c.residual > c.bound for c in report.checks),
        "numeval.checks": len(report.checks),
    }


def main() -> int:
    src = os.path.realpath(SRC)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ezbasis
    import ezbasis.cli
    setup_s = time.perf_counter() - t0
    import json
    import resource
    import statistics

    setup_probes = [probe() for _ in range(PROBES_AFTER_IMPORT)]
    if not os.path.realpath(ezbasis.__file__).startswith(src + os.sep):
        print(f"ezbasis imported from {ezbasis.__file__}, not from {src}", file=sys.stderr)
        return 2

    spec = json.load(sys.stdin)
    record: dict = {"setup_s": setup_s, "setup_probe_s": statistics.median(setup_probes)}
    if spec["mode"] == "counts":
        record["counts"] = _counts(ezbasis, spec["counts"])
    elif spec["mode"] == "sample":
        prepared = [_TASKS[task["kind"]](ezbasis, task) for task in spec["tasks"]]
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall = 0.0
        reports = []
        with SpeedProbe() as speed:
            for work, report in prepared:
                speed.active = True
                t0 = time.perf_counter()
                try:
                    result = work()
                except Exception as exc:  # a raising task is a failed check, not a crash
                    result = exc
                wall += time.perf_counter() - t0
                speed.active = False
                if isinstance(result, Exception):
                    reports.append({"ok": False, "detail": f"{type(result).__name__}: {result}"})
                else:
                    reports.append(report(result))
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.summary()
            tracer.dump(spec["trace"])
        # the probes ran inside the timed work; their time is not the program's
        record["wall_s"] = wall - sum(speed.times)
        record["probe_s"] = statistics.median(speed.times or [probe()])
        record["tasks"] = reports
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
