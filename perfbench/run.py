#!/usr/bin/env python3
"""The ezbasis benchmark.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Every sample runs in a fresh interpreter (`child.py`), one at a
time, as a command-line user pays cold caches on every invocation.  The
runner runs at least three samples and keeps starting more while the
next one is predicted to finish within `--seconds`; it checks every
output and prints each metric by name and unit.  Times are reported in
reference seconds (see REFERENCE_PROBE_S) next to the measured seconds.
The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and span-traced samples and reports the per-layer metrics; the
spans are written to `.bench_out/`.  The exit code is 0 when every check
passed, 1 when a check failed, and 2 when the benchmark could not run
(for instance without `src/ezbasis` next to it).  See README.md for the
workloads and for which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Inputs per scale.  "full" is the benchmark; "small" exercises the same
# code paths in seconds for the runner's self-test.
SCALES = {
    "full": {
        "exact_n": 100,
        "numeric_cutoff": 100000,
        "numeric_cutoff_s12": 20000,
        "matrix_sizes": (30, 33, 36, 39, 42, 44),
        "rep_m": 36,
        "expansion_c": 120,
        "witness_m": 30,
        "invert_n": 100,
    },
    "small": {
        "exact_n": 16,
        "numeric_cutoff": 30000,
        "numeric_cutoff_s12": 2000,
        "matrix_sizes": (6, 9),
        "rep_m": 6,
        "expansion_c": 12,
        "witness_m": 5,
        "invert_n": 12,
    },
}

# machine-independent size counts: the family size N whose inverses and
# basis coefficients are measured, and the numeric point whose checks are
# compared with their reported bounds
COUNTS = {"n": 100, "numeric_n": 12, "s": 12.0, "cutoff": 20000, "tol": 1e-6}
COUNTS_SMALL = dict(COUNTS, n=16, cutoff=2000)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

FUNCTION_SELF_S = (
    "trilinalg.mat_mul",
    "trilinalg.invert_forward",
    "trilinalg.invert_cofactor",
    "coeffs.verify_power_sum_identity",
    "exactnum.faulhaber",
    "analytic.collapse_relation",
    "relations.residue_system_representation",
    "numeval.eval_ez_double",
    "numeval.eval_tornheim",
)
FUNCTION_CALLS = ("trilinalg.invert_forward", "trilinalg.mat_mul", "analytic.pole_table")
FUNCTION_DISTINCT = ("exactnum.faulhaber", "analytic.zeta_shift_expansion")
SIZE_COUNTS = {
    "trilinalg.inv_a1.max_bits": "bits",
    "trilinalg.inv_a2.max_bits": "bits",
    "relations.gamma.max_bits": "bits",
    "numeval.bound_violations": "count",
}

# Times are reported in reference seconds: each measured time is multiplied
# by REFERENCE_PROBE_S / (median time of child.probe() in the same child,
# interleaved with the timed work, or right after the timed import for
# setup_s).  On a shared host the speed of interpreted code swings by
# more than a third within minutes, and raw seconds follow it; the
# rescaled times follow the program far more closely.  The raw seconds
# are printed as well.
REFERENCE_PROBE_S = 2.0e-4
MIN_SAMPLES = 3
SETUP_PROBES = 9
DEADLINE_S = 170.0


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in FUNCTION_SELF_S:
        units[f"{name}.self_s"] = "s"
    for name in FUNCTION_CALLS:
        units[f"{name}.calls"] = "count"
    for name in FUNCTION_DISTINCT:
        units[f"{name}.distinct_ratio"] = "ratio"
    units.update(SIZE_COUNTS)
    units["trace_overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# workloads


def _cli(*argv: str, **check) -> dict:
    return {"kind": "cli", "argv": list(argv), "check": check}


def _numeric(s: str, cutoff: int, **check) -> dict:
    return _cli("verify", "--n", "12", "--mode", "numeric", "--s", s,
                "--cutoff", str(cutoff), "--tol", "1e-6", "--format", "json",
                numeric=True, **check)


def _random_triangular(n: int, rng: random.Random) -> list[list[str]]:
    """Dense lower-triangular matrix of small random fractions, nonzero diagonal."""
    rows = []
    for i in range(n):
        row = []
        for j in range(i + 1):
            num = rng.choice([k for k in range(-9, 10) if k]) if j == i else rng.randint(-9, 9)
            row.append(f"{num}/{rng.randint(1, 9)}")
        rows.append(row + ["0"] * (n - i - 1))
    return rows


def workload_tasks(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The tasks one sample runs.  The seed only changes matrix entries."""
    p = SCALES[scale]
    if workload == "exact-verify":
        return [_cli("verify", "--n", str(p["exact_n"]), "--mode", "exact")]
    if workload == "numeric-verify":
        return [
            _numeric("5", p["numeric_cutoff"], max_residual_below=1e-8),
            _numeric("4+3j", p["numeric_cutoff"]),
            _numeric("12", p["numeric_cutoff_s12"], bound_violations=True),
        ]
    if workload == "oracle-crosscheck":
        rng = random.Random(seed)
        tasks = [
            {"kind": "triangular", "rows": _random_triangular(n, rng)}
            for n in p["matrix_sizes"]
        ]
        return tasks + [
            {"kind": "residue-vs-matrix", "m_max": p["rep_m"]},
            {"kind": "expansion-residues", "c_max": p["expansion_c"]},
            {"kind": "witnesses", "m_max": p["witness_m"]},
            _cli("invert", "--n", str(p["invert_n"]), "--which", "a2", "--oracle",
                 "--format", "json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-verify", "numeric-verify", "oracle-crosscheck")


# ---------------------------------------------------------------------------
# checks


def _load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_task(task: dict, result: dict, expected: dict) -> list[str]:
    """Problems with one task's result; an empty list means it passed."""
    if task["kind"] != "cli":
        return [] if result.get("ok") else [result.get("detail") or f"{task['kind']} failed"]
    if "exit" not in result:
        return [result.get("detail", "no result")]
    argv = " ".join(task["argv"])
    check = task["check"]
    if not check.get("numeric"):
        want = expected["cli"].get(argv)
        if want is None:
            return [f"no expected output recorded for `{argv}`"]
        problems = []
        if result["exit"] != want["exit"]:
            problems.append(f"`{argv}` exited {result['exit']}, expected {want['exit']}")
        if (result["sha256"], result["bytes"]) != (want["sha256"], want["bytes"]):
            problems.append(f"`{argv}` stdout differs from the recorded bytes")
        return problems
    if result["exit"] != 0:
        return [f"`{argv}` exited {result['exit']}: {result.get('stderr', '')}"]
    try:
        report = json.loads(result["stdout"])
    except (KeyError, ValueError):
        return [f"`{argv}` printed no JSON report"]
    numeric = report.get("numeric", {})
    problems = []
    if report.get("passed") is not True or numeric.get("passed") is not True:
        problems.append(f"`{argv}` did not PASS")
    limit = check.get("max_residual_below")
    residual = numeric.get("max_residual")
    if limit is not None and not (isinstance(residual, float) and residual < limit):
        problems.append(f"`{argv}` max residual {residual} is not below {limit}")
    return problems


def bound_violations(task: dict, result: dict) -> int | None:
    """Checks of a numeric report whose residual exceeds their own bound."""
    if not task.get("check", {}).get("bound_violations") or "stdout" not in result:
        return None
    try:
        checks = json.loads(result["stdout"])["numeric"]["checks"]
    except (KeyError, TypeError, ValueError):
        return None
    return sum(c["residual"] > c["bound"] for c in checks)


# ---------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.tasks = workload_tasks(workload, seed, scale)
        self.expected = _load_expected()
        self.started = time.perf_counter()
        self.problems: list[str] = []

    def child(self, spec: dict) -> dict | None:
        """Run child.py on `spec`; None (with a recorded problem) if it failed."""
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py")],
                input=json.dumps(spec), capture_output=True, text=True,
                timeout=max(1.0, remaining), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{spec['mode']} child exceeded the {DEADLINE_S:.0f} s deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(
                f"{spec['mode']} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
            return None
        return rescale(json.loads(lines[-1]))

    def sample(self, traced: bool, index: int) -> dict | None:
        spec = {
            "mode": "sample",
            "tasks": [{k: v for k, v in t.items() if k != "check"} for t in self.tasks],
        }
        if traced:
            os.makedirs(OUT, exist_ok=True)
            spec["trace"] = os.path.join(
                OUT, f"trace-{self.workload}-seed{self.seed}-{index}.json"
            )
        rec = self.child(spec)
        if rec is None:
            return None
        problems = []
        for task, result in zip(self.tasks, rec["tasks"]):
            problems += check_task(task, result, self.expected)
            violations = bound_violations(task, result)
            if violations is not None:
                rec["bound_violations"] = violations
        if len(rec["tasks"]) != len(self.tasks):
            problems.append("child returned the wrong number of task results")
        rec["problems"] = problems
        self.problems += problems
        return rec

    def fits(self, durations: list[float]) -> bool:
        """Whether one more round, as long as the last, ends within --seconds."""
        elapsed = time.perf_counter() - self.started
        return elapsed + durations[-1] <= self.seconds

    def run(self) -> dict:
        setups = []
        for _ in range(SETUP_PROBES):
            rec = self.child({"mode": "setup"})
            if rec is None:
                raise RuntimeError("ezbasis failed to import: " + self.problems[-1])
            setups.append(rec)
        plain: list[dict | None] = []
        traced: list[dict | None] = []
        durations: list[float] = []
        # a median needs a few samples, and a traced run needs two traced
        # samples to compare their counts
        while len(plain) < (2 if self.trace else MIN_SAMPLES) or self.fits(durations):
            t0 = time.perf_counter()
            for is_traced in ((False, True) if self.trace else (False,)):
                rec = self.sample(is_traced, len(traced))
                (traced if is_traced else plain).append(rec)
                if rec is not None:
                    setups.append(rec)
            durations.append(time.perf_counter() - t0)
            if self.problems:
                break
        samples = plain + traced
        ok = [r for r in plain if r is not None and not r["problems"]]
        result = {
            "attempted": len(samples),
            "failed": sum(r is None or bool(r["problems"]) for r in samples),
            "setups": setups,
            "plain": ok,
        }
        if self.trace:
            result["traced"] = [r for r in traced if r is not None and not r["problems"]]
            result["counts"] = self.child(
                {"mode": "counts", "counts": COUNTS if self.scale == "full" else COUNTS_SMALL}
            )
        return result


# ---------------------------------------------------------------------------
# metrics


def rescale(rec: dict) -> dict:
    """Add the reference-second copies of a child record's times."""
    rec["setup_ref_s"] = rec["setup_s"] * REFERENCE_PROBE_S / rec["setup_probe_s"]
    if "probe_s" in rec:
        scale = REFERENCE_PROBE_S / rec["probe_s"]
        rec["wall_ref_s"] = rec["wall_s"] * scale
        rec["cpu_ref_s"] = rec["cpu_s"] * scale
        for stats in rec.get("layers", {}).values():
            stats["self_s"] *= scale
    return rec


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(result: dict) -> dict[str, float]:
    plain = result["plain"]
    return {
        "wall_s": _median([r["wall_ref_s"] for r in plain]),
        "cpu_s": _median([r["cpu_ref_s"] for r in plain]),
        "setup_s": _median([r["setup_ref_s"] for r in result["setups"]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "pass_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }


def per_layer_metrics(result: dict, problems: list[str], max_bits: dict) -> dict[str, float]:
    traced = result["traced"]
    if len(traced) < 2:
        problems.append("fewer than two traced samples passed")
        return {}
    layers = [r["layers"] for r in traced]
    first = layers[0]
    names = sorted(first)
    for other in layers[1:]:
        drift = sorted(
            n for n in set(first) | set(other)
            if {k: first.get(n, {}).get(k) for k in ("calls", "distinct")}
            != {k: other.get(n, {}).get(k) for k in ("calls", "distinct")}
        )
        if drift:
            problems.append(f"call counts differ between traced samples: {drift}")

    def self_s(name: str) -> float:
        return _median([ly.get(name, {}).get("self_s", 0.0) for ly in layers])

    missing = [n for n in FUNCTION_SELF_S + FUNCTION_CALLS + FUNCTION_DISTINCT if n not in first]
    if missing:
        problems.append(f"named functions missing from the trace: {missing}")
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        members = [n for n in names if n.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = _median(
            [sum(ly[n]["self_s"] for n in members) for ly in layers]
        )
        metrics[f"{layer}.calls"] = sum(first[n]["calls"] for n in members)
    for name in FUNCTION_SELF_S:
        metrics[f"{name}.self_s"] = self_s(name)
    for name in FUNCTION_CALLS:
        metrics[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
    for name in FUNCTION_DISTINCT:
        stats = first.get(name, {"calls": 0, "distinct": 0})
        metrics[f"{name}.distinct_ratio"] = stats["distinct"] / stats["calls"] if stats["calls"] else 0.0

    counts = (result["counts"] or {}).get("counts")
    if counts is None:
        problems.append("size counts were not computed")
        return {}
    for name, want in max_bits.items():
        if counts[name] != want:
            problems.append(f"{name} is {counts[name]}, recorded {want}: exact values changed")
    for rec in traced + result["plain"]:
        seen = rec.get("bound_violations")
        if seen is not None and seen != counts["numeval.bound_violations"]:
            problems.append(f"bound violations differ between runs: {seen} and "
                            f"{counts['numeval.bound_violations']}")
    for name in SIZE_COUNTS:
        metrics[name] = counts[name]
    metrics["trace_overhead_s"] = (
        _median([r["wall_ref_s"] for r in traced])
        - _median([r["wall_ref_s"] for r in result["plain"]])
    )
    return metrics


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": _commit()}


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Run one benchmark and return the result line plus its details."""
    runner = Runner(workload, seed, seconds, trace, scale)
    result = runner.run()
    problems = runner.problems
    if trace:
        max_bits = runner.expected["max_bits"][str((COUNTS if scale == "full" else COUNTS_SMALL)["n"])]
        metrics = per_layer_metrics(result, problems, max_bits)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(result) if result["plain"] else {}
        units = END_TO_END
    if not result["plain"]:
        problems.append("no sample passed")
    correct = not problems and set(metrics) == set(units)
    return {
        "line": {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        },
        "problems": problems,
        "samples": len(result["plain"]),
        "setups": len(result["setups"]),
        "measured": {
            "wall_s": [r["wall_s"] for r in result["plain"]],
            "wall_ref_s": [r["wall_ref_s"] for r in result["plain"]],
            "cpu_s": _median([r["cpu_s"] for r in result["plain"]]),
            "setup_s": _median([r["setup_s"] for r in result["setups"]]),
            "probe_s": _median([r["probe_s"] for r in result["plain"]]),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ezbasis benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ezbasis", "__init__.py")):
        print(f"perfbench: no ezbasis package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = machine()
    line = out["line"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(info))
    print(f"samples attempted {line['attempted']}, failed {line['failed']}; "
          f"{out['samples']} untraced samples passed; set-up measured {out['setups']} times")
    raw = out["measured"]
    if raw["wall_s"]:
        print("wall_s per sample, measured s: " + ", ".join(f"{w:.4f}" for w in raw["wall_s"]))
        print("wall_s per sample, reference s: "
              + ", ".join(f"{w:.4f}" for w in raw["wall_ref_s"]))
        print(f"measured medians: wall_s {_median(raw['wall_s']):.4f} s, "
              f"cpu_s {raw['cpu_s']:.4f} s, setup_s {raw['setup_s']:.5f} s; "
              f"speed probe {raw['probe_s'] * 1e6:.1f} us "
              f"(reference {REFERENCE_PROBE_S * 1e6:.1f} us)")
    print(f"fail_ratio {line['failed'] / line['attempted']:.4f}")
    for name, m in line["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    for problem in out["problems"]:
        print(f"FAILED CHECK: {problem}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(line, machine=info, problems=out["problems"],
                       measured=raw), fh, indent=2)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
