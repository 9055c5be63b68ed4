"""Re-run the registered mutants of ezbasis and report which ones the tests kill.

Run from anywhere, with pytest installed:

    python3 tests/mutants/run.py              # every mutant
    python3 tests/mutants/run.py NAME ...     # only the named mutants

Each mutant replaces one exact piece of text, which must occur exactly
once, in one file of the source tree.  The script first runs the union
of the named tests on an unmutated copy, so that a kill means something.
Then, one mutant at a time, it copies the tree (without `.git` and the
caches) into a fresh temporary directory, applies the mutant there and
runs that mutant's tests with `pytest -x`.  A mutant is killed when
pytest reports a failing test (exit 1), and survives when every test
passes (exit 0); any other outcome, such as a collection error or a
timeout, is reported as an error.  It prints one JSON object per mutant
and exits 1 if the clean run fails or any mutant is not killed.

The file is not named `test_*.py`, so tier-1 does not collect it;
`tests/test_mutants.py` checks that every old text still occurs exactly
once, so a refactor that moves the text must update the entry.
Standard library only, apart from the pytest that it runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, any of which should fail


MUTANTS = [
    Mutant(
        "bernoulli-fill-without-gcd",
        "src/ezbasis/exactnum.py",
        "            g = gcd(acc, m + 1)\n",
        "            g = 1\n",
        ("tests/test_exactnum.py::TestIntegerKernels"
         "::test_bernoulli_cold_fill_matches_fraction_recurrence",),
    ),
    Mutant(
        "faulhaber-n-2-anchor-unchecked",
        "src/ezbasis/exactnum.py",
        "    if _horner(nums, 2) != den:\n",
        "    if False:\n",
        ("tests/test_exactnum.py::TestIntegerKernels"
         "::test_error_the_earlier_anchors_miss_is_caught",),
    ),
    Mutant(
        "faulhaber-half-anchor-unchecked",
        "src/ezbasis/exactnum.py",
        "    if c >= 1 and 2 * nums[1] != -den:\n",
        "    if False:\n",
        ("tests/test_exactnum.py::TestIntegerKernels"
         "::test_error_the_earlier_anchors_miss_is_caught",),
    ),
    Mutant(
        "split-shape-unchecked",
        "src/ezbasis/coeffs.py",
        "    if A.cols != n_prime:\n",
        "    if False:\n",
        ("tests/test_coeffs.py::TestSplit::test_wrong_column_count_rejected",),
    ),
    Mutant(
        "triangular-diagonal-unchecked",
        "src/ezbasis/coeffs.py",
        "        if not row[i]:\n",
        "        if False:\n",
        ("tests/test_coeffs.py::TestTriangularCheck::test_rejects_zero_diagonal",),
    ),
    Mutant(
        "cofactor-sign-flipped",
        "src/ezbasis/trilinalg.py",
        "            w.append(-s)\n",
        "            w.append(s)\n",
        ("tests/test_trilinalg.py::TestInvertCofactor::test_agrees_with_forward_on_golden",),
    ),
    Mutant(
        "catalog-reads-expansion",
        "src/ezbasis/analytic.py",
        '        raise ValueError("n must be >= 0")\n    residues = [(1, n + 1),',
        '        raise ValueError("n must be >= 0")\n    _expansion_ints(n)\n'
        "    residues = [(1, n + 1),",
        ("tests/test_analytic.py::TestPoleTable::test_catalog_reads_no_expansion",),
    ),
    Mutant(
        "witness-is-the-table-row",
        "src/ezbasis/analytic.py",
        "    return PoleRecord(location, Fraction(*residues[-1]))",
        "    return pole_table(2 * m).records[-1]",
        ("tests/test_analytic.py::TestIndependenceWitness"
         "::test_is_the_last_record_of_the_catalog",),
    ),
    Mutant(
        "expansion-residues-unchecked",
        "src/ezbasis/analytic.py",
        "        if got != want:\n            raise VerificationError(",
        "        if False:\n            raise VerificationError(",
        ("tests/test_analytic.py::TestResiduesFromExpansion::test_corrupted_catalog_residue",
         "tests/test_analytic.py::TestResiduesFromExpansion"
         "::test_corrupted_expansion_numerator"),
    ),
    Mutant(
        "witness-pole-unchecked",
        "src/ezbasis/analytic.py",
        "    if locations[-1] != location:\n",
        "    if False:\n",
        ("tests/test_analytic.py::TestIndependenceWitness::test_missing_pole_is_caught",),
    ),
    Mutant(
        "position-0-not-halved",
        "src/ezbasis/relations.py",
        "[(0, x[0], 2 * dx), (1, -y[0], dy)]",
        "[(0, x[0], dx), (1, -y[0], dy)]",
        ("tests/test_relations.py::TestFamilyTerms::test_rows_match_the_public_objects",
         "tests/test_analytic.py::TestVerifyRelationsExact"),
    ),
    Mutant(
        "position-0-halved-twice",
        "src/ezbasis/relations.py",
        "[(0, x[0], 2 * dx), (1, -y[0], dy)]",
        "[(0, x[0], 4 * dx), (1, -y[0], dy)]",
        ("tests/test_relations.py::TestFamilyTerms::test_rows_match_the_public_objects",
         "tests/test_analytic.py::TestVerifyRelationsExact"),
    ),
    Mutant(
        "odd-half-sign-flipped",
        "src/ezbasis/relations.py",
        "(1, -y[0], dy)]",
        "(1, y[0], dy)]",
        ("tests/test_relations.py::TestFamilyTerms::test_rows_match_the_public_objects",
         "tests/test_analytic.py::TestVerifyRelationsExact"),
    ),
    Mutant(
        "relation-generator-one-row-short",
        "src/ezbasis/relations.py",
        "        for i in range(n_rel):\n",
        "        for i in range(n_rel - 1):\n",
        ("tests/test_analytic.py::TestVerifyRelationsExact",),
    ),
    Mutant(
        "representation-gamma-unchecked",
        "src/ezbasis/relations.py",
        "            _check_gamma(m, x, d)\n",
        "",
        ("tests/test_cli.py::TestVerifyExactMutants::test_corrupted_coefficient_row",),
    ),
    Mutant(
        "solve-left-zero-pivot-unguarded",
        "src/ezbasis/relations.py",
        "        if piv == 0:\n",
        "        if False:\n",
        ("tests/test_relations.py::TestBackSubstitutionSafety::test_zero_pivot_is_reported",),
    ),
    Mutant(
        "zero-pivot-names-wrong-relation",
        "src/ezbasis/relations.py",
        'f"relation {i + 1}"',
        'f"relation {i - 1}"',
        ("tests/test_relations.py::TestBackSubstitutionSafety"
         "::test_zero_pivot_in_the_relation_family",),
    ),
    Mutant(
        "zero-pivot-names-wrong-representation",
        "src/ezbasis/relations.py",
        'f"m = {m}"',
        'f"m = {m - 1}"',
        ("tests/test_relations.py::TestBackSubstitutionSafety::test_zero_pivot_is_reported",),
    ),
    Mutant(
        "residue-solve-no-rescale",
        "src/ezbasis/relations.py",
        "            num = {idx: x * piv for idx, x in num.items()}\n",
        "",
        ("tests/test_relations.py::TestBackSubstitutionSafety"
         "::test_corrupted_a2_entry_is_caught",),
    ),
    Mutant(
        "mat-mul-span-one-short",
        "src/ezbasis/trilinalg.py",
        "    hi = nonzero.rfind(1) + 1\n",
        "    hi = nonzero.rfind(1)\n",
        ("tests/test_trilinalg.py::TestMatMul",),
    ),
    Mutant(
        "no-gcd-reduction",
        "src/ezbasis/trilinalg.py",
        "    gs = list(map(gcd, nums, dens))\n",
        "    gs = [1] * len(nums)\n",
        ("tests/test_trilinalg.py::TestIntegerGrids", "tests/test_trilinalg.py::TestMatMul"),
    ),
    Mutant(
        "tol-checked-after-summing",
        "src/ezbasis/numeval.py",
        "    worst = max(bounds)\n    if tol <= worst:\n",
        "    worst = max(bounds)\n"
        "    _block_values(s, cutoff, range(top_index + 1), range(n_prime))\n"
        "    if tol <= worst:\n",
        ("tests/test_numeval.py::TestNumericVerify"
         "::test_tol_rejected_before_any_series_is_summed",),
    ),
    Mutant(
        "weight-overflow-unguarded",
        "src/ezbasis/numeval.py",
        "    except OverflowError:\n",
        "    except ZeroDivisionError:\n",
        ("tests/test_numeval.py::TestNumericVerify"
         "::test_weight_overflow_rejected_before_any_series_is_summed",),
    ),
    Mutant(
        "exact-parts-shortcut-unconditional",
        "src/ezbasis/numeval.py",
        "        last = math.ulp(rest) <= reach\n",
        "        last = True\n",
        ("tests/test_numeval.py::TestExactParts::test_cases",),
    ),
    Mutant(
        "exact-parts-confirming-pass",
        "src/ezbasis/numeval.py",
        "        last = math.ulp(rest) <= reach\n",
        "        last = False\n",
        ("tests/test_numeval.py::TestSeriesPlan::test_two_fsum_passes_per_series_block",),
    ),
    Mutant(
        "block-low-from-largest-power",
        "src/ezbasis/numeval.py",
        "low = float(inner[0]) * powers[-1] / den * 0.25",
        "low = float(inner[0]) * powers[0] / den * 0.25",
        ("tests/test_numeval.py::TestSeriesPlan::test_low_bounds_every_term",),
    ),
    Mutant(
        "block-sum-one-fsum",
        "src/ezbasis/numeval.py",
        "        if last:\n            break\n",
        "        break\n",
        ("tests/test_numeval.py::TestSeriesPlan::test_values_bitwise",),
    ),
    Mutant(
        "block-first-n-dropped",
        "src/ezbasis/numeval.py",
        "        ns = range(lo, min(lo + _BLOCK, cutoff + 1))\n",
        "        ns = range(lo + 1, min(lo + _BLOCK, cutoff + 1))\n",
        ("tests/test_numeval.py::TestSeriesPlan::test_values_bitwise",),
    ),
    Mutant(
        "power-sums-restarted-per-block",
        "src/ezbasis/numeval.py",
        "inner = list(accumulate(pw, initial=totals[k]))",
        "inner = list(accumulate(pw, initial=0))",
        ("tests/test_numeval.py::TestAgainstReferenceLoop::test_ez_double_bitwise",),
    ),
    Mutant(
        "tornheim-values-restarted-per-block",
        "src/ezbasis/numeval.py",
        "inner = list(islice(torn_values[k], len(ns)))",
        "inner = list(islice(_tornheim_values(forms[k][0]), len(ns)))",
        ("tests/test_numeval.py::TestAgainstReferenceLoop::test_tornheim_bitwise",),
    ),
    Mutant(
        "block-guard-at-first-term",
        "src/ezbasis/numeval.py",
        "if _plain_float_ok(inner[-1], ns[-1], expo):",
        "if _plain_float_ok(inner[0], ns[0], expo):",
        ("tests/test_numeval.py::TestAgainstReferenceLoop::test_guard_flips_inside_series",),
    ),
    Mutant(
        "exit-on-pre-screen-alone",
        "src/ezbasis/numeval.py",
        "            if not (2.0 * bound < math.ulp(math.fsum(acc))\n"
        "                    and math.fsum([*acc, bound]) == math.fsum([*acc, -bound])):\n",
        "            if not 2.0 * bound < math.ulp(math.fsum(acc)):\n",
        ("tests/test_numeval.py::TestSettled::test_tie_does_not_settle",
         "tests/test_numeval.py::TestSeriesPlan::test_values_bitwise"),
    ),
    Mutant(
        "tail-bound-at-cutoff",
        "src/ezbasis/numeval.py",
        "(_tail_bound(sigma, ns[-1], div) for div in divs)",
        "(_tail_bound(sigma, cutoff, div) for div in divs)",
        ("tests/test_numeval.py::TestSeriesPlan::test_values_bitwise",),
    ),
    Mutant(
        "settle-reads-real-parts-only",
        "src/ezbasis/numeval.py",
        "        for acc in (re, im) if tau else (re,):\n",
        "        for acc in (re,):\n",
        ("tests/test_numeval.py::TestSettled"
         "::test_imaginary_parts_are_read_at_a_complex_point",),
    ),
    Mutant(
        "underflow-unchecked",
        "src/ezbasis/numeval.py",
        "    if 2.0 ** -(s.real + shift) == 0.0:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestVerify::test_numeric_huge_real_s_rejected",
         "tests/test_cli_inputs.py"),
    ),
    Mutant(
        "infinite-tol-unchecked",
        "src/ezbasis/numeval.py",
        "    if math.isinf(tol):\n",
        "    if False:\n",
        ("tests/test_cli.py::TestVerify::test_infinite_tol_rejected",
         "tests/test_cli_inputs.py"),
    ),
    Mutant(
        "zeta-reference-unchecked",
        "src/ezbasis/numeval.py",
        "    s = _require_finite(s)\n    if s.imag == 0.0",
        "    s = complex(s)\n    if s.imag == 0.0",
        ("tests/test_numeval.py::TestZetaReference::test_non_finite_rejected",),
    ),
    Mutant(
        "expansion-c-unchecked",
        "src/ezbasis/analytic.py",
        '        raise ValueError("c must be >= 0")\n    den, nums = _faulhaber_ints(c)',
        "        pass\n    den, nums = _faulhaber_ints(c)",
        ("tests/test_cli.py::TestExpand::test_negative_c_names_c",
         "tests/test_cli_inputs.py"),
    ),
    Mutant(
        "parse-complex-value-error",
        "src/ezbasis/cli.py",
        '        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None',
        '        raise ValueError(f"not a complex number: {text!r}") from None',
        ("tests/test_cli.py::TestVerify::test_numeric_garbage_s_rejected",
         "tests/test_cli_inputs.py"),
    ),
    Mutant(
        "s-read-as-an-option",
        "src/ezbasis/cli.py",
        '_SIGNED_VALUE_OPTIONS = ("--s", "--tol",',
        '_SIGNED_VALUE_OPTIONS = ("--tol",',
        ("tests/test_cli.py::TestVerify::test_negative_non_finite_s_is_a_value",
         "tests/test_cli_inputs.py"),
    ),
    Mutant(
        "int-options-read-as-options",
        "src/ezbasis/cli.py",
        '"--tol", "--n", "--m", "--c", "--cutoff")',
        '"--tol")',
        ("tests/test_cli_inputs.py",),
    ),
    Mutant(
        "cli-numeric-size-unguarded",
        "src/ezbasis/cli.py",
        '    if ns.verify_mode != "exact" and ns.n > _NUMERIC_N_CEILING:',
        "    if False:",
        ("tests/test_cli.py::TestCeilings::test_numeric_size_ceiling",),
    ),
]


def _copy_tree(dest: str) -> str:
    tree = os.path.join(dest, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
    return tree


def _pytest(tree: str, tests) -> tuple[str, str]:
    """(status, output tail) of `pytest -x` on `tests` in the copy at `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "error", f"timed out after {_TIMEOUT_S} s"
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return status, "\n".join(proc.stdout.splitlines()[-3:])


def _run_mutant(m: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="ezbasis-mutant-") as tmp:
        tree = _copy_tree(tmp)
        path = os.path.join(tree, m.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(m.old)
        if count != 1:
            return {"name": m.name, "status": "error",
                    "detail": f"old text occurs {count} times in {m.file}"}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        status, tail = _pytest(tree, m.tests)
    result = {"name": m.name, "file": m.file, "status": status}
    if status != "killed":
        result["detail"] = tail
    return result


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="ezbasis-mutant-") as tmp:
        status, tail = _pytest(_copy_tree(tmp), tests)
    if status != "survived":
        print(json.dumps({"name": "(unmutated)", "status": "error",
                          "detail": f"the named tests do not pass on the clean tree:\n{tail}"}))
        return 1
    ok = True
    for m in chosen:
        result = _run_mutant(m)
        ok = ok and result["status"] == "killed"
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
