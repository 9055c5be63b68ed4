"""Command line front end.

Each subcommand wraps one library operation and shares the same four
output formats (text, json, latex, csv) where they make sense; verify
supports text and json.  This is the one module that renders: each
command writes every format from the fields of the library's records.
Exit codes: 0 success or verification pass, 1 verification failure,
2 usage, precondition or output-file error.
Each handler reads the parsed argparse namespace directly, so every
default, and every ceiling on a single size option, is stated once, in
the parser; a size above its ceiling exits 2 before any work starts.
"""

from __future__ import annotations

import argparse
import sys

# trilinalg stays an eager import: perfbench/tracer.py rebinds only the
# modules loaded before it installs, so a lazy trilinalg would read 0 in
# every trilinalg.* per-layer metric
from . import analytic, coeffs, relations, trilinalg
from .errors import VerificationError
from .exactnum import _ratio_str, rat_to_str
from .relations import function_label

_FORMATS = ("text", "json", "latex", "csv")
# numeric verification sums about 1.5 N series of `cutoff` terms each; a
# term costs more as the degree of its series grows with N: about 0.7 us at
# N = 40 (cutoff 10^6, s = 4+3i) and 4 us at N = 200 (cutoff 8000, s = 5)
_NUMERIC_WORK_CEILING = 4 * 10**7
# above N = 218 a weight of the family's identities overflows a float
_NUMERIC_N_CEILING = 218


def _parse_complex(text: str) -> complex:
    """Parse 5, 4+3j or 4+3i; only a trailing i is read as the imaginary unit."""
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


def _at_most(ceiling: int, reason: str):
    """argparse type: an int no larger than `ceiling`, else exit 2 with `reason`.

    Lower limits stay with the library, which states them itself.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value > ceiling:
            raise argparse.ArgumentTypeError(
                f"{value} is above the ceiling {ceiling} ({reason})"
            )
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = "int"
    return parse


# a value such as -inf or -4+3i starts with '-' but is not a plain
# negative number, so argparse would read it as an option
_SIGNED_VALUE_OPTIONS = ("--s", "--tol", "--n", "--m", "--c", "--cutoff")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite `--s -inf` as `--s=-inf`, and likewise for each option above."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _SIGNED_VALUE_OPTIONS and nxt[:1] == "-" and nxt[:2] != "--":
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ezbasis",
        description=(
            "Exact coefficient matrices, linear relations, basis "
            "representations, and pole catalogs for the double zeta "
            "family zeta(-c, s+c)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, formats: tuple[str, ...] = _FORMATS) -> None:
        sp.add_argument("--format", dest="fmt", choices=formats, default="text")
        sp.add_argument("--output", dest="output_path", default=None,
                        help="write to this file instead of stdout")

    sp = sub.add_parser("matrix", help="build the full coefficient matrix")
    sp.add_argument("--n", required=True,
                    type=_at_most(800, "a larger matrix needs over 150 MB to render"))
    common(sp)

    sp = sub.add_parser("invert", help="invert one triangular submatrix")
    sp.add_argument("--n", required=True,
                    type=_at_most(600, "a larger inverse needs over 200 MB to render"))
    sp.add_argument("--which", choices=("a1", "a2"), default="a1")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the cofactor algorithm")
    common(sp)

    sp = sub.add_parser("relations", help="the Q-linear relation family")
    sp.add_argument("--n", required=True,
                    type=_at_most(600, "per-relation back-substitutions grow like N^4"))
    common(sp)

    sp = sub.add_parser("basis", help="basis representation of one odd-index member")
    sp.add_argument("--m", required=True,
                    type=_at_most(800, "near m = 920 a coefficient passes the "
                                       "4300-digit int-to-str limit"))
    common(sp)

    sp = sub.add_parser("poles", help="pole/residue catalog of one member")
    sp.add_argument("--n", required=True,
                    type=_at_most(1500, "the Bernoulli numbers cost about n^3.5"))
    common(sp)

    sp = sub.add_parser("expand", help="expansion over shifted Riemann zetas")
    sp.add_argument("--c", required=True,
                    type=_at_most(1500, "the Bernoulli numbers cost about c^3.5"))
    common(sp)

    sp = sub.add_parser("verify", help="run the verification suites")
    sp.add_argument("--n", required=True,
                    type=_at_most(600, "exact verification grows like N^4"))
    sp.add_argument("--mode", dest="verify_mode",
                    choices=("exact", "numeric", "all"), default="exact")
    sp.add_argument("--s", dest="s_point", type=_parse_complex, default=complex(5.0),
                    help="evaluation point for numeric mode, e.g. 5 or 4+3j")
    sp.add_argument("--cutoff", type=_at_most(10**6, "each series sums cutoff terms"),
                    default=100000)
    sp.add_argument("--tol", type=float, default=1e-6)
    common(sp, formats=("text", "json"))

    return parser


# ---------------------------------------------------------------------------
# shared rendering helpers
#
# csv, io and json load only when a command renders them: the default
# text output needs none of them, and every start would pay their import


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _json_text(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2)


def _combination(pairs, latex: bool) -> str:
    """A signed sum of (plain label, weight) pairs: 3/2 zeta(...) or 3 \\zeta(...)/2.

    Unit coefficients are suppressed and zero weights skipped; an
    all-zero combination is "0".
    """
    parts: list[str] = []
    for label, w in pairs:
        if w == 0:
            continue
        mag = abs(w)
        if latex:
            num = "" if mag.numerator == 1 else f"{mag.numerator} "
            den = "" if mag.denominator == 1 else f"/{mag.denominator}"
            term = f"{num}\\{label}{den}"
        else:
            coef = "" if mag == 1 else f"{rat_to_str(mag)} "
            term = f"{coef}{label}"
        if not parts:
            parts.append(term if w > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if w > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _equation(lhs: str, pairs, latex: bool) -> str:
    return ("\\" if latex else "") + f"{lhs} = " + _combination(pairs, latex)


def _shift_label(j: int) -> str:
    """Display name of zeta(s+j-1), coordinate j of a shift expansion."""
    return "zeta(s-1)" if j == 0 else "zeta(s)" if j == 1 else f"zeta(s+{j - 1})"


def _matrix_output(M: coeffs.CoeffMatrix, fmt: str) -> str:
    # every entry as `rat_to_str` writes it, read off the integer grids
    cells = [list(map(_ratio_str, *rows)) for rows in zip(M.nums, M.dens)]
    if fmt == "json":
        return _json_text({"rows": M.rows, "cols": M.cols, "entries": cells})
    if fmt == "latex":
        lines = [" " + " & ".join(row) + " \\\\" for row in cells]
        return "\n".join(["\\begin{pmatrix}", *lines, "\\end{pmatrix}"])
    if fmt == "csv":
        rows = [
            [c, d, cell]
            for c, row in enumerate(cells, start=1)
            for d, cell in enumerate(row, start=1)
        ]
        return _csv_text(["c", "d", "value"], rows)
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "\n".join("  ".join(map(str.rjust, row, widths)) for row in cells)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_matrix(ns: argparse.Namespace) -> tuple[str, int]:
    return _matrix_output(coeffs.build_matrix_A(ns.n), ns.fmt), 0


def _cmd_invert(ns: argparse.Namespace) -> tuple[str, int]:
    a1, a2 = coeffs.split_A1_A2(coeffs.build_matrix_A(ns.n))
    target = a1 if ns.which == "a1" else a2
    inv = trilinalg.invert_forward(target)
    if ns.oracle:
        oracle = trilinalg.invert_cofactor(target)
        if oracle != inv:
            raise VerificationError(
                f"inversion algorithms disagree on {ns.which} at N = {ns.n}"
            )
    return _matrix_output(inv, ns.fmt), 0


def _cmd_relations(ns: argparse.Namespace) -> tuple[str, int]:
    rels = relations.relation_family(ns.n)
    labels = [function_label(p) for p in range(len(rels[0].coefficients))]
    if ns.fmt == "json":
        obj = {
            "n": ns.n,
            "functions": labels,
            "relations": [[rat_to_str(w) for w in rel.coefficients] for rel in rels],
        }
        return _json_text(obj), 0
    if ns.fmt == "csv":
        rows = [
            [idx, labels[p], rat_to_str(w)]
            for idx, rel in enumerate(rels, start=1)
            for p, w in enumerate(rel.coefficients)
        ]
        return _csv_text(["relation", "function", "coeff"], rows), 0
    latex = ns.fmt == "latex"
    sums = [_combination(zip(labels, rel.coefficients), latex) for rel in rels]
    if latex:
        return "\n".join(f"{line} = 0 \\\\" for line in sums), 0
    return "\n".join(f"r{idx}: {line} = 0" for idx, line in enumerate(sums, start=1)), 0


def _cmd_basis(ns: argparse.Namespace) -> tuple[str, int]:
    rep = relations.basis_representation(ns.m)
    target = function_label(2 * rep.m + 1)
    if ns.fmt == "json":
        gamma = {str(2 * k): rat_to_str(g) for k, g in enumerate(rep.gamma)}
        return _json_text({"target": target, "coeffs": gamma}), 0
    if ns.fmt == "csv":
        rows = [[target, 2 * k, rat_to_str(g)] for k, g in enumerate(rep.gamma)]
        return _csv_text(["target", "basis_index", "coeff"], rows), 0
    pairs = [(function_label(2 * k), rep.gamma[k]) for k in range(rep.m, -1, -1)]
    return _equation(target, pairs, latex=ns.fmt == "latex"), 0


def _residue_form(n: int, location: int) -> str:
    """The closed form of the residue of zeta(-n, s+n) at s = location.

    At s = -2k it is binom(2k-n, 2k+1)*zeta(-2k-1).
    """
    if location == 2:
        return f"1/({n}+1)"
    if location == 1:
        return "2*zeta(0)" if n == 0 else "zeta(0)"
    return f"binom({-location - n},{1 - location})*zeta({location - 1})"


def _cmd_poles(ns: argparse.Namespace) -> tuple[str, int]:
    table = analytic.pole_table(ns.n)
    poles = [(r.location, rat_to_str(r.residue)) for r in table.records]
    if ns.fmt == "json":
        obj = {"n": table.n, "poles": [{"s": s, "residue": res} for s, res in poles]}
        return _json_text(obj), 0
    if ns.fmt == "latex":
        lines = [f" \\text{{at}} & s={s}, & \\text{{residue}} & {res}, \\\\"
                 for s, res in poles]
        return "\n".join(["\\begin{array}{cccc}", *lines, "\\end{array}"]), 0
    if ns.fmt == "csv":
        return _csv_text(["s", "residue"], poles), 0
    lines = [f"poles of {function_label(table.n)}:"]
    lines += (f"  s = {s:>3}   residue {res}  [{_residue_form(table.n, s)}]" for s, res in poles)
    return "\n".join(lines), 0


def _cmd_expand(ns: argparse.Namespace) -> tuple[str, int]:
    exp = analytic.zeta_shift_expansion(ns.c)
    if ns.fmt == "json":
        return _json_text({"c": exp.c, "q": [rat_to_str(x) for x in exp.q]}), 0
    if ns.fmt == "csv":
        rows = [[j, rat_to_str(qj)] for j, qj in enumerate(exp.q)]
        return _csv_text(["j", "coeff"], rows), 0
    pairs = [(_shift_label(j), qj) for j, qj in enumerate(exp.q)]
    return _equation(function_label(exp.c), pairs, latex=ns.fmt == "latex"), 0


def _verify_exact(n: int) -> tuple[list[str], dict, bool]:
    e_max = max(1, 2 * (n // 2) - 1)
    ps = coeffs.verify_power_sum_identity(e_max)
    rel = analytic.verify_relations_exact(n)
    lines = [
        f"power-sum identity: {'PASS' if ps.ok else 'FAIL'} (e = 1..{ps.e_max})",
        f"relation collapse: {'PASS' if rel.ok else 'FAIL'} "
        f"({rel.relations_checked} relations, {rel.representations_checked} representations)",
    ]
    for e in ps.failures:
        lines.append(f"  power-sum failure at e = {e}")
    for msg in rel.failures:
        lines.append(f"  {msg}")
    obj = {
        "power_sum": {"e_max": ps.e_max, "failures": list(ps.failures)},
        "relations": {
            "relations_checked": rel.relations_checked,
            "representations_checked": rel.representations_checked,
            "failures": list(rel.failures),
        },
    }
    return lines, obj, ps.ok and rel.ok


def _verify_numeric(ns: argparse.Namespace) -> tuple[list[str], dict, bool]:
    from . import numeval

    report = numeval.numeric_verify(ns.n, ns.s_point, ns.cutoff, ns.tol)
    width = max(len(c.name) for c in report.checks)
    lines = [f"{'check'.ljust(width)}  {'residual':>12}  {'bound':>12}"]
    for c in report.checks:
        lines.append(f"{c.name.ljust(width)}  {c.residual:>12.3e}  {c.bound:>12.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"max residual {report.max_residual:.3e} (tol {report.tol:g}): {verdict}"
    )
    obj = {
        "n": report.n,
        "s": [report.s.real, report.s.imag],
        "cutoff": report.cutoff,
        "tol": report.tol,
        "max_residual": report.max_residual,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "residual": c.residual, "bound": c.bound} for c in report.checks
        ],
    }
    return lines, obj, report.passed


def _cmd_verify(ns: argparse.Namespace) -> tuple[str, int]:
    if ns.verify_mode != "exact" and ns.n * ns.cutoff > _NUMERIC_WORK_CEILING:
        raise ValueError(
            f"--n {ns.n} times --cutoff {ns.cutoff} is above the ceiling "
            f"{_NUMERIC_WORK_CEILING:.0e} of numeric verification; lower either"
        )
    if ns.verify_mode != "exact" and ns.n > _NUMERIC_N_CEILING:
        raise ValueError(
            f"--n {ns.n} is above the ceiling {_NUMERIC_N_CEILING} of numeric "
            "verification (a weight of the identities overflows a float); use --mode exact"
        )
    # the numeric part runs first, so that its input is rejected before
    # the exact part's work; both print in the order exact, numeric
    parts = {}
    if ns.verify_mode in ("numeric", "all"):
        parts["numeric"] = _verify_numeric(ns)
    if ns.verify_mode in ("exact", "all"):
        parts["exact"] = _verify_exact(ns.n)
    lines: list[str] = []
    obj: dict = {"mode": ns.verify_mode, "n": ns.n}
    ok = True
    for key in ("exact", "numeric"):
        if key in parts:
            part_lines, obj[key], part_ok = parts[key]
            lines += part_lines
            ok = ok and part_ok
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    obj["passed"] = ok
    out = _json_text(obj) if ns.fmt == "json" else "\n".join(lines)
    return out, 0 if ok else 1


_DISPATCH = {
    "matrix": _cmd_matrix,
    "invert": _cmd_invert,
    "relations": _cmd_relations,
    "basis": _cmd_basis,
    "poles": _cmd_poles,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        out, code = _DISPATCH[ns.command](ns)
    except VerificationError as exc:
        print(f"ezbasis: verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ezbasis: {exc}", file=sys.stderr)
        return 2
    if ns.output_path:
        try:
            with open(ns.output_path, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"ezbasis: cannot write {ns.output_path}: {reason}", file=sys.stderr)
            return 2
    else:
        print(out)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
