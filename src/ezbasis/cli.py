"""Command line front end.

Each subcommand wraps one library operation and shares the same four
output formats (text, json, latex, csv) where they make sense; verify
supports text and json.  Exit codes: 0 success or verification pass,
1 verification failure, 2 usage or precondition error.

Everything here is single-threaded.  The environment variable
EZBASIS_THREADS, when set, must be a positive integer; it caps the
worker count for any parallel section (all current code paths use one
worker, so the cap is validated and recorded but does not change
behavior).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import analytic, coeffs, numeval, relations, trilinalg
from .errors import VerificationError
from .exactnum import rat_to_str
from .relations import function_label

_FORMATS = ("text", "json", "latex", "csv")
_VERIFY_FORMATS = ("text", "json")


@dataclass(frozen=True)
class CliConfig:
    command: str
    n_or_m: int
    fmt: str = "text"
    verify_mode: str = "exact"
    s_point: complex = complex(5.0)
    cutoff: int = 100000
    tol: float = 1e-6
    output_path: str | None = None
    which: str = "a1"
    oracle: bool = False


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j")
    return complex(cleaned.replace(" ", ""))


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

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", dest="fmt", choices=_FORMATS, default="text")
        sp.add_argument("--output", dest="output_path", default=None,
                        help="write to this file instead of stdout")

    sp = sub.add_parser("matrix", help="build the full coefficient matrix")
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("invert", help="invert one triangular submatrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--which", choices=("a1", "a2"), default="a1")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the cofactor algorithm")
    common(sp)

    sp = sub.add_parser("relations", help="the Q-linear relation family")
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("basis", help="basis representation of one odd-index member")
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = sub.add_parser("poles", help="pole/residue catalog of one member")
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("expand", help="expansion over shifted Riemann zetas")
    sp.add_argument("--c", type=int, required=True)
    common(sp)

    sp = sub.add_parser("verify", help="run the verification suites")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", dest="verify_mode",
                    choices=("exact", "numeric", "all"), default="exact")
    sp.add_argument("--s", dest="s_point", type=_parse_complex, default=complex(5.0),
                    help="evaluation point for numeric mode, e.g. 5 or 4+3j")
    sp.add_argument("--cutoff", type=int, default=100000)
    sp.add_argument("--tol", type=float, default=1e-6)
    common(sp)

    return parser


def _config(ns: argparse.Namespace) -> CliConfig:
    n_or_m = getattr(ns, "n", None)
    if n_or_m is None:
        n_or_m = getattr(ns, "m", None)
    if n_or_m is None:
        n_or_m = getattr(ns, "c", None)
    return CliConfig(
        command=ns.command,
        n_or_m=int(n_or_m),
        fmt=ns.fmt,
        verify_mode=getattr(ns, "verify_mode", "exact"),
        s_point=getattr(ns, "s_point", complex(5.0)),
        cutoff=getattr(ns, "cutoff", 100000),
        tol=getattr(ns, "tol", 1e-6),
        output_path=ns.output_path,
        which=getattr(ns, "which", "a1"),
        oracle=getattr(ns, "oracle", False),
    )


# ---------------------------------------------------------------------------
# shared rendering helpers


def _combo(pairs: list[tuple[str, Fraction]], latex: bool) -> str:
    """Render a signed linear combination of labeled terms.

    Text style puts the coefficient in front (3/2 zeta(...)), latex
    style splits it around the symbol in display fashion
    (3 \\zeta(...)/2); unit coefficients are suppressed either way.
    """
    parts: list[str] = []
    for label, w in pairs:
        if w == 0:
            continue
        mag = abs(w)
        if latex:
            num = "" if mag.numerator == 1 else f"{mag.numerator} "
            den = "" if mag.denominator == 1 else f"/{mag.denominator}"
            term = f"{num}{label}{den}"
        else:
            coef = "" if mag == 1 else f"{rat_to_str(mag)} "
            term = f"{coef}{label}"
        if not parts:
            parts.append(term if w > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if w > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2)


def _matrix_output(M: coeffs.CoeffMatrix, fmt: str) -> str:
    if fmt == "json":
        return _json_text(M.to_json_dict())
    if fmt == "latex":
        return M.to_latex()
    if fmt == "csv":
        rows = [
            [c + 1, d + 1, rat_to_str(M.entries[c][d])]
            for c in range(M.rows)
            for d in range(M.cols)
        ]
        return _csv_text(["c", "d", "value"], rows)
    return M.to_text()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_matrix(cfg: CliConfig) -> tuple[str, int]:
    return _matrix_output(coeffs.build_matrix_A(cfg.n_or_m), cfg.fmt), 0


def _cmd_invert(cfg: CliConfig) -> tuple[str, int]:
    a1, a2 = coeffs.split_A1_A2(coeffs.build_matrix_A(cfg.n_or_m))
    target = a1 if cfg.which == "a1" else a2
    inv = trilinalg.invert_forward(target)
    if cfg.oracle:
        oracle = trilinalg.invert_cofactor(target)
        if oracle != inv:
            raise VerificationError(
                f"inversion algorithms disagree on {cfg.which} at N = {cfg.n_or_m}"
            )
    return _matrix_output(inv, cfg.fmt), 0


def _relation_pairs(rel: relations.RelationVector, latex: bool) -> list[tuple[str, Fraction]]:
    labels = []
    for p, w in enumerate(rel.folded_coefficients()):
        label = function_label(p)
        if latex:
            label = "\\" + label
        labels.append((label, w))
    return labels


def _cmd_relations(cfg: CliConfig) -> tuple[str, int]:
    rels = relations.relation_family(cfg.n_or_m)
    labels = [function_label(p) for p in range(len(rels[0].coefficients))]
    if cfg.fmt == "json":
        obj = {
            "n": cfg.n_or_m,
            "functions": labels,
            "relations": [
                [rat_to_str(w) for w in rel.folded_coefficients()] for rel in rels
            ],
        }
        return _json_text(obj), 0
    if cfg.fmt == "csv":
        rows = [
            [idx, labels[p], rat_to_str(w)]
            for idx, rel in enumerate(rels, start=1)
            for p, w in enumerate(rel.folded_coefficients())
        ]
        return _csv_text(["relation", "function", "coeff"], rows), 0
    if cfg.fmt == "latex":
        lines = [
            _combo(_relation_pairs(rel, latex=True), latex=True) + " = 0 \\\\"
            for rel in rels
        ]
        return "\n".join(lines), 0
    lines = [
        f"r{idx}: " + _combo(_relation_pairs(rel, latex=False), latex=False) + " = 0"
        for idx, rel in enumerate(rels, start=1)
    ]
    return "\n".join(lines), 0


def _cmd_basis(cfg: CliConfig) -> tuple[str, int]:
    rep = relations.basis_representation(cfg.n_or_m)
    if cfg.fmt == "json":
        return _json_text(rep.to_json_dict()), 0
    if cfg.fmt == "latex":
        return rep.to_latex(), 0
    if cfg.fmt == "csv":
        rows = [
            [rep.target_label, 2 * k, rat_to_str(g)] for k, g in enumerate(rep.gamma)
        ]
        return _csv_text(["target", "basis_index", "coeff"], rows), 0
    return rep.to_text(), 0


def _cmd_poles(cfg: CliConfig) -> tuple[str, int]:
    table = analytic.pole_table(cfg.n_or_m)
    if cfg.fmt == "json":
        return _json_text(table.to_json_dict()), 0
    if cfg.fmt == "latex":
        return table.to_latex(), 0
    if cfg.fmt == "csv":
        rows = [[r.location, rat_to_str(r.residue)] for r in table.records]
        return _csv_text(["s", "residue"], rows), 0
    return table.to_text(), 0


def _cmd_expand(cfg: CliConfig) -> tuple[str, int]:
    exp = analytic.zeta_shift_expansion(cfg.n_or_m)
    target = function_label(cfg.n_or_m)
    if cfg.fmt == "json":
        return _json_text(exp.to_json_dict()), 0
    if cfg.fmt == "csv":
        rows = [[j, rat_to_str(qj)] for j, qj in enumerate(exp.q)]
        return _csv_text(["j", "coeff"], rows), 0
    latex = cfg.fmt == "latex"
    pairs = []
    for j, qj in enumerate(exp.q):
        label = exp.term_label(j)
        if latex:
            label = "\\" + label
        pairs.append((label, qj))
    lhs = ("\\" + target) if latex else target
    return f"{lhs} = " + _combo(pairs, latex=latex), 0


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


def _verify_numeric(cfg: CliConfig) -> tuple[list[str], dict, bool]:
    report = numeval.numeric_verify(cfg.n_or_m, cfg.s_point, cfg.cutoff, cfg.tol)
    width = max(len(c.name) for c in report.checks)
    lines = [f"{'check'.ljust(width)}  {'residual':>12}  {'bound':>12}"]
    for c in report.checks:
        lines.append(f"{c.name.ljust(width)}  {c.residual:>12.3e}  {c.bound:>12.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"max residual {report.max_residual:.3e} (tol {report.tol:g}): {verdict}"
    )
    return lines, report.to_json_dict(), report.passed


def _cmd_verify(cfg: CliConfig) -> tuple[str, int]:
    if cfg.fmt not in _VERIFY_FORMATS:
        raise ValueError(f"verify supports formats {_VERIFY_FORMATS}, not {cfg.fmt!r}")
    lines: list[str] = []
    obj: dict = {"mode": cfg.verify_mode, "n": cfg.n_or_m}
    ok = True
    if cfg.verify_mode in ("exact", "all"):
        el, eo, eok = _verify_exact(cfg.n_or_m)
        lines += el
        obj["exact"] = eo
        ok = ok and eok
    if cfg.verify_mode in ("numeric", "all"):
        nl, no, nok = _verify_numeric(cfg)
        lines += nl
        obj["numeric"] = no
        ok = ok and nok
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    obj["passed"] = ok
    out = _json_text(obj) if cfg.fmt == "json" else "\n".join(lines)
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


def _thread_cap_error() -> str | None:
    raw = os.environ.get("EZBASIS_THREADS")
    if raw is None:
        return None
    try:
        if int(raw) >= 1:
            return None
    except ValueError:
        pass
    return f"EZBASIS_THREADS must be a positive integer, got {raw!r}"


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    cap_error = _thread_cap_error()
    if cap_error is not None:
        print(f"ezbasis: {cap_error}", file=sys.stderr)
        return 2
    cfg = _config(ns)
    try:
        out, code = _DISPATCH[cfg.command](cfg)
    except VerificationError as exc:
        print(f"ezbasis: verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ezbasis: {exc}", file=sys.stderr)
        return 2
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
