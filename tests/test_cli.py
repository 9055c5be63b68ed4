"""End-to-end command line tests driven through ezbasis.cli.run."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ezbasis.cli as cli
from ezbasis import coeffs
from ezbasis.coeffs import CoeffMatrix, build_matrix_A, split_A1_A2
from ezbasis.trilinalg import invert_forward
from golden_values import BASIS_LATEX_M5, CLI_STDOUT
from reference import matrix_from_json
from test_relations import _corrupt_row


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrix:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "12", "--format", "json")
        assert code == 0
        parsed = matrix_from_json(json.loads(out))
        assert parsed == build_matrix_A(12)

    def test_latex_last_row(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "12", "--format", "latex")
        assert code == 0
        assert " 1 & -11 & 44 & -77 & 55 & -11 \\\\" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "12", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "c,d,value"
        assert lines[1] == "1,1,1"
        assert len(lines) == 1 + 12 * 6
        assert "12,6,-11" in lines

    def test_text_default(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "4")
        assert code == 0
        rows = out.rstrip("\n").split("\n")
        assert len(rows) == 4

    def test_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--n", "1")
        assert code == 2
        assert "ezbasis:" in err


class TestInvert:
    def test_a1_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--n", "12", "--which", "a1", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][5] == ["227/4", "-140", "115", "-75/2", "25/4", "-1/2"]

    def test_a2_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--n", "10", "--which", "a2", "--format", "json"
        )
        assert code == 0
        _, a2 = split_A1_A2(build_matrix_A(10))
        assert matrix_from_json(json.loads(out)) == invert_forward(a2)

    def test_oracle_passes(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "20", "--oracle")
        assert code == 0
        assert out

    def test_oracle_disagreement_is_failure(self, capsys, monkeypatch):
        def wrong(matrix):
            return CoeffMatrix.identity(matrix.rows)

        monkeypatch.setattr(cli.trilinalg, "invert_cofactor", wrong)
        code, _, err = run_cli(capsys, "invert", "--n", "8", "--oracle")
        assert code == 1
        assert "verification failure" in err


class TestBasis:
    def test_latex_m5_golden(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--m", "5", "--format", "latex")
        assert code == 0
        assert "".join(out.split()) == "".join(BASIS_LATEX_M5.split())

    def test_json_m1(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--m", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "target": "zeta(-3,s+3)",
            "coeffs": {"0": "-1/4", "2": "3/2"},
        }

    def test_csv_m2(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--m", "2", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "target,basis_index,coeff"
        # the label itself contains a comma, so csv quotes it
        assert lines[1] == '"zeta(-5,s+5)",0,1/2'
        assert lines[3] == '"zeta(-5,s+5)",4,5/2'

    def test_text_m0(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--m", "0")
        assert code == 0
        assert out.rstrip("\n") == "zeta(-1,s+1) = 1/2 zeta(0,s)"

    def test_negative_m(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--m", "-3")
        assert code == 2


class TestRelations:
    def test_text_first_line(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "--n", "4")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "r1: 1/2 zeta(0,s) - zeta(-1,s+1) = 0"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4
        assert obj["functions"] == [
            "zeta(0,s)", "zeta(-1,s+1)", "zeta(-2,s+2)", "zeta(-3,s+3)",
        ]
        assert obj["relations"][0] == ["1/2", "-1", "0", "0"]
        assert obj["relations"][1] == ["1/4", "-1/3", "-1/2", "1/3"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "relation,function,coeff"
        assert lines[1] == '1,"zeta(0,s)",1/2'
        assert len(lines) == 1 + 2 * 4

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "--n", "4", "--format", "latex")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].endswith("= 0 \\\\")
        assert "\\zeta(0,s)/2 - \\zeta(-1,s+1)" in lines[0]


@pytest.mark.parametrize(
    "args", list(CLI_STDOUT), ids=lambda args: "_".join(a.lstrip("-") for a in args)
)
def test_rendering_golden(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (0, CLI_STDOUT[args], "")


class TestPoles:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "poles": [
                {"s": 2, "residue": "1/4"},
                {"s": 1, "residue": "-1/2"},
                {"s": 0, "residue": "1/4"},
            ],
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.rstrip("\n").split("\n") == [
            "s,residue", "2,1/3", "1,-1/2", "0,1/6",
        ]

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--n", "3", "--format", "latex")
        assert code == 0
        assert " \\text{at} & s=2, & \\text{residue} & 1/4, \\\\" in out

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--n", "0")
        assert code == 0
        assert out.splitlines()[0] == "poles of zeta(0,s):"


class TestExpand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--c", "3")
        assert code == 0
        assert out.rstrip("\n") == (
            "zeta(-3,s+3) = 1/4 zeta(s-1) - 1/2 zeta(s) + 1/4 zeta(s+1)"
        )

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--c", "3", "--format", "latex")
        assert code == 0
        assert out.rstrip("\n") == (
            "\\zeta(-3,s+3) = \\zeta(s-1)/4 - \\zeta(s)/2 + \\zeta(s+1)/4"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--c", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"c": 2, "q": ["1/3", "-1/2", "1/6"]}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--c", "2", "--format", "csv")
        assert code == 0
        assert out.rstrip("\n").split("\n") == [
            "j,coeff", "0,1/3", "1,-1/2", "2,1/6",
        ]

    def test_negative_c_names_c(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--c", "-1")
        assert (code, out, err) == (2, "", "ezbasis: c must be >= 0\n")


class TestVerify:
    def test_exact_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "12", "--mode", "exact")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "power-sum identity: PASS (e = 1..11)"
        assert lines[1] == "relation collapse: PASS (6 relations, 6 representations)"
        assert lines[-1] == "result: PASS"

    def test_numeric_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--s", "5", "--cutoff", "2000", "--tol", "1e-5",
        )
        assert code == 0
        assert out.rstrip("\n").endswith("result: PASS")
        assert "tornheim row c=0" in out

    def test_numeric_complex_s_with_i(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--mode", "numeric",
            "--s", "4+3i", "--cutoff", "2000", "--tol", "1e-4",
        )
        assert code == 0
        assert out.rstrip("\n").endswith("result: PASS")

    def test_all_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "6", "--mode", "all", "--format", "json",
            "--cutoff", "2000", "--tol", "1e-5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["mode"] == "all"
        assert obj["passed"] is True
        assert obj["exact"]["power_sum"]["failures"] == []
        assert obj["numeric"]["passed"] is True

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        real = cli.numeval.numeric_verify

        def doctored(N, s, cutoff, tol):
            report = real(N, s, cutoff, tol)
            bad = cli.numeval.NumericCheck(name="planted", residual=1.0, bound=2.0)
            return cli.numeval.NumericReport(
                n=report.n, s=report.s, cutoff=report.cutoff,
                tol=report.tol, checks=report.checks + (bad,),
            )

        monkeypatch.setattr(cli.numeval, "numeric_verify", doctored)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--mode", "numeric",
            "--cutoff", "1000", "--tol", "1e-4",
        )
        assert code == 1
        assert out.rstrip("\n").endswith("result: FAIL")

    def test_tol_below_bound_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--cutoff", "1000", "--tol", "1e-30",
        )
        assert code == 2
        assert "bound" in err

    def test_tol_below_bound_rejected_before_summing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected tol must not sum any series")

        monkeypatch.setattr(cli.numeval, "eval_ez_double", refuse)
        monkeypatch.setattr(cli.numeval, "eval_tornheim", refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "30", "--mode", "numeric", "--s", "5")
        assert (code, out) == (2, "")
        assert err == (
            "ezbasis: tol 1e-06 is not above the achievable bound 5.607e+01; "
            "raise tol or the cutoff\n"
        )

    def test_infinite_tol_rejected(self, capsys):
        # every finite residual is below inf, so PASS would be hollow
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--cutoff", "100", "--tol", "inf",
        )
        assert (code, out) == (2, "")
        assert err == "ezbasis: tol must be finite, got inf\n"

    @pytest.mark.parametrize("s", ["inf", "infj", "nan"])
    def test_numeric_non_finite_s_rejected(self, capsys, s):
        # only a trailing i is the imaginary unit, so "inf" reaches the library
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--s", s, "--cutoff", "100", "--tol", "1e-6",
        )
        assert (code, out) == (2, "")
        assert "must be finite" in err

    def test_numeric_garbage_s_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric", "--s", "abc",
        )
        assert (code, out) == (2, "")
        assert "argument --s: not a complex number: 'abc'" in err
        assert "_parse_complex" not in err

    @pytest.mark.parametrize("s", ["1e300", "1100", "1070"])
    def test_numeric_huge_real_s_rejected(self, capsys, s):
        # at n = 6 the largest shift is 5, and 2^-(1070+5) is 0.0 in
        # floats: every term would underflow and the check read 0 = 0
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--s", s, "--cutoff", "100", "--tol", "1e-6",
        )
        assert code == 2
        assert out == ""
        assert "underflows to 0.0" in err

    def test_numeric_real_s_just_inside_underflow_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric",
            "--s", "1069", "--cutoff", "100", "--tol", "1e-6",
        )
        assert code == 0
        assert out.rstrip("\n").endswith("result: PASS")

    def test_latex_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--format", "latex")
        assert code == 2
        assert "invalid choice: 'latex'" in err

    def test_format_choices_live_in_the_parser(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--format", "csv")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv' (choose from 'text', 'json')" in err
        parser = cli._build_parser()
        for argv in (["matrix", "--n", "4"], ["invert", "--n", "4"], ["relations", "--n", "4"],
                     ["basis", "--m", "1"], ["poles", "--n", "2"], ["expand", "--c", "2"]):
            for fmt in ("text", "json", "latex", "csv"):
                assert parser.parse_args([*argv, "--format", fmt]).fmt == fmt

    def test_negative_non_finite_s_is_a_value(self, capsys):
        # "-inf" starts with '-', yet it is the value of --s, not an option
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric", "--s", "-inf",
        )
        assert (code, out) == (2, "")
        assert "s must be finite" in err

    @pytest.mark.parametrize("form", [["--s", "-4+3i"], ["--s=-4+3i"]])
    def test_negative_complex_s_reaches_the_margin_check(self, capsys, form):
        code, out, err = run_cli(capsys, "verify", "--n", "6", "--mode", "numeric", *form)
        assert (code, out) == (2, "")
        assert err == "ezbasis: Re(s) must exceed 2.1 (convergence margin), got -4.0\n"

    def test_negative_non_finite_tol_is_a_value(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--mode", "numeric", "--tol", "-inf",
        )
        assert (code, out, err) == (2, "", "ezbasis: tol must be positive\n")

    def test_s_without_value_still_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "6", "--s", "--mode", "numeric")
        assert code == 2
        assert "argument --s: expected one argument" in err


# (command and size option, ceiling); every case is rejected while the
# arguments are parsed, so no size above a ceiling is ever computed
_CEILINGS = [
    (("matrix", "--n"), 800),
    (("invert", "--n"), 600),
    (("relations", "--n"), 600),
    (("basis", "--m"), 800),
    (("poles", "--n"), 1500),
    (("expand", "--c"), 1500),
    (("verify", "--n"), 600),
    (("verify", "--n", "12", "--cutoff"), 10**6),
]


class TestCeilings:
    @pytest.mark.parametrize("prefix, ceiling", _CEILINGS)
    @pytest.mark.parametrize("excess", [1, 10**6])
    def test_above_ceiling_rejected(self, capsys, prefix, ceiling, excess):
        code, out, err = run_cli(capsys, *prefix, str(ceiling + excess))
        assert (code, out) == (2, "")
        assert f"argument {prefix[-1]}: {ceiling + excess} is above the ceiling {ceiling} (" in err

    @pytest.mark.parametrize("prefix, ceiling", _CEILINGS)
    def test_ceiling_itself_parses(self, prefix, ceiling):
        ns = cli._build_parser().parse_args([*prefix, str(ceiling)])
        assert getattr(ns, prefix[-1].lstrip("-")) == ceiling

    def test_workload_sizes_parse(self):
        parser = cli._build_parser()
        assert parser.parse_args(["verify", "--n", "100", "--mode", "exact"]).n == 100
        assert parser.parse_args(["invert", "--n", "100"]).n == 100
        ns = parser.parse_args(["verify", "--n", "12", "--cutoff", "100000"])
        assert ns.n * ns.cutoff <= cli._NUMERIC_WORK_CEILING

    def test_non_integer_message_unchanged(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "abc")
        assert code == 2
        assert "argument --n: invalid int value: 'abc'" in err

    @pytest.mark.parametrize("mode", ["numeric", "all"])
    def test_numeric_work_ceiling(self, capsys, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may run above the ceiling")

        monkeypatch.setattr(cli.numeval, "numeric_verify", refuse)
        monkeypatch.setattr(cli.analytic, "verify_relations_exact", refuse)
        code, out, err = run_cli(
            capsys, "verify", "--n", "600", "--mode", mode, "--cutoff", "70000",
        )
        assert (code, out) == (2, "")
        assert "--n 600 times --cutoff 70000 is above the ceiling" in err

    def test_exact_mode_ignores_the_numeric_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verify_exact", lambda n: (["stub"], {}, True))
        code, out, _ = run_cli(capsys, "verify", "--n", "600", "--cutoff", "1000000")
        assert (code, out) == (0, "stub\nresult: PASS\n")


_EXACT_HEAD = "power-sum identity: PASS (e = 1..11)\n"
_COLLAPSE_FAIL = "relation collapse: FAIL (6 relations, 6 representations)\n"


class TestVerifyExactMutants:
    """`verify --mode exact` itself prints FAIL for a corrupted row."""

    @staticmethod
    def _corrupt_solved_rows(monkeypatch, corrupt):
        solved_rows = cli.analytic._solved_rows

        def corrupted(n_rel, ms):
            rels, reps = solved_rows(n_rel, ms)
            corrupt(rels, reps)
            return rels, reps

        monkeypatch.setattr(cli.analytic, "_solved_rows", corrupted)

    def test_corrupted_relation_row(self, capsys, monkeypatch):
        # numerator x_0 of relation 2, over dx = -2: weight -1/2 more
        # on zeta(0,s)/2
        def corrupt(rels, reps):
            rels[1][0][0] += 1

        self._corrupt_solved_rows(monkeypatch, corrupt)
        assert run_cli(capsys, "verify", "--n", "12", "--mode", "exact") == (1, (
            _EXACT_HEAD + _COLLAPSE_FAIL
            + "  relation 2: residual -1/4 on j = 0\n"
            "  relation 2: residual 1/4 on j = 1\n"
            "result: FAIL\n"
        ), "")

    def test_corrupted_representation_row(self, capsys, monkeypatch):
        # numerator x_1 of m = 3, over d = -4: gamma_1 falls by 1/4
        def corrupt(rels, reps):
            reps[3][0][1] += 1

        self._corrupt_solved_rows(monkeypatch, corrupt)
        assert run_cli(capsys, "verify", "--n", "12", "--mode", "exact") == (1, (
            _EXACT_HEAD + _COLLAPSE_FAIL
            + "  representation m = 3: residual 1/12 on j = 0\n"
            "  representation m = 3: residual -1/8 on j = 1\n"
            "  representation m = 3: residual 1/24 on j = 2\n"
            "result: FAIL\n"
        ), "")

    @pytest.mark.parametrize(
        "c, d, out, err",
        [
            (12, 3, (
                "power-sum identity: FAIL (e = 1..11)\n" + _COLLAPSE_FAIL
                + "  power-sum failure at e = 11\n"
                "  relation 6: residual -1/660 on j = 0\n"
                "  relation 6: residual 1/660 on j = 4\n"
                "  representation m = 5: residual -1/60 on j = 0\n"
                "  representation m = 5: residual 1/60 on j = 4\n"
                "result: FAIL\n"
            ), ""),
            (12, 1, "", "residue balance 2*gamma_0 + sum gamma_2k = 1 violated"),
            (12, 6, "", "leading coefficient must be (2m+1)/2, got 5"),
            (8, 4, "", "leading coefficient must be (2m+1)/2, got 3"),
        ],
        ids=["collapse", "balance", "leading-m5", "leading-m3"],
    )
    def test_corrupted_coefficient_row(self, capsys, monkeypatch, c, d, out, err):
        # a_{c,d} raised by one
        _corrupt_row(monkeypatch, c, d, coeffs.coeff_row(c)[d - 1] + 1)
        got = run_cli(capsys, "verify", "--n", "12", "--mode", "exact")
        assert got == (1, out, f"ezbasis: verification failure: {err}\n" if err else "")


_BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
_BENCH_DIGESTS = json.loads(_BENCH_EXPECTED.read_text(encoding="utf-8"))["cli"]


class TestBenchmarkDigests:
    """The stdout the benchmark checks, compared here as well."""

    @pytest.mark.parametrize("argv", sorted(_BENCH_DIGESTS))
    def test_stdout_matches_the_recorded_digest(self, capsys, argv):
        want = _BENCH_DIGESTS[argv]
        code, out, _ = run_cli(capsys, *argv.split())
        data = out.encode("utf-8")
        assert (code, hashlib.sha256(data).hexdigest(), len(data)) == (
            want["exit"], want["sha256"], want["bytes"]
        )


class TestPlumbing:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_arg(self, capsys):
        assert run_cli(capsys, "matrix")[0] == 2

    def test_no_args(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_bad_format_value(self, capsys):
        assert run_cli(capsys, "matrix", "--n", "4", "--format", "yaml")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "matrix", "--n", "6", "--format", "json",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.endswith("\n")
        assert matrix_from_json(json.loads(text)) == build_matrix_A(6)

    @pytest.mark.parametrize(
        "name, reason",
        [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-parent", "directory"],
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, name, reason):
        target = tmp_path / name
        code, out, err = run_cli(capsys, "matrix", "--n", "4", "--output", str(target))
        assert (code, out) == (2, "")
        assert err == f"ezbasis: cannot write {target}: {reason}\n"

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "relations", "--n", "8", "--format", "json")
        second = run_cli(capsys, "relations", "--n", "8", "--format", "json")
        assert first == second

    def test_main_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["ezbasis", "poles", "--n", "2"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        capsys.readouterr()

    def test_python_m_runs_cli(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--n", "2")
        assert code == 0
        proc = _python_m("ezbasis", "poles", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout == out.encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_python_m_renders_with_deferred_imports(self, capsys, fmt):
        # json and csv load inside the renderers, so a cold process takes
        # a path that an in-process run, with both already loaded, does not
        code, out, err = run_cli(capsys, "relations", "--n", "4", "--format", fmt)
        proc = _python_m("ezbasis", "relations", "--n", "4", "--format", fmt)
        assert proc.returncode == code == 0
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())

    @pytest.mark.parametrize(
        "args", [("poles", "--n", "2"), ("poles", "--n", "-1")], ids=["ok", "bad-n"]
    )
    def test_python_m_cli_module_runs_cli(self, capsys, args):
        code, out, _ = run_cli(capsys, *args)
        proc = _python_m("ezbasis.cli", *args)
        assert proc.returncode == code
        assert proc.stdout == out.encode()


def _python_m(module, *args):
    """Run `python -m module args` in a fresh interpreter that finds src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, env=env, timeout=60,
    )
