import json
import subprocess
import sys

import pytest

from riordan_gep.cli import main
from riordan_gep.output import OutputDoc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenInvocations:
    def test_euler_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "euler", "--n", "4")
        assert code == 0
        assert out == "x+11x^2+11x^3+x^4\n"

    def test_w_csv(self, capsys):
        code, out, _ = run_cli(capsys, "w", "--n", "3", "--m", "2", "--format", "csv")
        assert code == 0
        assert out == "4,1,0\n4,6,4\n0,1,4\n"

    def test_verify_subset_seed_seven(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gep", "--seed", "7", "--max-n", "5")
        assert code == 0
        assert "0 failed" in out


class TestSeries:
    def test_eval_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "series", "eval", "(1+x)/(1-x)", "--order", "3")
        assert code == 0
        assert out == "1, 2, 2, 2\n"

    def test_eval_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "eval", "(1+x)/(1-x)", "--order", "3", "--format", "json"
        )
        doc = OutputDoc.from_json(out)
        assert doc.kind == "SeriesCoeffs"
        assert doc.entries == [["1", "2", "2", "2"]]
        assert OutputDoc.from_json(doc.to_json()) == doc

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "series", "eval", "log(x)", "--order", "4")
        assert code == 1
        assert "error" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "series", "eval", "1+", "--order", "4")
        assert code == 1
        assert "parse error" in err


class TestRiordanTable:
    def test_pascal_window(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riordan",
            "table",
            "--f",
            "1/(1-x)",
            "--g",
            "x/(1-x)",
            "--rows",
            "4",
            "--cols",
            "4",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == "1,0,0,0\n1,1,0,0\n1,2,1,0\n1,3,3,1\n"

    def test_exponential_kind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riordan",
            "table",
            "--f",
            "exp(x)",
            "--g",
            "x",
            "--kind",
            "exp",
            "--rows",
            "3",
            "--cols",
            "3",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == "1,0,0\n1,1,0\n1,2,1\n"

    def test_square_kind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riordan",
            "table",
            "--f",
            "1",
            "--g",
            "1+x",
            "--kind",
            "square",
            "--rows",
            "3",
            "--cols",
            "4",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == "1,1,1,1\n0,1,2,3\n0,0,1,3\n"


class TestGep:
    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "gep", "alpha", "--a", "(1+x)/(1-x)", "--n", "3")
        assert code == 0
        assert out == "2x+4x^2+2x^3\n"

    def test_matrix_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "gep", "matrix", "Uinv", "--n", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["entries"] == [["2", "-1", "2"], ["3", "0", "-3"], ["1", "1", "1"]]
        assert payload["rows"] == payload["cols"] == 3

    def test_v_and_products(self, capsys):
        code, out, _ = run_cli(capsys, "gep", "matrix", "VU", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "1/2,1/2\n0,1\n"


class TestWAndAbeta:
    def test_w_check_report(self, capsys):
        code, out, _ = run_cli(capsys, "w", "--n", "4", "--m", "3", "--check")
        assert code == 0
        assert "0 failed" in out

    def test_abeta_fraction_argument(self, capsys):
        code, out, _ = run_cli(
            capsys, "abeta", "--n", "2", "--beta", "1/2", "--format", "csv"
        )
        assert code == 0
        assert out == "3/2,1/2\n-1/2,1/2\n"

    def test_abeta_constructions_match(self, capsys):
        outs = []
        for construction in ("conj", "dtilde", "log"):
            code, out, _ = run_cli(
                capsys,
                "abeta",
                "--n",
                "4",
                "--beta=-2/3",  # negative rationals use the = form
                "--construction",
                construction,
                "--format",
                "csv",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


class TestLagrange:
    def test_catalan(self, capsys):
        code, out, _ = run_cli(
            capsys, "lagrange", "--a", "1+x", "--beta", "2", "--order", "5", "--format", "csv"
        )
        assert code == 0
        assert out == "1,1,2,5,14,42\n"

    def test_pole_reports_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "lagrange", "--a", "1+x", "--beta", "-1", "--order", "5"
        )
        assert code == 1
        assert "pole" in err


class TestDirichlet:
    def test_zeta_log_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dirichlet",
            "table",
            "--preset",
            "zeta-log",
            "--rows",
            "8",
            "--cols",
            "4",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[3] == "0,1/2,1,0"
        assert out.splitlines()[7] == "0,1/3,1,1"

    def test_g_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "dirichlet", "g", "--p", "2", "--r", "2")
        assert code == 0
        assert out == "x+4x^2+x^3\n"


class TestLimitsAndUsage:
    def test_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RIORDAN_GEP_MAX_ORDER", "10")
        code, _, err = run_cli(capsys, "series", "eval", "x", "--order", "50")
        assert code == 1
        assert "RIORDAN_GEP_MAX_ORDER" in err

    def test_w_is_bounded_by_the_series_order_it_expands(self, capsys, monkeypatch):
        monkeypatch.setenv("RIORDAN_GEP_MAX_ORDER", "10")
        code, out, _ = run_cli(capsys, "w", "--n", "2", "--m", "5", "--format", "csv")
        assert code == 0  # W_(2,5) expands order 9
        assert out == "15,10\n10,15\n"
        code, out, err = run_cli(capsys, "w", "--n", "3", "--m", "4")  # order 11
        assert (code, out) == (1, "")
        assert err == "error: series order 11 exceeds RIORDAN_GEP_MAX_ORDER=10\n"
        code, _, err = run_cli(capsys, "w", "--n", "2", "--m", "3", "--check")  # W_(2,6): 11
        assert code == 1
        assert "series order 11" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["euler"])  # missing --n
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["riordan", "table", "--f", "1", "--g", "x", "--rows", "0"], "--rows"),
            (["dirichlet", "table", "--preset", "zeta", "--rows", "0"], "--rows"),
            (["series", "eval", "x", "--order", "-1"], "--order"),
            (["w", "--n", "3", "--m", "two"], "--m"),
        ],
    )
    def test_bad_integer_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"argument {option}:" in err
        assert "Traceback" not in err

    def test_order_zero_is_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "series", "eval", "1+x", "--order", "0")
        assert (code, out) == (0, "1\n")

    def test_deep_nesting_is_a_one_line_parse_error(self, capsys):
        text = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run_cli(capsys, "series", "eval", text, "--order", "2")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: parse error")

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riordan_gep", "euler", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "x+11x^2+11x^3+x^4\n"


def test_registry_rows_are_the_benchmark_pins(monkeypatch):
    # perfbench/workloads.py pins every verify row; a renamed or reordered
    # row fails every verify-suites job of the benchmark
    from pathlib import Path

    from riordan_gep.verify import REGISTRY

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("checks", None)
    pinned = [(suite, label) for suite, labels in workloads.VERIFY_CHECKS.items() for label in labels]
    assert [(suite, label) for suite, label, _ in REGISTRY] == pinned


def test_verify_reports_failures_with_nonzero_exit(capsys, monkeypatch):
    import riordan_gep.verify as verify_mod

    def broken(rng, max_n):
        return False

    monkeypatch.setattr(
        verify_mod, "REGISTRY", [("gep", "always fails", broken)], raising=True
    )
    monkeypatch.setattr("riordan_gep.cli.run_suites", verify_mod.run_suites)
    code = main(["verify", "gep"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_verify_reports_why_a_check_crashed(capsys, monkeypatch):
    import riordan_gep.verify as verify_mod

    def crashes(rng, max_n):
        raise ZeroDivisionError("no inverse, sorry")

    def passes(rng, max_n):
        return True

    registry = [("gep", "crashes", crashes), ("gep", "passes", passes)]
    monkeypatch.setattr(verify_mod, "REGISTRY", registry, raising=True)
    monkeypatch.setattr("riordan_gep.cli.run_suites", verify_mod.run_suites)
    code, out, _ = run_cli(capsys, "verify", "gep")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] gep: crashes -- ZeroDivisionError: no inverse, sorry",
        "[ok] gep: passes",
        "2 checks, 1 failed",
    ]
    code, out, _ = run_cli(capsys, "verify", "gep", "--format", "json")
    assert json.loads(out)["entries"] == [
        ["gep", "crashes", "FAIL", "ZeroDivisionError: no inverse, sorry"],
        ["gep", "passes", "ok", ""],
    ]
    code, out, _ = run_cli(capsys, "verify", "gep", "--format", "csv")
    assert out == 'gep,crashes,FAIL,"ZeroDivisionError: no inverse, sorry"\ngep,passes,ok,\n'
