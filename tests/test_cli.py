import errno
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riordan_gep.cli import SUITE_NAMES, main
from riordan_gep.suites.cli import _from_json


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
        doc = _from_json(out)
        assert doc.kind == "SeriesCoeffs"
        assert doc.entries == [["1", "2", "2", "2"]]
        assert _from_json(doc.to_json()) == doc

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

    def test_only_u_builds_u_inverse(self, capsys, monkeypatch):
        from riordan_gep import gep

        calls = []
        build = gep.matrix_u_inv
        monkeypatch.setattr(gep, "matrix_u_inv", lambda n: calls.append(n) or build(n))
        for which in ("alpha", "v", "u"):
            assert run_cli(capsys, "gep", which, "--a", "exp(x)", "--n", "4")[0] == 0
        assert calls == [4]

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

    def test_abeta_has_one_construction(self, capsys):
        # the other two constructions are the verify row "three constructions agree"
        with pytest.raises(SystemExit) as info:
            main(["abeta", "--n", "4", "--beta", "1/2", "--construction", "conj"])
        assert info.value.code == 2
        assert "unrecognized arguments: --construction conj" in capsys.readouterr().err


class TestLagrange:
    def test_catalan(self, capsys):
        code, out, _ = run_cli(
            capsys, "lagrange", "--a", "1+x", "--beta", "2", "--order", "5", "--format", "csv"
        )
        assert code == 0
        assert out == "1,1,2,5,14,42\n"

    def test_removable_pole_is_computed(self, capsys):
        # phi + beta n = 0 at n = 1 and at n = 2: both are removable
        code, out, _ = run_cli(
            capsys, "lagrange", "--a", "1+x", "--beta=-1", "--order", "5", "--format", "csv"
        )
        assert (code, out) == (0, "1,1,-1,2,-5,14\n")
        code, out, _ = run_cli(
            capsys, "lagrange", "--a", "1+x", "--beta", "1", "--phi=-2", "--order", "5", "--format", "csv"
        )
        assert (code, out) == (0, "1,-2,1,0,0,0\n")


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

    @pytest.mark.parametrize("raw", ["10k", "-1", "4.5", ""])
    def test_bad_cap_is_a_one_line_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("RIORDAN_GEP_MAX_ORDER", raw)
        expected = f"error: RIORDAN_GEP_MAX_ORDER must be a nonnegative integer, got {raw!r}\n"
        for argv in (["series", "eval", "1+x", "--order", "5000"], ["verify", "cli"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert capsys.readouterr() == ("", expected)

    def test_dirichlet_g_is_bounded_by_the_series_order_it_expands(self, capsys, monkeypatch):
        monkeypatch.setenv("RIORDAN_GEP_MAX_ORDER", "10")
        assert run_cli(capsys, "dirichlet", "g", "--p", "2", "--r", "2") == (0, "x+4x^2+x^3\n", "")  # order 10
        code, out, err = run_cli(capsys, "dirichlet", "g", "--p", "3", "--r", "3")  # order 20
        assert (code, out) == (1, "")
        assert err == "error: series order 20 exceeds RIORDAN_GEP_MAX_ORDER=10\n"

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["abeta", "--n", "2", "--beta", "1e999999999"], "--beta", "1e999999999"),
            (["abeta", "--n", "2", "--beta=-2.5E3"], "--beta", "-2.5E3"),
            (["lagrange", "--a", "1+x", "--beta", "1", "--phi", "1e-9999999", "--order", "2"], "--phi", "1e-9999999"),
        ],
    )
    def test_exponent_notation_is_a_usage_error(self, capsys, argv, option, value):
        # Fraction() reads it, and 1e999999999 would be a billion-digit integer
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("error:") == 1
        assert err.endswith(f"error: argument {option}: exponent notation is not accepted: {value!r}\n")

    def test_plain_decimal_rational(self, capsys):
        assert run_cli(capsys, "abeta", "--n", "2", "--beta", "0.5", "--format", "csv") == (0, "3/2,1/2\n-1/2,1/2\n", "")

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

    def test_overlong_literal_is_a_one_line_parse_error(self, capsys):
        # Python's int() refuses more than sys.get_int_max_str_digits() digits
        for text, offset in (("1" * 4400, 0), ("x^(1/" + "1" * 4400 + ")", 5), ("x^" + "2" * 4400, 2)):
            code, out, err = run_cli(capsys, "series", "eval", text, "--order", "2")
            assert code == 1 and out == ""
            assert err == (
                f"error: parse error at offset {offset}: expected an integer of at most "
                f"{sys.get_int_max_str_digits()} digits, found 4400 digits\n"
            )

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riordan_gep", "euler", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "x+11x^2+11x^3+x^4\n"


@pytest.mark.parametrize(
    "exc", [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")]
)
def test_a_stdout_write_error_is_one_line_and_exit_1(exc, monkeypatch, capsys, tmp_path):
    with open(tmp_path / "fd1", "w") as fd1:

        class Stdout(io.StringIO):
            def write(self, text):
                raise exc

            def fileno(self):
                return fd1.fileno()

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["euler", "--n", "4"]) == 1
        # a closed pipe sends what stays buffered to devnull, so shutdown writes nothing
        to_devnull = os.path.samestat(os.fstat(fd1.fileno()), os.stat(os.devnull))
        assert to_devnull == isinstance(exc, BrokenPipeError)
    assert capsys.readouterr().err == f"error: cannot write the output: {exc}\n"


def test_a_full_stdout_device_is_one_line_and_exit_1():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc = _run_fresh("-m", "riordan_gep", "gep", "matrix", "U", "--n", "60", stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"


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


def test_every_pinned_span_is_called(monkeypatch, tmp_path):
    # perfbench/workloads.py names the spans each workload must call; a traced
    # benchmark run that misses one ends "correct: false" with a coverage failure
    import random
    from functools import partial
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import run
        import workloads
    finally:
        for name in ("run", "job", "workloads", "checks"):
            sys.modules.pop(name, None)
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    small = {  # the job sizes of perfbench/tests
        "series-large": partial(workloads.series_jobs, sizes={
            "product": 12, "power": 10, "explog": 10, "rev": 8, "lagrange": 8, "alpha": 6, "tiny": 4}),
        "dirichlet-large": partial(workloads.dirichlet_jobs, sizes={
            "zeta": (60, 4), "zeta-inv": (60, 4), "zeta-log": (60, 3), "roundtrip": 40}),
        "verify-suites": partial(workloads.verify_jobs, max_n=3),
    }
    assert set(small) == set(workloads.WORKLOADS)
    for name, build in small.items():
        result = run.run_pass(build(random.Random(f"{name}:0")), traced=True)
        assert result.failures == []
        calls = run.layer_metrics(result)[1]
        assert [span for span in workloads.WORKLOADS[name].spans if not calls[span]] == [], name


def test_suite_names_are_the_registry_suites():
    from riordan_gep.cli import SUITE_NAMES
    from riordan_gep.verify import REGISTRY

    suites = []
    for suite, _, _ in REGISTRY:
        if suite not in suites:
            suites.append(suite)
    assert SUITE_NAMES == tuple(suites)


# Runs argv (or, for [], only build_parser()) in a fresh interpreter and prints
# [exit code, stdout, loaded modules] as one JSON line.
IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from riordan_gep.cli import build_parser, main
argv, out, code = json.loads(sys.argv[1]), io.StringIO(), 0
if argv:
    with redirect_stdout(out):
        code = main(argv)
else:
    build_parser()
print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""

DOMAIN = ("dirichlet", "gep", "lagrange", "riordan", "stirling", "wmatrix", "verify")
SUITE_MODULES = tuple(f"suites.{suite}" for suite in SUITE_NAMES)
# the domain modules that each verify job's checks never run, so it must not load
VERIFY_ABSENT = {
    "series": ("dirichlet", "gep", "lagrange", "riordan", "stirling", "wmatrix", "expr"),
    "riordan": ("dirichlet", "lagrange", "stirling", "wmatrix", "expr"),
    "stirling": ("dirichlet", "lagrange", "wmatrix", "expr"),
    "gep": ("dirichlet", "lagrange", "wmatrix", "expr"),
    "w": ("dirichlet", "lagrange", "stirling", "expr"),
    "abeta": ("dirichlet", "stirling", "wmatrix", "expr"),
    "dirichlet": ("lagrange", "riordan", "wmatrix", "expr"),
    "cli": ("dirichlet", "lagrange", "riordan", "stirling", "wmatrix"),
}


def _other_suites(suite):
    return tuple(m for m in SUITE_MODULES if m != f"suites.{suite}")


def _run_fresh(*args, stdout=subprocess.PIPE):
    """Run a fresh interpreter with these arguments on this checkout's package."""
    from pathlib import Path

    import riordan_gep

    env = dict(os.environ, PYTHONPATH=str(Path(riordan_gep.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def _loaded_by(argv):
    proc = _run_fresh("-c", IMPORT_PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    code, out, modules = json.loads(proc.stdout)
    return code, out, {m.removeprefix("riordan_gep.") for m in modules}


def test_plain_commands_do_not_import_verify(capsys):
    # each command loads only the modules it runs, and never dataclasses
    # (which pulls in inspect); a fresh interpreter prints what it printed here
    cases = [
        ([], DOMAIN + ("expr",)),
        (["series", "eval", "x/(1-x)"], DOMAIN),
        (["dirichlet", "table", "--preset", "zeta-log", "--rows", "8"],
         ("expr", "verify", "lagrange", "riordan", "wmatrix")),
        (["dirichlet", "g", "--p", "2", "--r", "2"], ("expr", "verify", "riordan")),
        (["euler", "--n", "5"],
         ("expr", "verify", "dirichlet", "lagrange", "riordan", "stirling", "wmatrix")),
        (["gep", "matrix", "U", "--n", "4"],
         ("expr", "verify", "dirichlet", "lagrange", "riordan", "wmatrix")),
        (["gep", "alpha", "--a", "exp(x)", "--n", "4"], ("verify", "dirichlet", "lagrange", "wmatrix")),
        (["riordan", "table", "--f", "exp(x)", "--g", "x", "--kind", "exp", "--rows", "4"],
         ("verify", "dirichlet", "gep", "lagrange", "stirling", "wmatrix")),
        (["abeta", "--n", "4", "--beta", "1/2"], ("expr", "verify", "dirichlet", "riordan", "wmatrix")),
        (["w", "--n", "3", "--m", "2"], ("expr", "verify", "dirichlet", "lagrange")),
        (["lagrange", "--a", "1+x", "--beta", "1/2", "--order", "5"],
         ("verify", "dirichlet", "riordan", "wmatrix")),
        (["w", "--n", "3", "--m", "2", "--check"], ("expr",) + _other_suites("w")),
        # each verify job compiles only the suite it runs and the domain modules it uses
        *((["verify", suite, "--max-n", "3"], _other_suites(suite) + VERIFY_ABSENT[suite]) for suite in SUITE_NAMES),
    ]
    for argv, absent in cases:
        code, out, loaded = _loaded_by(argv)
        assert "dataclasses" not in loaded, argv
        assert loaded.isdisjoint(absent), (argv, sorted(loaded.intersection(absent)))
        if argv:
            assert (code, out) == (main(argv), capsys.readouterr().out), argv


def test_readme_synopsis_parses():
    # every documented invocation, with its [...] groups dropped and included
    import re
    import shlex
    from pathlib import Path

    from riordan_gep.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("riordan-gep ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        for text in (re.sub(r"\s*\[[^]]*\]", "", line), re.sub(r"\[([^]]*)\]", r"\1", line)):
            try:
                parser.parse_args(shlex.split(text)[1:])
            except SystemExit as exc:
                pytest.fail(f"README synopsis {text!r} is a usage error (exit {exc.code})")


def test_output_numbers_have_no_digit_limit():
    from riordan_gep.gep import eulerian_poly

    proc = _run_fresh("-X", "int_max_str_digits=640", "-m", "riordan_gep", "euler", "--n", "400", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == [[str(c) for c in eulerian_poly(400).coeffs]]


def test_rendering_restores_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["euler", "--n", "400"]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(capsys.readouterr().out) > 640


def test_verify_reports_failures_with_nonzero_exit(capsys, monkeypatch):
    import riordan_gep.verify as verify_mod

    def broken(rng, max_n):
        return False

    monkeypatch.setattr(
        verify_mod, "REGISTRY", [("gep", "always fails", broken)], raising=True
    )
    code = main(["verify", "gep"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_verify_reports_why_a_check_crashed(capsys, monkeypatch):
    import riordan_gep.verify as verify_mod

    def crashes(rng, max_n):
        raise ZeroDivisionError("no inverse, sorry")

    def passes(rng, max_n):
        verify_mod._same(1, 1)

    registry = [("gep", "crashes", crashes), ("gep", "passes", passes)]
    monkeypatch.setattr(verify_mod, "REGISTRY", registry, raising=True)
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


def test_w_check_reports_failures_with_nonzero_exit(capsys, monkeypatch):
    import riordan_gep.suites.w as w_suite

    def crashes(W, m):
        raise ZeroDivisionError("no inverse, sorry")

    monkeypatch.setattr(w_suite, "w_routes_agree", crashes)
    code, out, _ = run_cli(capsys, "w", "--n", "3", "--m", "2", "--check")
    assert code == 1
    assert out.splitlines() == [
        "[ok] w: column sums are m^n",
        "[FAIL] w: alternative construction agrees -- ZeroDivisionError: no inverse, sorry",
        "[ok] w: multiplicativity/reversal/eigenvector",
        "3 checks, 1 failed",
    ]
    code, out, _ = run_cli(capsys, "w", "--n", "3", "--m", "2", "--check", "--format", "json")
    assert code == 1
    assert json.loads(out)["entries"][1] == [
        "w", "alternative construction agrees", "FAIL", "ZeroDivisionError: no inverse, sorry"
    ]
    monkeypatch.setattr(w_suite, "w_routes_agree", lambda W, m: False)
    code, out, _ = run_cli(capsys, "w", "--n", "3", "--m", "2", "--check", "--format", "csv")
    assert code == 1
    assert out.splitlines()[1] == "w,alternative construction agrees,FAIL,made no comparison"


# ---------------------------------------------------------------- generated argv

EXPONENTS = ("0", "2", "3", "-1", "-2", "(1/2)", "(-1/3)", "(2/3)")


def _expressions():
    leaves = st.sampled_from(("x", "0", "1", "2", "3", "5", "x", "12"))

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(("exp", "log", "inv", "rev", "sqrt")), sub).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(sub, sub).map(lambda t: f"compose({t[0]},{t[1]})"),
            st.tuples(sub, st.sampled_from(EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
            sub.map(lambda e: f"-{e}"),
        )

    # depth <= 4, plus text that is mostly not in the grammar
    return st.one_of(
        st.recursive(leaves, extend, max_leaves=6).filter(lambda e: e.count("(") <= 8),
        st.text(alphabet="x+-*/^(),0123456789 explogincvrsqtcmp", max_size=16),
    )


def _argv():
    expr = _expressions()
    small = st.integers(1, 6).map(str)
    rational = st.sampled_from(("0", "1", "-1", "1/2", "-5/2", "2/3", "7", "x", "1/0", "0.25", "1e9999", "1E-9"))
    fmt = st.sampled_from(("pretty", "csv", "json"))
    kind = st.sampled_from(("ordinary", "square", "exp"))

    def table(t):
        return ["riordan", "table", f"--f={t[0]}", f"--g={t[1]}", "--kind", t[2], "--rows", t[3], "--cols", t[4]]

    commands = st.one_of(
        st.tuples(expr, st.integers(0, 8)).map(lambda t: ["series", "eval", f"({t[0]})", "--order", str(t[1])]),
        st.tuples(expr, expr, kind, small, small).map(table),
        # a wide window reads its series only to its last row
        st.tuples(expr, expr, kind, st.integers(1, 4).map(str), st.integers(1, 400).map(str)).map(table),
        st.tuples(st.sampled_from(("alpha", "u", "v")), expr, small).map(
            lambda t: ["gep", t[0], f"--a={t[1]}", "--n", t[2]]),
        st.tuples(st.sampled_from(("U", "Uinv", "V", "Vinv", "VU", "UinvVinv")), small).map(
            lambda t: ["gep", "matrix", t[0], "--n", t[1]]),
        small.map(lambda n: ["euler", "--n", n]),
        st.tuples(small, small, st.booleans()).map(lambda t: ["w", "--n", t[0], "--m", t[1]] + ["--check"] * t[2]),
        st.tuples(small, rational).map(lambda t: ["abeta", "--n", t[0], f"--beta={t[1]}"]),
        st.tuples(expr, rational, rational, st.integers(0, 8)).map(
            lambda t: ["lagrange", f"--a={t[0]}", f"--beta={t[1]}", f"--phi={t[2]}", "--order", str(t[3])]),
        st.tuples(st.sampled_from(("zeta", "zeta-inv", "zeta-log")), small, small).map(
            lambda t: ["dirichlet", "table", "--preset", t[0], "--rows", t[1], "--cols", t[2]]),
        st.tuples(small, small).map(lambda t: ["dirichlet", "g", "--p", t[0], "--r", t[1]]),
        st.tuples(st.sampled_from(("series", "riordan", "stirling", "gep", "w", "abeta", "dirichlet", "cli")),
                  st.integers(1, 2), st.integers(-3, 3)).map(
            lambda t: ["verify", t[0], "--max-n", str(t[1]), "--seed", str(t[2])]),
        st.sampled_from((["euler", "--n", "0"], ["euler", "--n", "two"], ["gep"], ["w", "--n", "1"], [])),
    )
    return st.tuples(commands, fmt).map(lambda t: t[0] + ["--format", t[1]] if len(t[0]) > 2 else t[0])


# The slowest of 6 000 generated examples (490 of them windows wider than 6
# columns) took 190 ms; ten times that is below the 5 s floor.  The alarm
# ends an example that never returns, which the deadline alone (checked
# once an example returns) would not.
ARGV_BUDGET_S = 5


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget(f"over the {ARGV_BUDGET_S} s budget")


@settings(max_examples=150, deadline=ARGV_BUDGET_S * 1000, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["riordan", "table", "--f", "exp(x)", "--g", "x*exp(x)", "--kind", "exp", "--rows", "3", "--cols", "1000"])
def test_generated_argv_ends_cleanly(argv):
    # every input ends with exit 0, 1 (one line on stderr) or 2 (usage), never
    # a traceback, within the budget; a _dispatch branch that lost an import
    # fails here with NameError
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.alarm(ARGV_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    if code == 0:
        assert err.getvalue() == "" and out.getvalue(), argv
