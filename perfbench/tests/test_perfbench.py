"""Tests of the benchmark itself: checkers, failure accounting, the import
guard, tracer coverage and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import textwrap
import unittest
from fractions import Fraction
from functools import partial

HERE = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

SMALL = {
    "series-large": partial(workloads.series_jobs, sizes={
        "product": 12, "power": 10, "explog": 10, "rev": 8, "lagrange": 8, "alpha": 6, "tiny": 4}),
    "dirichlet-large": partial(workloads.dirichlet_jobs, sizes={
        "zeta": (60, 4), "zeta-inv": (60, 4), "zeta-log": (60, 3), "roundtrip": 40}),
    "verify-suites": partial(workloads.verify_jobs, max_n=3),
}


def small_jobs(workload, seed=0):
    return SMALL[workload](random.Random(f"{workload}:{seed}"))


def bump(text):
    """Add one to the rational string `text`."""
    return str(Fraction(text) + 1)


def mutations(stdout):
    """Copies of a job's output, each with one coefficient (or status) changed,
    or one verify row dropped."""
    doc = json.loads(stdout)
    if isinstance(doc, list):
        for i in sorted({0, len(doc) // 2, len(doc) - 1}):
            yield json.dumps(doc[:i] + [bump(doc[i])] + doc[i + 1:])
        return
    entries = doc["entries"]
    if doc["kind"] == "VerifyReport":
        for i in sorted({0, len(entries) - 1}):
            changed = json.loads(stdout)
            changed["entries"][i][2] = "FAIL"
            yield json.dumps(changed)
            dropped = json.loads(stdout)
            del dropped["entries"][i]
            yield json.dumps(dropped)
        return
    cells = [(r, c) for r, row in enumerate(entries) for c in range(len(row))]
    for r, c in sorted({cells[0], cells[len(cells) // 2], cells[-1]}):
        changed = json.loads(stdout)
        changed["entries"][r][c] = bump(entries[r][c])
        yield json.dumps(changed)


class CheckerTest(unittest.TestCase):
    """Each checker accepts the program's output and rejects it with one
    coefficient changed."""

    def check_workload(self, workload):
        os.makedirs(run.RESULTS, exist_ok=True)
        for seed in (0, 1):
            for job in small_jobs(workload, seed):
                with self.subTest(workload=workload, seed=seed, job=job.name):
                    result = run.run_job(run.job_command(job), run.job_env())
                    self.assertEqual(result.returncode, 0, result.stderr)
                    self.assertIsNone(job.check(result.stdout))
                    for changed in mutations(result.stdout):
                        self.assertIsNotNone(job.check(changed), changed[:200])

    def test_series_large(self):
        self.check_workload("series-large")

    def test_dirichlet_large(self):
        self.check_workload("dirichlet-large")

    def test_verify_suites(self):
        self.check_workload("verify-suites")

    def test_malformed_output_is_rejected(self):
        self.assertIsNotNone(checks.gep_alpha_exp("not json", 2, 4))
        self.assertIsNotNone(checks.gep_alpha_exp('{"kind": "Matrix", "entries": [["1"]]}', 2, 4))
        self.assertIsNotNone(checks.dirichlet_table('{"kind": "Matrix", "entries": [["1"]]}', "zeta", 2, 2))

    def test_reference_values(self):
        self.assertEqual(checks.eulerian_rows(4)[4], [1, 11, 11, 1])
        self.assertEqual(checks.moebius(10)[1:], [1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
        self.assertEqual(checks.log_zeta(8)[8], Fraction(1, 3))


class FailureAccountingTest(unittest.TestCase):
    def test_timeout_exit_traceback_and_rejection_count_as_failures(self):
        os.makedirs(run.RESULTS, exist_ok=True)
        def job(code):  # a job that reports its peak RSS, as job.py does
            return [sys.executable, "-c", f"import sys, time\n{code}\nsys.stderr.write({run.PEAK_RSS_TAG + '1'!r})"]

        commands = {
            "ok": job("print('fine')"),
            "slow": job("time.sleep(30)"),
            "exit": job("sys.exit(1)"),
            "traceback": job("sys.stderr.write('Traceback (most recent call last):\\n')"),
            "rejected": job("print('wrong')"),
            "differs": job("print('other')"),
            "no-rss": [sys.executable, "-c", "print('fine')"],
        }
        accept = lambda stdout: None  # noqa: E731
        jobs = [
            Job("ok", (), accept),
            Job("slow", (), accept),
            Job("exit", (), accept),
            Job("traceback", (), accept),
            Job("rejected", (), lambda stdout: None if stdout == "fine\n" else "bad output"),
            Job("differs", (), accept, same_as="ok"),
            Job("no-rss", (), accept),
        ]
        result = run.run_pass(jobs, command=lambda job: commands[job.name], timeout=1.0)
        failed = dict(result.failures)
        self.assertEqual(set(failed), {"slow", "exit", "traceback", "rejected", "differs", "no-rss"})
        self.assertEqual(failed["slow"], "timeout")
        self.assertTrue(failed["exit"].startswith("exit code 1"))
        self.assertEqual(failed["no-rss"], "no peak RSS reported")
        self.assertLess(result.runs[1].latency_s, 10)
        self.assertEqual(len(result.failures) / len(result.runs), 6 / 7)

    def test_peak_rss_is_the_one_the_job_reports(self):
        os.makedirs(run.RESULTS, exist_ok=True)
        tagged = [sys.executable, "-c", f"import sys; sys.stderr.write({run.PEAK_RSS_TAG + '1234'!r})"]
        self.assertEqual(run.run_job(tagged, run.job_env()).peak_rss_kib, 1234)
        job = small_jobs("series-large")[-1]
        result = run.run_job(run.job_command(job), run.job_env())
        self.assertIn(run.PEAK_RSS_TAG, result.stderr)
        self.assertGreater(result.peak_rss_kib, 0)

    def test_tail_is_the_slowest_jobs_median(self):
        jobs = [Job("a", (), None), Job("b", (), None)]
        passes = [run.Pass(0.0, [run.JobRun(a, 0, False, "", "", 1), run.JobRun(b, 0, False, "", "", 1)], [], [])
                  for a, b in ((1.0, 0.5), (1.0, 3.0), (1.0, 2.0))]
        self.assertEqual(run.slowest_job(passes, jobs), (2.0, "b"))


class GuardTest(unittest.TestCase):
    def test_job_refuses_a_foreign_riordan_gep(self):
        fake = os.path.join(run.RESULTS, "fake-site")
        os.makedirs(os.path.join(fake, "riordan_gep"), exist_ok=True)
        try:
            with open(os.path.join(fake, "riordan_gep", "__init__.py"), "w") as fh:
                fh.write("")
            env = run.job_env()
            env["PYTHONPATH"] = fake
            result = run.run_job([sys.executable, run.JOB, "cli", "euler", "--n", "3"], env)
            self.assertEqual(result.returncode, 3)
            self.assertIn("imported from", result.stderr)
        finally:
            shutil.rmtree(fake)

    def test_checkout_without_sources_fails_without_a_result(self):
        bare = os.path.join(run.RESULTS, "bare-checkout")
        os.makedirs(bare, exist_ok=True)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "series-large", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare)


class TracerTest(unittest.TestCase):
    def run_snippet(self, code):
        env = run.job_env()
        env["PYTHONPATH"] = run.SRC + os.pathsep + HERE
        out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout

    def test_every_alias_is_rebound(self):
        self.run_snippet("""
            from tracer import Tracer
            t = Tracer()
            t.install()
            from riordan_gep import expr, gep, lagrange, riordan, series, verify, wmatrix, dirichlet, matrix
            import riordan_gep
            wrapped = lambda f: hasattr(f, "__wrapped__")
            assert series.compose is riordan.compose is lagrange.compose is expr.compose is riordan_gep.compose
            assert wrapped(series.compose)
            assert gep.matrix_u is wmatrix.matrix_u is lagrange.matrix_u is dirichlet.matrix_u
            assert wrapped(gep.matrix_u)
            assert series.Series.__rmul__ is series.Series.__mul__ and wrapped(series.Series.__mul__)
            assert matrix.RMatrix.__rmul__ is matrix.RMatrix.__mul__ and wrapped(matrix.RMatrix.__mul__)
            assert all(wrapped(fn) for _, _, fn in verify.REGISTRY)
            assert t.missed_aliases() == []
            x = series.Series([0, 1], order=4)
            3 * x
            x * x
            names = {t.names[s[0]] for s in t.spans}
            assert names == {"series.mul"}, names
            # the result is measured after the span ends
            assert all(s[4] > 0 and s[2] >= s[1] for s in t.spans)
            assert t.counts["series.mul.pairs"] == 15
        """)

    def test_missing_target_is_an_error(self):
        out = self.run_snippet("""
            import tracer
            tracer.TARGETS["series.gone"] = ("series", "no_such_function")
            try:
                tracer.Tracer().install()
            except tracer.CoverageError as exc:
                print("refused:", exc)
        """)
        self.assertIn("refused: series.gone", out)

    def test_traced_counts_repeat_exactly(self):
        os.makedirs(run.RESULTS, exist_ok=True)
        jobs = small_jobs("series-large")
        first, second = (run.layer_metrics(run.run_pass(jobs, traced=True))[0] for _ in range(2))
        self.assertEqual(run.count_differences(first, second), [])
        self.assertGreater(first["series.mul.calls"], 0)
        self.assertGreater(first["series.mul.pairs"], 0)
        self.assertEqual(first["dirichlet.mul.calls"], 0)
        self.assertGreater(first["process.start_s"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_metrics_and_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
                         list(run.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_span_metric_is_exercised_by_some_workload(self):
        declared = {span for w in workloads.WORKLOADS.values() for span in w.spans}
        for name, _, _ in run.PER_LAYER:
            span = run.span_of(name)
            if span:
                self.assertIn(span, declared, name)
                if not span.startswith("verify."):
                    self.assertIn(span, tracer.TARGETS, name)


if __name__ == "__main__":
    unittest.main()
