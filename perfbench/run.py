"""Benchmark runner: runs riordan-gep CLI jobs end to end and checks every output.

    python3 perfbench/run.py --workload series-large --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Load is a closed loop with one client: the runner starts one job process,
waits for it to exit, and only then starts the next.  Each job is a fresh
interpreter with PYTHONPATH=src, so it pays interpreter start, imports and
cold caches as a CLI user does.  A pass runs the workload's fixed job list
once; passes repeat until the next one would end after --seconds (and at
least MIN_PASSES times).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, in which perfbench/tracer.py wraps the library's
public functions, and reports the per-layer metrics and the tracing
overhead (traced minus untraced wall_s).  The last line of standard output
is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A results file with the raw samples, the git commit, the Python version and
the CPU count is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
JOB = os.path.join(HERE, "job.py")

sys.path.insert(0, HERE)
from job import PEAK_RSS_TAG  # noqa: E402
from workloads import SUITES, WORKLOADS, jobs_for  # noqa: E402

JOB_TIMEOUT_S = 60.0
SETUP_PER_PASS = 2  # setup_s samples taken before each pass, so they span the run
MIN_PASSES = 5  # so that wall_s is a median over at least five passes

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (name, unit, better); ".calls", ".self_s" and ".hit_ratio" come from spans and
# cache_info(), the other names from the tracer's counters.
PER_LAYER = (
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.pairs", "count", "lower"),
    ("series.mul.max_bits", "bit", "lower"),
    *((f"series.{op}.self_s", "s", "lower") for op in ("reciprocal", "log", "exp", "power", "compose", "reversion")),
    ("series.poly_mul.calls", "count", "lower"),
    ("series.poly_mul.self_s", "s", "lower"),
    ("matrix.mul.calls", "count", "lower"),
    ("matrix.mul.self_s", "s", "lower"),
    ("matrix.mul.entry_products", "count", "lower"),
    ("matrix.mul.max_bits", "bit", "lower"),
    ("matrix.apply.self_s", "s", "lower"),
    ("riordan.window.self_s", "s", "lower"),
    ("riordan.row_of_pair.calls", "count", "lower"),
    ("riordan.row_of_pair.self_s", "s", "lower"),
    ("riordan.riordan_mul.self_s", "s", "lower"),
    ("riordan.decimate.self_s", "s", "lower"),
    ("gep.GepContext.self_s", "s", "lower"),
    ("gep.eulerian_poly.self_s", "s", "lower"),
    ("gep.eulerian_poly.hit_ratio", "ratio", "higher"),
    ("gep.matrix_u.self_s", "s", "lower"),
    ("gep.matrix_u.hit_ratio", "ratio", "higher"),
    ("gep.matrix_u_inv.self_s", "s", "lower"),
    ("gep.stirling_products.self_s", "s", "lower"),
    ("wmatrix.w_matrix.calls", "count", "lower"),
    ("wmatrix.w_matrix.self_s", "s", "lower"),
    ("wmatrix.w_alt_form.self_s", "s", "lower"),
    ("lagrange.lagrange_coeffs.self_s", "s", "lower"),
    ("lagrange.lagrange_series.self_s", "s", "lower"),
    ("lagrange.abeta_matrix.self_s", "s", "lower"),
    ("lagrange.log_abeta.self_s", "s", "lower"),
    ("dirichlet.mul.calls", "count", "lower"),
    ("dirichlet.mul.self_s", "s", "lower"),
    *((f"dirichlet.{op}.self_s", "s", "lower") for op in ("inv", "log", "exp")),
    ("dirichlet.array_window.self_s", "s", "lower"),
    ("dirichlet.carlitz_hoggatt.self_s", "s", "lower"),
    ("stirling.mult_decompositions.calls", "count", "lower"),
    ("stirling.mult_decompositions.items", "count", "lower"),
    ("stirling.mult_decompositions.self_s", "s", "lower"),
    ("stirling.bell_partial_mult.self_s", "s", "lower"),
    ("expr.parse.self_s", "s", "lower"),
    ("expr.eval.self_s", "s", "lower"),
    ("output.render.self_s", "s", "lower"),
    ("output.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.start_s", "s", "lower"),
    *((f"verify.{suite}.self_s", "s", "lower") for suite in SUITES),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def span_of(metric: str):
    """The span a per-layer metric is read from, or None for counters."""
    for suffix in (".calls", ".self_s", ".hit_ratio"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return None


def is_count(metric: str) -> bool:
    """Counts repeat exactly on every traced pass at one seed."""
    return not metric.endswith("_s")


# ------------------------------------------------------------ running jobs


@dataclass
class JobRun:
    latency_s: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    peak_rss_kib: int | None  # as the job reports it (see job.py), None if it did not


def job_env(extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PERFBENCH_TRACE", None)
    env.update(extra or {})
    return env


def run_job(cmd, env, timeout=JOB_TIMEOUT_S) -> JobRun:
    """Run one process to completion; latency is spawn to exit.  On a
    timeout subprocess.run kills the process and reaps it."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=timeout)
        returncode, stdout, stderr, timed_out = proc.returncode, proc.stdout, proc.stderr, False
    except subprocess.TimeoutExpired as exc:
        returncode, stdout, stderr, timed_out = None, exc.stdout, exc.stderr, True
    latency = time.perf_counter() - start
    stdout = (stdout or b"").decode(errors="replace")
    stderr = (stderr or b"").decode(errors="replace")
    peak = None
    for line in stderr.splitlines():
        if line.startswith(PEAK_RSS_TAG):
            peak = int(line[len(PEAK_RSS_TAG):])
    return JobRun(latency, returncode, timed_out, stdout, stderr, peak)


def job_command(job):
    return [sys.executable, JOB, *job.args]


def failure_of(run: JobRun, job, outputs) -> str | None:
    """Why a finished job counts as failed, or None."""
    if run.timed_out:
        return "timeout"
    if run.returncode != 0:
        return f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"
    if "Traceback (most recent call last)" in run.stderr:
        return "traceback on stderr"
    if run.peak_rss_kib is None:
        return "no peak RSS reported"
    reason = job.check(run.stdout)
    if reason is None and job.same_as is not None and outputs.get(job.same_as) != run.stdout:
        reason = f"output differs from {job.same_as}"
    return None if reason is None else f"check: {reason}"


@dataclass
class Pass:
    wall_s: float
    runs: list  # JobRun per job
    failures: list  # (job name, reason)
    traces: list  # per job: span file contents or None


def run_pass(jobs, traced=False, command=job_command, timeout=JOB_TIMEOUT_S) -> Pass:
    """Run every job once, one at a time; outputs are checked after the pass."""
    runs, traces = [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        extra = {}
        if traced:
            extra = {"PERFBENCH_TRACE": os.path.join(RESULTS, f"trace-{os.getpid()}-{i}.json"),
                     "PERFBENCH_JOB": job.name}
        runs.append(run_job(command(job), job_env(extra), timeout))
        if traced:
            path = extra["PERFBENCH_TRACE"]
            try:
                with open(path) as fh:
                    traces.append(json.load(fh))
                os.unlink(path)
            except (OSError, ValueError):
                traces.append(None)
    wall = time.perf_counter() - start
    outputs = {job.name: run.stdout for job, run in zip(jobs, runs)}
    failures = []
    for job, run in zip(jobs, runs):
        reason = failure_of(run, job, outputs)
        if reason:
            failures.append((job.name, reason))
    return Pass(wall, runs, failures, traces)


def measure_setup(samples):
    """Latencies of `samples` spawns of a fresh interpreter up to
    build_parser() returning, and the failures among them."""
    times, failures = [], []
    for _ in range(samples):
        run = run_job([sys.executable, JOB, "setup"], job_env())
        if run.returncode != 0 or run.timed_out:
            failures.append(("setup", f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"))
        else:
            times.append(run.latency_s)
    return times, failures


# ------------------------------------------------------------ metrics


def slowest_job(passes, jobs):
    """(median latency, name) of the job whose median latency over passes is
    the highest.  A pooled latency percentile is not used: with a fixed job
    list its rank falls between different jobs as the pass count changes."""
    medians = [statistics.median(p.runs[i].latency_s for p in passes) for i in range(len(jobs))]
    i = max(range(len(jobs)), key=medians.__getitem__)
    return medians[i], jobs[i].name


def end_to_end(passes, setup_times, jobs):
    """The END_TO_END metrics, and job_p50_s and job_tail_s with details.

    The job latencies are printed and kept in the results file but are not
    in the JSON line, so no bound applies to them: over ten runs their spread
    reached about the largest bound BENCHMARK.json allows (see README.md)."""
    tail_value, tail_job = slowest_job(passes, jobs)
    return {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,  # failed run
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mib": max(run.peak_rss_kib or 0 for p in passes for run in p.runs) / 1024,
    }, {
        "job_p50_s": statistics.median(run.latency_s for p in passes for run in p.runs),
        "job_tail_s": tail_value,
        "job_tail_job": tail_job,
        "job_tail_samples": len(passes),
    }


def layer_metrics(one_pass: Pass):
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    calls, self_s, counts, cache = Counter(), Counter(), Counter(), {}
    start_s = 0.0
    for run, trace in zip(one_pass.runs, one_pass.traces):
        if trace is None:
            continue
        names, spans = trace["names"], trace["spans"]
        # a child's measuring time (tracer.py) is taken out of its parent's self time
        child = [0.0] * len(spans)
        for _, begin, end, parent, measuring in spans:
            if parent >= 0:
                child[parent] += end - begin + measuring
        root = 0.0
        for i, (name_index, begin, end, parent, measuring) in enumerate(spans):
            name = names[name_index]
            calls[name] += 1
            self_s[name] += (end - begin) - child[i]
            if parent < 0:
                root += end - begin + measuring
        start_s += run.latency_s - root
        for key, value in trace["counts"].items():
            counts[key] = max(counts[key], value) if key.endswith(".max_bits") else counts[key] + value
        for name, (hits, misses) in trace["cache"].items():
            h, m = cache.get(name, (0, 0))
            cache[name] = (h + hits, m + misses)
    out = {}
    for metric, _, _ in PER_LAYER:
        span = span_of(metric)
        if metric == "process.start_s":
            out[metric] = start_s
        elif metric == "trace.overhead_s":
            continue
        elif metric.endswith(".calls"):
            out[metric] = calls[span]
        elif metric.endswith(".self_s"):
            out[metric] = self_s[span]
        elif metric.endswith(".hit_ratio"):
            hits, misses = cache.get(span, (0, 0))
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        else:
            out[metric] = counts[metric]
    return out, calls, self_s


def count_differences(first, second):
    return [f"{k}: {first[k]} != {second[k]}" for k in first if is_count(k) and first[k] != second[k]]


def module_shares(self_s):
    """Share of traced self time by module, from every span of a pass."""
    by_module = Counter()
    for span, seconds in self_s.items():
        by_module[span.split(".")[0]] += seconds
    total = sum(by_module.values())
    return {m: v / total for m, v in by_module.most_common()} if total else {}


# ------------------------------------------------------------ one workload


def provenance():
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": None,
    }
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "riordan_gep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    info["src_sha256"] = digest.hexdigest()
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == ROOT:
            info["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def measure_plain(jobs, workload, seconds, start):
    failures = measure_setup(1)[1]  # compiles the bytecode caches; not timed
    setup_times, passes = [], []
    while True:
        times, errs = measure_setup(SETUP_PER_PASS)
        setup_times += times
        failures += errs
        passes.append(run_pass(jobs))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            break
    metrics, extra = end_to_end(passes, setup_times, jobs)
    extra["setup_samples_s"] = setup_times
    return metrics, extra, passes, failures


def measure_traced(jobs, workload, seconds, start):
    failures = measure_setup(1)[1]  # compiles the bytecode caches
    # untraced and traced passes alternate, so slow spells of a shared
    # machine fall on both sides of trace.overhead_s
    plain, traced = [], []
    while True:
        side = plain if len(plain) <= len(traced) else traced
        side.append(run_pass(jobs, traced=side is traced))
        if min(len(plain), len(traced)) >= 2:
            side = plain if len(plain) <= len(traced) else traced
            if time.perf_counter() - start + statistics.median(p.wall_s for p in side) > seconds:
                break
    layers = [layer_metrics(p) for p in traced]
    first, calls, self_s = layers[0]
    metrics = {m: statistics.median(l[0][m] for l in layers) if not is_count(m) else v for m, v in first.items()}
    untraced_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - untraced_wall
    for other, _, _ in layers[1:]:
        failures += [("determinism", f"count differs between traced passes: {d}")
                     for d in count_differences(first, other)]
    failures += [("coverage", f"span {span} has no calls on {workload}")
                 for span in WORKLOADS[workload].spans if not calls[span]]
    extra = {"untraced_wall_s": untraced_wall, "module_shares": module_shares(self_s), "span_calls": dict(calls)}
    return metrics, extra, plain + traced, failures


def run_workload(name, seed, seconds, trace):
    """Measure one workload and write its results file; returns (summary, failures)."""
    jobs = jobs_for(name, seed)
    measure = measure_traced if trace else measure_plain
    metrics, summary, passes, failures = measure(jobs, name, seconds, time.perf_counter())
    for p in passes:
        failures += p.failures
    summary.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        jobs=[list(j.args) for j in jobs],
        metrics=metrics,
        pass_wall_s=[p.wall_s for p in passes],
        job_latency_s=[[r.latency_s for r in p.runs] for p in passes],
        attempted=sum(len(p.runs) for p in passes),
        failed=sum(len(p.failures) for p in passes),
        failures=failures,
        provenance=provenance(),
    )
    summary["failed_ratio"] = summary["failed"] / summary["attempted"]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary, failures


def print_summary(summary):
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']}, {len(summary['pass_wall_s'])} passes, "
          f"{summary['attempted']} jobs)")
    for metric, value in summary["metrics"].items():
        print(f"  {metric:40s} {value:14.6g} {UNITS[metric]}")
    if not summary["trace"]:
        print(f"  {'job_p50_s':40s} {summary['job_p50_s']:14.6g} s")
        print(f"  {'job_tail_s':40s} {summary['job_tail_s']:14.6g} s  "
              f"(median of {summary['job_tail_samples']} runs of {summary['job_tail_job']})")
    print(f"  {'failed_ratio':40s} {summary['failed_ratio']:14.6g} ratio")
    if summary["trace"]:
        print(f"  {'untraced wall_s':40s} {summary['untraced_wall_s']:14.6g} s")
        shares = ", ".join(f"{m} {s:.0%}" for m, s in summary["module_shares"].items())
        print(f"  self-time share: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riordan_gep", "cli.py")):
        print(f"perfbench: no riordan_gep sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, failures = {}, 0, 0, []
    span_calls = Counter()
    for name in names:
        summary, errs = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(summary)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": UNITS[k]} for k, v in summary["metrics"].items()})
        attempted += summary["attempted"]
        failed += summary["failed"]
        failures += errs
        span_calls.update(summary.get("span_calls", {}))
    if args.trace and len(names) > 1:
        for metric, _, _ in PER_LAYER:
            span = span_of(metric)
            if span and not span_calls[span]:
                failures.append(("coverage", f"{metric}: span {span} has no calls on any workload"))
    for job, reason in failures:
        print(f"FAILED {job}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
