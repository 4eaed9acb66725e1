"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py cli <riordan-gep arguments>
    python3 perfbench/job.py dirichlet-roundtrip <seed> <N>
    python3 perfbench/job.py setup

perfbench/run.py starts this with PYTHONPATH set to the checkout's src/.  The
job refuses to run (exit 3) when riordan_gep was imported from anywhere
else, so a run never measures an installed or foreign copy.  When
PERFBENCH_TRACE names a file, the tracer wraps the library first and the
spans are written to that file at exit.  Every job except `setup` ends by
printing its peak resident set size (VmHWM) to stderr.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
EXPECTED = os.path.join(ROOT, "src", "riordan_gep")
WRONG_ORIGIN = 3
PEAK_RSS_TAG = "perfbench: peak_rss_kib "


def _origin_ok() -> bool:
    import riordan_gep

    origin = os.path.dirname(os.path.realpath(riordan_gep.__file__))
    if origin != EXPECTED:
        print(f"perfbench: riordan_gep imported from {origin}, expected {EXPECTED}", file=sys.stderr)
        return False
    return True


def _report_peak_rss():
    """Print this process's own peak RSS.  The runner cannot use os.wait4's
    ru_maxrss: Linux counts in it the memory the child shared with the
    runner before exec, so it never reads below the runner's own size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print(PEAK_RSS_TAG + line.split()[1], file=sys.stderr)


def _roundtrip(seed: int, n: int) -> int:
    from riordan_gep import dirichlet

    from workloads import roundtrip_series

    a = dirichlet.DirichletSeries(roundtrip_series(seed, n))
    out = dirichlet.dirichlet_exp(dirichlet.dirichlet_log(a))
    print(json.dumps([str(c) for c in out.coeffs]))
    return 0


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if not _origin_ok():
        return WRONG_ORIGIN
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        from riordan_gep.cli import build_parser

        build_parser()
        os._exit(0)  # the time measured ends here, before interpreter teardown
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            from riordan_gep import cli

            return cli.main(args)
        if mode == "dirichlet-roundtrip":
            return _roundtrip(int(args[0]), int(args[1]))
        print(f"perfbench: unknown job mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(trace_path, os.environ.get("PERFBENCH_JOB", ""))
        _report_peak_rss()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
