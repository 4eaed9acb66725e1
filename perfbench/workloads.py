"""The benchmark's workloads: fixed job lists whose coefficients come from a seed.

A job is one riordan-gep CLI invocation (or the one-call Dirichlet round
trip in job.py) plus the checker that judges its output.  Sizes are fixed
per workload; the seed picks only signs, coefficients, beta, (p, r) and the verify seed, so
the cost of a pass hardly depends on the seed.  Each workload exists to
load some layers and leave others idle, see README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import checks


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple  # arguments of job.py
    check: object  # stdout -> None or a reason
    same_as: str | None = None  # the output must equal this job's output


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # rng -> list of Job
    spans: tuple = ()  # spans the workload must exercise


def cli_job(name, argv, check, same_as=None):
    return Job(name, ("cli",) + tuple(argv) + ("--format", "json"), check, same_as)


def poly_text(coeffs) -> str:
    """Expression text of a polynomial with rational coefficients."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        power = "" if k == 0 else "*x" if k == 1 else f"*x^{k}"
        parts.append(("-" if c < 0 else "+") + num + power)
    return "".join(parts).lstrip("+")


def _signed(rng, magnitudes):
    return [rng.choice((-1, 1)) * Fraction(m) for m in magnitudes]


# The largest root magnitude and the denominators fix the coefficient growth
# of 1/P, log P and P^phi, so only signs are seeded.
P_ROOTS = ("5/2", "4/3", "2", "3/4")
Q_ROOTS = ("7/3", "3/2", "1/2")


# ------------------------------------------------------------ series-large

SERIES_SIZES = {"product": 256, "power": 192, "explog": 256, "rev": 40, "lagrange": 48, "alpha": 40, "tiny": 8}


def series_jobs(rng, sizes=SERIES_SIZES):
    p = checks.linear_factors(_signed(rng, P_ROOTS))
    q = checks.linear_factors(_signed(rng, Q_ROOTS))
    pt, qt = poly_text(p), poly_text(q)
    phi = Fraction(rng.choice((-2, -1, 1, 2, 4, 5)), 3)
    c = rng.choice((-3, 3))
    beta = Fraction(rng.choice((3, 5)), 2)
    alpha_c = rng.choice((-2, 2))
    n = sizes
    return [
        cli_job("inv-product", ["series", "eval", f"inv({pt})*inv({qt})", "--order", str(n["product"])],
                partial(checks.inverse_product, p=p, q=q, order=n["product"])),
        cli_job("fractional-power", ["series", "eval", f"({pt})^({phi.numerator}/{phi.denominator})",
                                     "--order", str(n["power"])],
                partial(checks.fractional_power, p=p, phi=phi, order=n["power"])),
        cli_job("exp-log", ["series", "eval", f"exp(log({pt}))", "--order", str(n["explog"])],
                partial(checks.equals_poly, poly=p, order=n["explog"])),
        cli_job("rev-rev", ["series", "eval", f"rev(rev(x*({pt})))", "--order", str(n["rev"])],
                partial(checks.equals_poly, poly=p, order=n["rev"], shift=1)),
        cli_job("lagrange", ["lagrange", "--a", f"1+{c}*x".replace("+-", "-"),
                             f"--beta={beta}", "--order", str(n["lagrange"])],
                partial(checks.lagrange_linear, c=c, beta=beta, order=n["lagrange"])),
        cli_job("gep-alpha", ["gep", "alpha", "--a", f"exp({alpha_c}*x)", "--n", str(n["alpha"])],
                partial(checks.gep_alpha_exp, c=alpha_c, n=n["alpha"])),
        cli_job("tiny", ["series", "eval", f"inv({qt})", "--order", str(n["tiny"])],
                partial(checks.inverse_product, p=q, q=[Fraction(1)], order=n["tiny"])),
    ]


# ------------------------------------------------------------ dirichlet-large

DIRICHLET_SIZES = {"zeta": (3000, 6), "zeta-inv": (3000, 6), "zeta-log": (2000, 4), "roundtrip": 1000}
CH_PAIRS = ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2))


def roundtrip_series(seed: int, n: int):
    """The rational Dirichlet series a_1..a_n (a_1 = 1) of the round-trip job."""
    rng = random.Random(f"dirichlet-roundtrip:{seed}")
    return [Fraction(1)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]


def dirichlet_jobs(rng, sizes=DIRICHLET_SIZES):
    jobs = []
    for preset in ("zeta", "zeta-inv", "zeta-log"):
        rows, cols = sizes[preset]
        jobs.append(cli_job(f"table-{preset}",
                            ["dirichlet", "table", "--preset", preset, "--rows", str(rows), "--cols", str(cols)],
                            partial(checks.dirichlet_table, preset=preset, rows=rows, cols=cols)))
    for p, r in rng.sample(CH_PAIRS, 3):
        jobs.append(cli_job(f"g-p{p}-r{r}", ["dirichlet", "g", "--p", str(p), "--r", str(r)],
                            partial(checks.carlitz_hoggatt, p=p, r=r)))
    seed, n = rng.randrange(2**31), sizes["roundtrip"]
    jobs.append(Job("roundtrip", ("dirichlet-roundtrip", str(seed), str(n)),
                    partial(checks.same_series, coeffs=roundtrip_series(seed, n))))
    return jobs


# ------------------------------------------------------------ verify-suites

VERIFY_MAX_N = 5
# The checks each suite runs, in report order.  A report with other rows does
# other work than the one measured, so it is rejected.
VERIFY_CHECKS = {
    "series": ("ring axioms (assoc/dist/comm)", "log and exp are mutually inverse",
               "power is additive in the exponent", "composition is associative",
               "compositional inverse round trips"),
    "riordan": ("fundamental theorem on windows", "pascal powers form a group", "(1,a-1)(1,1/(1+x)) = (1,a^-1)",
                "shift array is pascal transpose", "row numerators are polynomial"),
    "stirling": ("first/second kind orthogonality", "v rows are Bell sums", "log coefficients from Bell sums",
                 "u rows from Bell sums of log"),
    "gep": ("U u~ = alpha~ and V alpha~ = v~", "U U^-1 = I", "sign conjugation reversal (thm 1)",
            "alpha(1) = a_1^n (thm 2)", "reciprocal-series reversal", "Eulerian specialization at e^x",
            "Stirling factorizations of VU/U^-1V^-1", "V acts as x -> x/(1+x)"),
    "w": ("column sums are m^n (thm 5)", "three constructions agree (thm 4)",
          "multiplicativity, reversal, eigenvector", "maps alpha~ of a to alpha~ of a^m"),
    "abeta": ("three constructions agree", "group law in beta", "column sums 1, inverse, restriction",
              "maps alpha~ of a to deformed alpha~", "functional equations of the deformation",
              "deformed u polynomial identity", "closed binomial form = last column", "beta <-> 1-beta duality",
              "diagonal tables match direct reading"),
    "dirichlet": ("window identities of <a-1>", "zeta u rows are rising factorials", "alpha v-route equals u-route",
                  "Carlitz-Hoggatt values and palindromy"),
    "cli": ("expression parser round trip", "JSON documents round trip"),
}
SUITES = tuple(VERIFY_CHECKS)


def verify_jobs(rng, max_n=VERIFY_MAX_N):
    seed = rng.randrange(10**6)
    return [
        cli_job(f"verify-{suite}", ["verify", suite, "--seed", str(seed), "--max-n", str(max_n)],
                partial(checks.verify_report, suite=suite, labels=VERIFY_CHECKS[suite]))
        for suite in SUITES
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series-large", series_jobs, (
            "series.mul", "series.reciprocal", "series.log", "series.exp", "series.power",
            "series.reversion", "series.poly_mul", "lagrange.lagrange_coeffs",
            "gep.GepContext", "expr.parse", "expr.eval", "output.render", "cli.main")),
        Workload("dirichlet-large", dirichlet_jobs, (
            "dirichlet.mul", "dirichlet.inv", "dirichlet.log", "dirichlet.exp",
            "dirichlet.array_window", "dirichlet.carlitz_hoggatt",
            "stirling.mult_decompositions", "output.render", "cli.main")),
        Workload("verify-suites", verify_jobs, (
            "series.mul", "series.compose", "matrix.mul", "matrix.apply", "riordan.window", "riordan.riordan_mul",
            "riordan.row_of_pair", "riordan.decimate", "gep.GepContext", "gep.eulerian_poly", "gep.matrix_u",
            "gep.matrix_u_inv", "gep.stirling_products", "wmatrix.w_matrix", "wmatrix.w_alt_form",
            "lagrange.lagrange_series", "lagrange.abeta_matrix", "lagrange.log_abeta",
            "stirling.bell_partial_mult", "output.render", "cli.main",
            *(f"verify.{suite}" for suite in SUITES))),
    )
}


def jobs_for(workload: str, seed: int):
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
