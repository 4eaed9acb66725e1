"""Mutation ledger: which tier-1 tests kill each of a fixed list of faults in src/.

    python3 tools/mutants.py

A mutant is (name, path under src/, old text, new text, note); its old text
occurs exactly once.  For each mutant the tool copies every file that
`git ls-files` lists into a temporary directory, applies the mutant, runs
tier-1 there once and prints the tests that failed: the mutant's killers.
The runs leave out tests/test_mutants.py, which checks this list and so fails
in every mutated copy; like every tier-1 run they skip Hypothesis's shrinking
(tests/conftest.py).  A note that starts with "equivalent" marks a mutant that
only moves time or memory.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per run; tier-1 takes about 40
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "-rfE", "--tb=no", "--ignore=tests/test_mutants.py"]

MUTANTS = [
    ("product-slot-width", "riordan_gep/series.py", "+ min(len(a), len(b)).bit_length() + 8) // 8", "+ 8) // 8",
     "Kronecker slots leave no room for the carries of long sums"),
    ("newton-overstep", "riordan_gep/series.py", "m = min(2 * m + 1, n)", "m = min(2 * m + 2, n)",
     "each Newton step claims one coefficient too many"),
    ("sparse-threshold", "riordan_gep/series.py", "_SPARSE_TERMS = 8", "_SPARSE_TERMS = 3",
     "equivalent: the recurrence and Newton give the same series"),
    ("power-b0", "riordan_gep/series.py", "a0**phi.numerator, phi + 1, 1, a0)", "a0, phi + 1, 1, a0)",
     "b_0 = a_0 instead of a_0^phi"),
    ("compose-drops-constant", "riordan_gep/series.py", "for k in range(n - 1, -1, -1):",
     "for k in range(n - 1, 0, -1):", "Horner skips a_0"),
    ("reversion-scale", "riordan_gep/series.py", "h.append(-s / g1**m)", "h.append(-s / g1 ** (m - 1))",
     "wrong only when g'(0) != 1"),
    ("matrix-transpose", "riordan_gep/matrix.py", "return RMatrix(zip(*self.entries))", "return RMatrix(self.entries)",
     "transpose returns the matrix itself"),
    ("matrix-apply-denominator", "riordan_gep/matrix.py", "vnum, e = over_lcm(vec)",
     "vnum, e = over_lcm(vec)\n        e = 1 if e == 2 else e", "apply drops a vector denominator of 2"),
    ("columns-unit-f", "riordan_gep/riordan.py", "elif k == 1 and f.coeffs[0] == 1 and not any(f.coeffs[1:]):",
     "elif k == 1 and f.coeffs[0] == 1:", "column 1 taken as g whenever f(0) = 1"),
    ("entry-exp-scale", "riordan_gep/riordan.py", "c = c * Fraction(factorial(n), factorial(k))",
     "c = c * Fraction(factorial(n), factorial(k + 1))", "exponential entries scaled by n!/(k+1)!"),
    ("exp-conjugate-kind", "riordan_gep/riordan.py", "exp_conjugate(M) if A.kind is RiordanKind.EXPONENTIAL else M",
     "M", "exponential windows read as ordinary"),
    ("riordan-mul-f", "riordan_gep/riordan.py", "f = A.f * compose(B.f, A.g)", "f = compose(B.f, A.g)",
     "the product array drops the left factor's f"),
    ("matrix-u-large-n", "riordan_gep/gep.py", "    fn = factorial(n)\n    cols = []",
     "    fn = factorial(n) + (n > 12)\n    cols = []", "U_n wrong only from n = 13 on"),
    ("matrix-v-large-n", "riordan_gep/gep.py", "binomial_poly(n - p - 1, sign)",
     "binomial_poly(n - p - 1 + (sign > 0 and n > 6), sign)", "V_n wrong only from n = 7 on"),
    ("shifted-scale", "riordan_gep/gep.py", "q ** (n - 1 - i) for i", "q ** max(n - 2 - i, 0) for i",
     "E^s U_n^-1 wrong only for a fractional shift s"),
    ("stirling-products-scale", "riordan_gep/gep.py", "scale = Fraction(fn, factorial(p + 1))",
     "scale = Fraction(fn, factorial(p + 1) if p < 5 else factorial(p))", "U^-1 V^-1 wrong only from column 6 on"),
    ("context-u-cache", "riordan_gep/gep.py", "@cached_property\n    def u(self)", "@property\n    def u(self)",
     "equivalent: u is rebuilt on every read"),
    ("matrix-u-uncached", "riordan_gep/gep.py", "@lru_cache(maxsize=None)\ndef matrix_u(n: int)",
     "def matrix_u(n: int)", "equivalent: U_n is rebuilt on every call"),
    ("w-power", "riordan_gep/wmatrix.py", "order=m * n - 1), n + 1)", "order=m * n - 1), n)",
     "decimates ((1-x^m)/(1-x))^n"),
    ("w-order", "riordan_gep/wmatrix.py", "order=m * n - 1), n + 1)", "order=m * n + 3), n + 1)",
     "equivalent: coefficients past the window are never read"),
    ("w-alt-reverse", "riordan_gep/wmatrix.py", "return matrix_v_inv(n) * window(T, n, n).transpose() * matrix_v(n)",
     "return matrix_v(n) * window(T, n, n).transpose() * matrix_v_inv(n)", "V_n and V_n^-1 swapped in the third route"),
    ("lagrange-removable-pole", "riordan_gep/lagrange.py", "else phi * log(a).coeff(n))", "else log(a).coeff(n))",
     "the removable pole drops the factor phi"),
    ("lagrange-beta-zero", "riordan_gep/lagrange.py", "    if beta == 0:\n        return a\n", "",
     "equivalent: x a^0 reverts to x and a(x) = a"),
    ("lagrange-order-twelve", "riordan_gep/lagrange.py", "range(1, order + 1):", "range(1, order + 1 - (order > 11)):",
     "deformed series one coefficient short from order 12 on"),
    ("log-abeta-scale", "riordan_gep/lagrange.py", "[n * k * c[k] for k in range(1, n)]",
     "[k * c[k] for k in range(1, n)]", "log A_n missing the factor n"),
    ("abeta-shift", "riordan_gep/lagrange.py", "shifted_u_inv_columns(n, n * beta))",
     "shifted_u_inv_columns(n, n * beta if n < 9 else beta))", "A_n^beta wrong only from n = 9 on"),
    ("emit-no-sharing", "riordan_gep/dirichlet.py", "x = ints[q] = Fraction(q)", "x = Fraction(q)",
     "equivalent: equal integral values stop sharing one object"),
    ("exp-term-multiplicity", "riordan_gep/dirichlet.py", "weight //= factorial(mult)", "weight //= mult",
     "wrong only for a factor of multiplicity >= 3"),
    ("window-minus-one", "riordan_gep/dirichlet.py", "base = DirichletSeries._of((a.coeffs[0] - 1,) + a.coeffs[1:])",
     "base = DirichletSeries._of((a.coeffs[0],) + a.coeffs[1:])", "<a-1> read as <a>"),
    ("carlitz-degree", "riordan_gep/dirichlet.py", "deg = p * r - p + 1", "deg = p * r - p",
     "the Carlitz-Hoggatt polynomial loses its top coefficient"),
    ("bell-multinomial", "riordan_gep/stirling.py", "coeff //= factorial(mult)", "coeff //= mult",
     "Bell weights wrong only for a part of multiplicity >= 3"),
    ("stirling1-large-n", "riordan_gep/stirling.py", "row[k] = left - (r - 1) * mid",
     "row[k] = left - (r - 1 + (r > 10)) * mid", "signed Stirling numbers of the first kind wrong only from n = 11 on"),
    ("parser-power-once", "riordan_gep/expr.py", "node = PowRational(node, expo, (node.span[0], end))", "pass",
     "x^k parses as x"),
    ("format-fraction-parens", "riordan_gep/output.py", 'body = f"({mag}){base}"', 'body = f"{mag}{base}"',
     "fractional coefficients lose their parentheses"),
    ("verify-exit-code", "riordan_gep/cli.py", "doc.entries):\n        return 1", "doc.entries):\n        return 0",
     "a failed verify exits 0"),
    ("restrict-skips-vanishing", "riordan_gep/verify.py", "((0,) * k,) * m, m=m)", "M.entries[k:], m=m)",
     "restriction stops checking that the trailing rows vanish"),
    ("reduce-degenerate-factor", "riordan_gep/suites/gep.py", "Fraction(factorial(n), factorial(k)), n=n",
     "Fraction(factorial(n), factorial(k) + (n > 6)), n=n", "the U^-1 reduction off by a factor from n = 7 on"),
]

KILLER = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")  # test ids may hold spaces


def check_mutant(name, path, old, new, note) -> str:
    """Why the mutant is malformed, or "" when its old text occurs exactly once."""
    count = (ROOT / "src" / path).read_text(encoding="utf-8").count(old)
    return "" if count == 1 else f"{name}: old text occurs {count} times in src/{path}"


def killers(files, mutant=None) -> list:
    """The tests that fail or error when tier-1 runs in a fresh copy with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for rel in files:
            Path(tmp, rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, Path(tmp, rel))
        if mutant:
            target = Path(tmp, "src", mutant[1])
            target.write_text(target.read_text(encoding="utf-8").replace(mutant[2], mutant[3]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(PYTEST, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, start_new_session=True)
        try:
            out = proc.communicate(timeout=TIMEOUT)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return ["timeout"]
    found = sorted({m.group(1) for m in map(KILLER.match, out.splitlines()) if m})
    return found or ([] if proc.returncode in (0, 1) else [f"pytest exit {proc.returncode}"])


def main() -> int:
    bad = [msg for msg in (check_mutant(*m) for m in MUTANTS) if msg]
    if bad:
        print("\n".join(bad))
        return 1
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.split("\0")
    files = [p for p in listed if p and (ROOT / p).is_file()]
    failing = killers(files)
    if failing:
        print(f"the unmutated copy fails: {', '.join(failing)}")
        return 1
    sole, survivors = {}, []
    for i, mutant in enumerate(MUTANTS, 1):
        name, path, _, _, note = mutant
        found = killers(files, mutant)
        if len(found) == 1:
            sole.setdefault(found[0], []).append(name)
        if not found and not note.startswith("equivalent"):
            survivors.append(name)
        verdict = f"killed by {len(found)}: {', '.join(found)}" if found else "SURVIVED"
        print(f"[{i}/{len(MUTANTS)}] {name} ({path}): {verdict}", flush=True)
    print(f"survivors not marked equivalent: {', '.join(survivors) or 'none'}")
    for test, names in sorted(sole.items()):
        print(f"only killer of {', '.join(names)}: {test}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
