"""Acceptance suite: criterion 9, the CLI goldens and the one full-size
`verify all --seed 7` of tier-1, which runs every verify.REGISTRY row at
its default size and names each row that fails.

Every comparison is exact rational equality; there are no tolerances.
The paper's displayed matrices, Eulerian polynomials and Dirichlet tables
are checked by the display tests of their modules (`test_gep`,
`test_lagrange`, `test_wmatrix`, `test_dirichlet`), and the identity
sweeps by the REGISTRY rows that this run covers.
"""

from riordan_gep.cli import main


def test_criterion_9_cli_goldens(capsys):
    assert main(["euler", "--n", "4"]) == 0
    assert capsys.readouterr().out == "x+11x^2+11x^3+x^4\n"
    assert main(["w", "--n", "3", "--m", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "4,1,0\n4,6,4\n0,1,4\n"
    code = main(["verify", "all", "--seed", "7"])
    *rows, total = capsys.readouterr().out.splitlines()
    failing = [row for row in rows if not row.startswith("[ok] ")]
    assert not failing, "\n".join(failing)
    assert (code, total) == (0, f"{len(rows)} checks, 0 failed")
