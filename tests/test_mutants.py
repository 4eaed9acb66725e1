"""The mutation ledger's list stays well formed: a refactor that moves a
mutant's old text fails here, instead of turning the mutant into a silent no-op."""

import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_spec = importlib.util.spec_from_file_location("mutants", SRC.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_to_exactly_one_place():
    assert [msg for msg in (mutants.check_mutant(*m) for m in mutants.MUTANTS) if msg] == []
    assert [m[0] for m in mutants.MUTANTS if m[2] == m[3]] == []


def test_mutant_names_are_distinct_and_paths_inside_src():
    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert [m[0] for m in mutants.MUTANTS if SRC.resolve() not in (SRC / m[1]).resolve().parents] == []
