"""Reference weakest preconditions and dependence tests on formulas.

The package reads both off truth tables.  This module keeps the formula
versions they replaced: the precondition eliminates the unknowns by
Shannon expansion on formulas and prints the canonical full DNF of the
result, and dependence is tested by eliminating the atoms and comparing
with the formula.  The differential tests require the package to agree
with these semantically.
"""

from __future__ import annotations

from typing import Sequence

from boolsolve import (
    Formula,
    eliminate_all,
    equivalent,
    formula_from_table,
    free_atoms,
    truth_table,
)


def weakest_precondition(ps: Sequence[str], f: Formula) -> Formula:
    """``exists ps . f`` as the full DNF over the free atoms left after
    formula elimination."""
    eliminated = eliminate_all(ps, f)
    return formula_from_table(truth_table(eliminated, free_atoms(eliminated)))


def depends_on(ps: Sequence[str], f: Formula) -> bool:
    """Whether eliminating the atoms of ``ps`` changes ``f``."""
    dropped = tuple(sorted(set(free_atoms(f)) & set(ps)))
    return bool(dropped) and not equivalent(eliminate_all(dropped, f), f)
