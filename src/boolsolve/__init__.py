"""Boolean equation solving over propositional formulas with
quantification on nullary atoms.

Decide solvability, compute particular and reproductive (most general)
solutions, compute elimination witnesses and weakest preconditions, and
verify every output against an exact brute-force oracle.
"""

from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    AtomSet,
    Bot,
    BoolsolveError,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    NotSubstitutible,
    Or,
    Top,
    all_names,
    clean_variant,
    conj,
    disj,
    exists,
    forall,
    free_atoms,
    free_binders,
    is_substitutible,
    substitute,
)
from .syntax import ParseError, format_formula, parse
from .semantics import (
    BudgetExceeded,
    TruthTable,
    UnboundAtom,
    entails,
    equivalent,
    evaluate,
    formula_from_table,
    is_valid,
    simplify,
    truth_table,
)
from .elimination import (
    NotIndependent,
    depends_on,
    project_vocabulary,
    weakest_precondition,
)
from .solve import (
    MissingParameters,
    NoSolution,
    Solution,
    SolutionKind,
    SolutionProblem,
    Strategy,
    Undecided,
    constructive_shortcut,
    exists_solution,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
)

__version__ = "0.1.0"

# Importing the brute-force oracle costs a large share of the package's
# import time, and only checking and enumerating use it, so its names
# load it on first use (PEP 562).
_ORACLE_NAMES = (
    "CheckFailure",
    "CheckReport",
    "FunctionSpace",
    "TooLarge",
    "any_enumerated_solution",
    "check_general",
    "check_parametric",
    "check_particular",
    "check_reproductive",
    "enumerate_solutions",
)

# ``from boolsolve import *`` still gives every public name, the
# oracle's among them.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["oracle", *_ORACLE_NAMES]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        value = getattr(oracle, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
