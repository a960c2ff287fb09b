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
    Polarity,
    Top,
    all_names,
    clean_variant,
    conj,
    disj,
    exists,
    forall,
    free_atoms,
    free_binders,
    has_quantifier,
    is_substitutible,
    polarity_of,
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
    irredundant_two_level,
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
    InternalCheckFailed,
    MissingParameters,
    NoSolution,
    NotAParticularSolution,
    NotSolvable,
    SchroederVariant,
    Solution,
    SolutionKind,
    SolutionProblem,
    Strategy,
    Undecided,
    constructive_shortcut,
    definiens,
    exists_solution,
    instantiate,
    polarity_shortcut,
    rigorous_solution,
    schroeder_interpolant,
    solve1_interval,
    solve1_reproductive,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
)
from .oracle import (
    CheckFailure,
    CheckReport,
    FunctionSpace,
    TooLarge,
    any_enumerated_solution,
    check_general,
    check_parametric,
    check_particular,
    check_reproductive,
    enumerate_solutions,
)

__version__ = "0.1.0"
