"""Reference solver core: successive elimination on formulas.

The package runs successive elimination on truth tables.  This module
keeps the formula version it replaced: every stage is a formula built
by Shannon elimination, and phase 2 substitutes the earlier components
into it syntactically.  The differential tests require the package to
print exactly what this core prints.
"""

from __future__ import annotations

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    Formula,
    NoSolution,
    Not,
    Or,
    SolutionProblem,
    clean_variant,
    exists,
    forall_eliminate,
    free_atoms,
    irredundant_two_level,
    is_valid,
    project_vocabulary,
    shannon_eliminate,
    simplify,
    substitute,
)


def solve_succ_elim_stages(sp: SolutionProblem) -> tuple[Formula, ...]:
    """The stored intermediate formulas of successive elimination:
    element i is the input with unknowns i+1..n eliminated."""
    avoid = set(sp.unknowns) | set(sp.parameters or ())
    work = clean_variant(sp.formula, avoid=avoid)
    stages = [work]
    for p in reversed(sp.unknowns):
        work = shannon_eliminate(p, work)
        stages.append(work)
    return tuple(reversed(stages))


def solve_stages(sp: SolutionProblem, params) -> list[Formula]:
    """Phase 2 over the stored stage formulas: unknown i gets the lower
    bound ``~F_i[G.., p_i := false]``, or with ``params`` the reproductive
    ``(lower & ~t_i) | (F_i[G.., p_i := true] & t_i)``."""
    if not is_valid(exists(sp.unknowns, sp.formula)):
        raise NoSolution("the existential closure over the unknowns is not valid")
    stages = solve_succ_elim_stages(sp)
    components: list[Formula] = []
    for i in range(len(sp.unknowns)):
        stage = stages[i + 1]
        ps = list(sp.unknowns[: i + 1])
        lower = irredundant_two_level(Not(substitute(stage, ps, [*components, BOT])))
        if params is None:
            components.append(lower)
            continue
        upper = irredundant_two_level(substitute(stage, ps, [*components, TOP]))
        t = Atom(params[i])
        components.append(simplify(Or(And(lower, Not(t)), And(upper, t))))
    return components


def solve_restricted(sp: SolutionProblem) -> list[Formula]:
    """Restricted solving on formulas: the forbidden atoms are eliminated
    universally from the formula, and components are projected off them
    afterwards."""
    work = sp.formula
    for b in reversed(sp.forbidden):
        work = forall_eliminate(b, work)
    inner = SolutionProblem(work, sp.unknowns, sp.parameters)
    components = []
    for c in solve_stages(inner, sp.parameters):
        if set(free_atoms(c)) & set(sp.forbidden):
            keep = tuple(sorted(set(free_atoms(c)) - set(sp.forbidden)))
            c = project_vocabulary(c, keep)
        components.append(c)
    return components
