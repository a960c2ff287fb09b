"""Reference solver core: successive elimination on formulas.

The package runs successive elimination on truth tables.  This module
keeps the formula version it replaced: every stage is a formula built
by Shannon elimination, and phase 2 substitutes the earlier components
into it syntactically, and the right-to-left witness solver on
formulas.  The differential tests require the package to print exactly
what these print.  It also holds an exhaustive search for per-unknown
vocabulary restrictions that shares nothing with the package's solution
intervals, and the constructive shortcut on formulas, which eliminates
the later unknowns by Shannon expansion for each unknown in turn.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Sequence

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    Formula,
    NoSolution,
    Not,
    Or,
    Solution,
    SolutionKind,
    SolutionProblem,
    clean_variant,
    definiens,
    exists,
    free_atoms,
    irredundant_two_level,
    is_valid,
    simplify,
    substitute,
)
from elimination_reference import (
    WitnessResult,
    forall_eliminate,
    project_vocabulary,
    shannon_eliminate,
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
    ``(lower & ~t_i) | (F_i[G.., p_i := true] & t_i)``, which is the one
    cover when the two bounds print alike (the unknown is defined)."""
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
        if lower == upper:
            components.append(lower)
            continue
        t = Atom(params[i])
        components.append(simplify(Or(And(lower, Not(t)), And(upper, t))))
    return components


def solve_by_witnesses(
    sp: SolutionProblem, witness: Callable[[str, Formula], WitnessResult]
) -> list[Formula]:
    """Right-to-left elimination witnesses with back-substitution.

    Unknown i receives the witness that ``witness(p_i, F)`` constructs
    for the formula F with the later components already substituted;
    each new component is then folded into all later ones, so the final
    components contain no unknowns.  Every component is kept in its
    irredundant two-level form.
    """
    if not is_valid(exists(sp.unknowns, sp.formula)):
        raise NoSolution("the existential closure over the unknowns is not valid")
    work = clean_variant(sp.formula, avoid=set(sp.unknowns) | set(sp.parameters or ()))
    tail: list[Formula] = []  # components for the unknowns after position i
    for i in range(len(sp.unknowns) - 1, -1, -1):
        cur = substitute(work, sp.unknowns[i + 1 :], tail)
        g = irredundant_two_level(witness(sp.unknowns[i], cur).witness)
        tail = [g] + [
            irredundant_two_level(substitute(h, [sp.unknowns[i]], [g])) for h in tail
        ]
    return tail


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


def restricted_brute_force(table: int, k: int, banned: Sequence[int]) -> list[int] | None:
    """Component tables meeting per-unknown vocabulary restrictions, by
    exhaustive search over their values.

    ``table`` is the formula's mask over k base positions followed by
    one position per unknown; ``banned[i]`` masks the base positions
    unknown i may not depend on, so component i takes one value on each
    class of base valuations that differ only there.  The search fixes
    those values valuation by valuation, trying every choice of the
    unknowns' values at each, and keeps a choice only if the formula
    holds there and every later valuation still has a choice.  Returns
    the first tuple of component tables over the base positions, or None
    when no tuple makes the formula valid.
    """
    n = len(banned)
    fixed: list[dict[int, int]] = [{} for _ in range(n)]  # class -> value

    def choices(v: int) -> list[tuple[int, ...]]:
        return [
            xs
            for xs in product((0, 1), repeat=n)
            if all(fixed[i].get(v & ~banned[i], x) == x for i, x in enumerate(xs))
            and table >> (v | sum(x << (k + i) for i, x in enumerate(xs))) & 1
        ]

    def search(v: int) -> bool:
        if v == 1 << k:
            return True
        for xs in choices(v):
            added = [i for i in range(n) if v & ~banned[i] not in fixed[i]]
            for i in added:
                fixed[i][v & ~banned[i]] = xs[i]
            if all(choices(w) for w in range(v + 1, 1 << k)) and search(v + 1):
                return True
            for i in added:
                del fixed[i][v & ~banned[i]]
        return False

    if not search(0):
        return None
    return [sum(fixed[i][v & ~banned[i]] << v for v in range(1 << k)) for i in range(n)]


def _prepared(sp: SolutionProblem) -> Formula:
    avoid = set(sp.unknowns) | set(sp.parameters or ())
    return clean_variant(sp.formula, avoid=avoid)


def _constructive_cases(unary: Formula, p: str) -> Iterator[Formula]:
    """The constants, then a definiens of ``p`` in ``unary`` if any."""
    yield TOP
    yield BOT
    g = definiens(unary, p)
    if g is not None:
        yield g


def constructive_shortcut(sp: SolutionProblem) -> Solution | None:
    """Solve each unknown in order by a constructive case: the constant
    true or false when it solves the unary formula, else a definiens of
    the unknown in it.  The unary formula has the earlier components
    substituted and the later unknowns eliminated on formulas, last
    first.  Returns None as soon as no case applies.  The atoms of
    ``sp.forbidden`` are not looked at."""
    work = _prepared(sp)
    components: list[Formula] = []
    for i, p in enumerate(sp.unknowns):
        unary = substitute(work, sp.unknowns[:i], components)
        for q in reversed(sp.unknowns[i + 1 :]):
            unary = simplify(Or(substitute(unary, [q], [TOP]), substitute(unary, [q], [BOT])))
        g = next(
            (g for g in _constructive_cases(unary, p) if is_valid(substitute(unary, [p], [g]))),
            None,
        )
        if g is None:
            return None
        components.append(g)
    if not is_valid(substitute(work, sp.unknowns, components)):
        return None
    return Solution(components, SolutionKind.PARTICULAR)
