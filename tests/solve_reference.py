"""Reference solvers on formulas: the solver core and the paper's
constructions.

The package runs successive elimination on truth tables.  This module
keeps the formula version it replaced: every stage is a formula built
by Shannon elimination, and phase 2 substitutes the earlier components
into it syntactically, and the right-to-left witness solver on
formulas.  The differential tests require the package to print exactly
what these print.  It also holds an exhaustive search for per-unknown
vocabulary restrictions that shares nothing with the package's solution
intervals, and the constructive shortcut on formulas, which eliminates
the later unknowns by Shannon expansion for each unknown in turn.

The paper's classical constructions live here too, as references for
the laws the core's views satisfy: Schroeder's reproductive interpolant
of ``(A -> p) & (p -> B)``, Loewenheim's rigorous solution grown from a
particular one, the instantiation of a reproductive solution, the
constant solutions read off syntactic polarities, and the definiens of
a defined unknown.  Components are printed by ``irredundant_two_level``,
the formula entry of the package's mask cover.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Callable, Iterator, Sequence

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    BoolsolveError,
    Formula,
    NoSolution,
    Not,
    Or,
    Solution,
    SolutionKind,
    SolutionProblem,
    clean_variant,
    entails,
    exists,
    free_atoms,
    is_substitutible,
    is_valid,
    simplify,
    substitute,
)
from boolsolve.semantics import (
    atom_patterns,
    falsifying_valuation,
    formula_mask,
    irredundant_two_level_mask,
)
from boolsolve.solve import _require_parameters
from elimination_reference import (
    Polarity,
    WitnessResult,
    forall_eliminate,
    polarity_of,
    project_vocabulary,
    shannon_eliminate,
)


class NotSolvable(BoolsolveError):
    pass


class NotAParticularSolution(BoolsolveError):
    pass


class InternalCheckFailed(BoolsolveError):
    pass


class SchroederVariant(Enum):
    A_OR_BT = "a-or-bt"  # A | (B & t)
    B_AND_AT = "b-and-at"  # B & (A | t)
    CASE_SPLIT = "case-split"  # (A & ~t) | (B & t)


def irredundant_two_level(f: Formula) -> Formula:
    """Irredundant two-level form of ``f``'s exact function, read off
    its bitmask over its free atoms by ``irredundant_two_level_mask``."""
    basis = free_atoms(f)
    patterns = atom_patterns(basis)
    return irredundant_two_level_mask(
        formula_mask(f, basis, patterns), basis, list(patterns.values())
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


def schroeder_interpolant(
    aF: Formula, bF: Formula, t: str, variant: SchroederVariant
) -> Formula:
    """Reproductive solution of ``(A -> p) & (p -> B)`` with parameter t.

    Requires A |= B (otherwise no solution exists).  The three variants
    are pairwise equivalent as formulas in t:
    ``A | (B & t)``, ``B & (A | t)`` and ``(A & ~t) | (B & t)``.
    """
    if t in free_atoms(aF) or t in free_atoms(bF):
        raise ValueError(f"parameter {t} must be fresh")
    if not entails(aF, bF):
        raise NotSolvable("lower bound does not entail upper bound")
    ta = Atom(t)
    if variant is SchroederVariant.A_OR_BT:
        built = Or(aF, And(bF, ta))
    elif variant is SchroederVariant.B_AND_AT:
        built = And(bF, Or(aF, ta))
    else:
        built = Or(And(aF, Not(ta)), And(bF, ta))
    return simplify(built)


def _check_is_particular(sp: SolutionProblem, components: Sequence[Formula]) -> None:
    if len(components) != len(sp.unknowns):
        raise NotAParticularSolution("component count differs from unknown count")
    if not is_substitutible(components, sp.unknowns, sp.formula):
        raise NotAParticularSolution("components are not substitutible")
    if not is_valid(substitute(sp.formula, sp.unknowns, components)):
        raise NotAParticularSolution("substituted formula is not valid")


def rigorous_solution(sp: SolutionProblem, particular: Solution) -> Solution:
    """Reproductive solution grown from any particular one.

    Component i is ``(G_i & ~F[t..]) | (t_i & F[t..])`` where F[t..] is
    the problem formula with every unknown replaced by its parameter:
    substituting a solution for the parameters makes F[t..] valid and
    reproduces that solution.
    """
    params = _require_parameters(sp)
    if particular.kind is not SolutionKind.PARTICULAR:
        raise NotAParticularSolution("expected a particular solution")
    _check_is_particular(sp, particular.components)
    work = _prepared(sp)
    f_params = substitute(work, sp.unknowns, [Atom(t) for t in params])
    components = [
        simplify(
            clean_variant(
                Or(And(g, Not(f_params)), And(Atom(t), f_params)),
                avoid=set(sp.unknowns) | set(params),
            )
        )
        for g, t in zip(particular.components, params)
    ]
    return Solution(components, SolutionKind.REPRODUCTIVE)


def instantiate(
    sp: SolutionProblem, sol: Solution, ts: Sequence[Formula]
) -> Solution:
    """Particular solution obtained by substituting ``ts`` for the
    parameters of a reproductive solution, then validating it."""
    params = _require_parameters(sp)
    if sol.kind is not SolutionKind.REPRODUCTIVE:
        raise ValueError("only reproductive solutions can be instantiated")
    if len(ts) != len(params):
        raise ValueError("one replacement per parameter is required")
    components = [simplify(substitute(g, params, ts)) for g in sol.components]
    counterexample = falsifying_valuation(
        substitute(sp.formula, sp.unknowns, components)  # NotSubstitutible propagates
    )
    if counterexample is not None:
        raise InternalCheckFailed(
            f"instantiation is not a solution, falsified at {counterexample}"
        )
    return Solution(components, SolutionKind.PARTICULAR)


def polarity_shortcut(sp: SolutionProblem) -> Solution | None:
    """Constant solution read off syntactic polarities, when every
    unknown occurs with a single polarity (or not at all).

    Returns None when some unknown occurs with both polarities or when
    the constant candidate fails validation.
    """
    candidate: list[Formula] = []
    for p in sp.unknowns:
        pol = polarity_of(sp.formula, p)
        if pol in (Polarity.POSITIVE_ONLY, Polarity.ABSENT):
            candidate.append(TOP)
        elif pol is Polarity.NEGATIVE_ONLY:
            candidate.append(BOT)
        else:
            return None
    if not is_valid(substitute(sp.formula, sp.unknowns, candidate)):
        return None
    return Solution(candidate, SolutionKind.PARTICULAR)


def definiens(f: Formula, p: str) -> Formula | None:
    """Defining formula for ``p`` within ``f`` when one exists.

    ``p`` is implicitly definable iff the two cofactors of ``f`` cannot
    hold together; the true cofactor is then a definiens:
    ``f |= p <-> definiens``.  Returns None when not definable.
    """
    top = substitute(f, [p], [TOP])
    bot = substitute(f, [p], [BOT])
    if not is_valid(Not(And(top, bot))):
        return None
    return simplify(top)
