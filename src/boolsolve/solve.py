"""Solvers for Boolean solution problems.

A solution problem pairs a formula with an ordered list of unknown
atoms; solving means finding replacement formulas that make the formula
valid.  Reproductive solutions additionally carry parameter atoms and
represent every particular solution: substituting any particular
solution for the parameters reproduces it.

Successive elimination is the one solver core, and it runs on truth
tables.  The formula's bitmask spans its base atoms and the unknowns;
each stage, the formula with the later unknowns eliminated, is a mask
formed from the next by OR of two cofactors, and the problem is
solvable exactly when stage 0 is valid.  Phase 2 substitutes the
earlier components into each stage by cofactor selection and prints
the bounds of each solution interval from their masks.  The
second-order strategies, elimination witnesses, restricted solving and
the constructive shortcut are views of the core: they differ only in whether
each unknown gets the lower bound of its solution interval, the upper
bound, the reproductive pair of bounds or a constructive case (a
constant or the definiens of a defined unknown).  Forbidden atoms are
quantified universally first, whichever view runs.  Per-component
vocabulary restrictions search the same intervals, narrowed to the
components each unknown may depend on.  The weakest precondition is
stage 0 printed, and ``elimination`` reads dependence and projection
off the same phase 1.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Sequence

from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    AtomSet,
    BoolsolveError,
    Formula,
    Or,
    Record,
    clean_variant,
    free_atoms,
    substitute,
)
from .semantics import (
    _full_mask,
    _irredundant_two_level_masks,
    atom_patterns,
    cofactors,
    existential_stages,
    formula_mask,
    irredundant_two_level_mask,
    simplify,
    top_cofactors,
    widen,
)


class NoSolution(BoolsolveError):
    pass


class MissingParameters(BoolsolveError):
    pass


class Undecided(BoolsolveError):
    """A restricted search ran out of budget before it found an answer."""


class SolutionKind(Enum):
    PARTICULAR = "particular"
    REPRODUCTIVE = "reproductive"


class Strategy(Enum):
    INTERVAL = "interval"
    REPRODUCTIVE = "reproductive"


class SolutionProblem(Record):
    """A formula with ordered unknowns, optional parameters and an
    optional set of atoms forbidden in solution components."""

    __match_args__ = ("formula", "unknowns", "parameters", "forbidden")
    __slots__ = (*__match_args__, "__dict__")  # __dict__ holds the cached ``free``
    formula: Formula
    unknowns: tuple[str, ...]
    parameters: tuple[str, ...] | None
    forbidden: AtomSet | None

    def __init__(
        self,
        formula: Formula,
        unknowns: Sequence[str],
        parameters: Sequence[str] | None = None,
        forbidden: Sequence[str] | None = None,
        *,
        _free: AtomSet | None = None,
    ):
        if _free is not None:
            self.__dict__["free"] = _free
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "unknowns", tuple(unknowns))
        object.__setattr__(
            self, "parameters", None if parameters is None else tuple(parameters)
        )
        object.__setattr__(
            self, "forbidden", None if forbidden is None else tuple(sorted(set(forbidden)))
        )
        self._validate()

    @cached_property
    def free(self) -> AtomSet:
        """The formula's free atoms; not compared.  A file's problem with no
        quantifier gets the parser's; others are found on first use."""
        return free_atoms(self.formula)

    def _validate(self) -> None:
        if len(set(self.unknowns)) != len(self.unknowns):
            raise ValueError("unknowns must be distinct")
        if self.parameters is not None:
            if len(set(self.parameters)) != len(self.parameters):
                raise ValueError("parameters must be distinct")
            if len(self.parameters) != len(self.unknowns):
                raise ValueError("one parameter per unknown is required")
            clash = (set(self.free) | set(self.unknowns)) & set(self.parameters)
            if clash:
                raise ValueError(f"parameters must be fresh, clashing: {sorted(clash)}")
        if self.forbidden is not None and set(self.forbidden) & set(self.unknowns):
            raise ValueError("forbidden atoms must not be unknowns")
        if self.forbidden is not None and set(self.forbidden) & set(self.parameters or ()):
            raise ValueError("forbidden atoms must not be parameters")


class Solution(Record):
    __slots__ = __match_args__ = ("components", "kind")
    components: tuple[Formula, ...]
    kind: SolutionKind

    def __init__(self, components: Sequence[Formula], kind: SolutionKind):
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "kind", kind)


def exists_solution(
    sp: SolutionProblem, per_unknown: Sequence[Sequence[str]] | None = None
) -> bool:
    """Solvability test: validity of the formula under an existential
    prefix over the unknowns, which is stage 0 of successive
    elimination.  With forbidden atoms it tests the restricted problem,
    whose formula is universally quantified over them.  With
    ``per_unknown`` it runs the search of ``solve_restricted``, which
    may raise ``Undecided``."""
    if per_unknown is not None:
        return _restricted_masks(sp, per_unknown) is not None
    base, stages, _ = _stage_masks(sp)
    return stages[0] == _full_mask(len(base))


def precondition(sp: SolutionProblem) -> Formula:
    """The weakest antecedent making the problem solvable, with the atoms
    B of ``sp.forbidden`` restricted: ``exists P forall B . F``, stage 0
    of ``_stage_masks``, as its irredundant two-level form."""
    base, stages, patterns = _stage_masks(sp)
    return irredundant_two_level_mask(stages[0], base, patterns)


def _require_parameters(sp: SolutionProblem) -> tuple[str, ...]:
    if sp.parameters is None:
        raise MissingParameters("this solver needs one fresh parameter per unknown")
    return sp.parameters


def _prepared(sp: SolutionProblem) -> Formula:
    avoid = set(sp.unknowns) | set(sp.parameters or ())
    return clean_variant(sp.formula, avoid=avoid)


def _stage_masks(sp: SolutionProblem) -> tuple[tuple[str, ...], list[int], list[int]]:
    """Phase 1 of successive elimination, on truth tables.

    The formula's mask spans its k sorted base atoms, then the unknowns
    in their listed order, so unknown i (from 1) sits at position
    k + i - 1.  The atoms of ``sp.forbidden`` are quantified universally
    first, by AND of their cofactors.  Stage i, the formula with
    unknowns i+1..n eliminated, is then a mask over the first k + i
    positions: eliminating the last position ORs the two halves of the
    mask.  Returns the base atoms, stages 0..n and the positions' atom
    masks.  The problem has a solution exactly when stage 0 is valid.
    Every mask elimination of the package is a view of this phase 1.
    """
    base = tuple(sorted(set(sp.free) - set(sp.unknowns)))
    basis = base + sp.unknowns
    patterns = atom_patterns(basis)
    mask = formula_mask(sp.formula, basis, patterns)
    for b in sp.forbidden or ():
        if b in base:  # an atom absent from the formula is quantified vacuously
            zero, one = cofactors(mask, base.index(b), patterns[b])
            mask = zero & one
    return base, existential_stages(mask, len(basis), len(base)), list(patterns.values())


def _interval(
    stages: list[int], patterns: list[int], k: int, masks: Sequence[int]
) -> tuple[int, int]:
    """Solution interval [L_i, U_i] of unknown i = len(masks) + 1, as
    masks over its stage's first k + i - 1 positions.  The earlier
    components (``masks[j]`` is G_{j+1} over k + j + 1 positions) are
    substituted into stage i by cofactor selection,
    ``(S|p=1 & G) | (S|p=0 & ~G)``; then L_i = ~S[p_i := false] and
    U_i = S[p_i := true]."""
    width = k + len(masks) + 1
    stage = stages[len(masks) + 1]
    for j, g in enumerate(masks):
        zero, one = cofactors(stage, k + j, patterns[k + j])
        stage = zero ^ ((zero ^ one) & widen(g, k + j + 1, width))
    zero, upper = top_cofactors(stage, width)
    return zero ^ _full_mask(width - 1), upper


class _Bound(Enum):
    """What each unknown gets from its solution interval [L_i, U_i]."""

    LOWER = "lower"  # the interval strategy
    UPPER = "upper"  # the elimination witness
    PAIR = "pair"  # the reproductive L_i | (U' & t_i), U' in [U_i & ~L_i, U_i]
    CASE = "case"  # the constructive case: true, false or the one member


def _solve_stages(sp: SolutionProblem, bound: _Bound) -> Solution | None:
    """Successive elimination on truth tables, the one solver core.

    Phase 2 walks the unknowns first-to-last over the stages of
    ``_stage_masks``, with the atoms of ``sp.forbidden`` quantified
    universally, and takes from ``_interval`` the solution interval
    [L_i, U_i] of each stage with the earlier components substituted.
    Unknown i gets L_i, U_i or, over the parameters t_i, the
    reproductive ``(L_i & ~t_i) | (U_i & t_i)``, as ``bound`` says, each
    bound printed as the irredundant two-level form of its mask.  As
    L_i <= U_i, the reproductive one prints as ``L_i | (U' & t_i)``,
    with U' the cover of the interval [U_i & ~L_i, U_i].  When L_i = U_i,
    p_i is defined and the component is that one cover, free of t_i.
    Otherwise both covers share one layout of their masks, and the
    component is built with the constant rules of ``simplify`` at its
    three top nodes only, since a cover has nothing left to simplify:
    ``U' & t_i`` when L_i is false, ``L_i | t_i`` when U' (so U_i) is
    true, and ``t_i`` when both hold.  The
    constructive case is true when U_i is valid, else false when L_i is
    unsatisfiable, else the one member when L_i = U_i (p_i is defined);
    when an interval allows none of these, the result is None.  The last
    unknown's definiens, U_n = F[G.., p_n := true], is printed from the
    formula by substitution unless atoms are forbidden: it needs no
    elimination and keeps the formula's structure.
    Once p_j is replaced, its position means t_j: the masks keep k + n
    positions however many parameters the components mention, and the
    printed cover splits positions in the sorted order of their names,
    base atoms and parameters alike.  No stage depends on a forbidden
    atom, and neither does any component.  Raises ``NoSolution`` when
    the problem, universally quantified over ``sp.forbidden``, has none.
    """
    params = _require_parameters(sp) if bound is _Bound.PAIR else None
    base, stages, patterns = _stage_masks(sp)
    k = len(base)
    if stages[0] != _full_mask(k):
        if sp.forbidden is not None:
            raise NoSolution(
                f"no solution avoids the forbidden atoms ({', '.join(sp.forbidden)})"
            )
        raise NoSolution("the existential closure over the unknowns is not valid")
    # Without parameters no component depends on a replaced position, so
    # the unknown's own name stands in for it.
    names = [*base, *(sp.unknowns if params is None else params)]
    components: list[Formula] = []
    masks: list[int] = []  # masks[j]: G_j over k + j + 1 positions
    for i in range(len(sp.unknowns)):
        width = k + i + 1
        lower, upper = _interval(stages, patterns, k, masks)
        shown = names[: width - 1]
        if params is None:
            if bound is _Bound.CASE:
                full = _full_mask(width - 1)
                g = upper if upper == full else lower if lower in (0, upper) else None
                if g is None:
                    return None
                if 0 < g < full and i == len(sp.unknowns) - 1 and not sp.forbidden:
                    work = substitute(_prepared(sp), sp.unknowns, [*components, TOP])
                    components.append(simplify(work))
                    continue
            else:
                g = lower if bound is _Bound.LOWER else upper
            components.append(irredundant_two_level_mask(g, shown, patterns))
            masks.append(widen(g, width - 1, width))
            continue
        masks.append(lower | upper << (1 << (width - 1)))
        if lower == upper:  # a defined unknown: its definiens, free of t_i
            components.append(irredundant_two_level_mask(lower, shown, patterns))
            continue
        lower_f, upper_f = _irredundant_two_level_masks(
            (lower, (upper ^ lower, upper)), shown, patterns
        )
        t = Atom(params[i])
        upper_t = t if upper_f is TOP else And(upper_f, t)
        components.append(upper_t if lower_f is BOT else Or(lower_f, upper_t))
    kind = SolutionKind.PARTICULAR if params is None else SolutionKind.REPRODUCTIVE
    return Solution(components, kind)


def solve_succ_elim(sp: SolutionProblem) -> Solution:
    """The method of successive eliminations.

    Phase 1 eliminates the unknowns last-to-first, storing each
    intermediate stage.  Phase 2 walks first-to-last and emits for
    unknown i the reproductive unary solution
    ``(~F_i[G.. false] & ~t_i) | (F_i[G.. true] & t_i)`` built from the
    stored stage F_i with the earlier components substituted.
    """
    return _solve_stages(sp, _Bound.PAIR)


def solve_on_second_order(sp: SolutionProblem, strategy: Strategy) -> Solution:
    """Left-to-right reduction to unary problems.

    Unknown i is solved in the formula with the already-computed
    components substituted and the remaining unknowns existentially
    quantified, which is the stored stage of successive elimination.
    The interval strategy takes the lower bound of each unary solution
    interval.  The reproductive strategy uses each unknown's parameter,
    and its composed result, itself reproductive, is exactly
    ``solve_succ_elim``'s.
    """
    return _solve_stages(
        sp, _Bound.PAIR if strategy is Strategy.REPRODUCTIVE else _Bound.LOWER
    )


def solve_by_witnesses(sp: SolutionProblem) -> Solution:
    """Elimination witnesses, composed: the upper bound of each interval.

    The elimination witness of ``exists p . F`` is ``F[p := true]``, and
    ``F[p := F[p := true]]`` is equivalent to ``exists p . F``.  Solving
    right to left, each unknown takes the witness in the formula with
    the later components substituted, and folding each new component
    into the later ones leaves unknown i exactly
    ``U_i = F_i[G.., p_i := true]`` of the stored stage F_i.
    """
    return _solve_stages(sp, _Bound.UPPER)


def constructive_shortcut(sp: SolutionProblem) -> Solution | None:
    """The constructive cases, unknown by unknown in the listed order:
    true or false when the constant solves the stage with the earlier
    components substituted, else the definiens of a defined unknown.
    Returns None when some unknown has no such case, or when the problem
    has no solution."""
    try:
        return _solve_stages(sp, _Bound.CASE)
    except NoSolution:
        return None


_SEARCH_BUDGET = 1 << 16  # candidate components a restricted search may try


def _restricted_masks(
    sp: SolutionProblem, per_unknown: Sequence[Sequence[str]]
) -> tuple[tuple[str, ...], list[int], list[int]] | None:
    """Exact search for components under per-unknown vocabulary
    restrictions: unknown i may not depend on B_i, the atoms of
    ``sp.forbidden`` and ``per_unknown[i]``.

    The atoms in every B_i are quantified universally in the formula's
    mask, as in ``solve_restricted`` without per-unknown sets.  The
    stages are built with the unknowns ordered by decreasing |B_i|, so
    the unknowns with the fewest candidates are chosen first (a stable
    order: equal restrictions keep the listed order).  Unknown i then
    sees the solution interval [L_i, U_i] of its stage with the chosen
    earlier components substituted.  A component free of B_i exists iff
    ``exists B_i . L_i |= forall B_i . U_i``, and that narrowed interval
    is exactly the set of such components.  The search tries each
    interval's members lower bound first and backtracks when a later
    interval is empty.  The problem is a DQBF in general, so after
    ``_SEARCH_BUDGET`` candidates it raises ``Undecided``.  Returns the
    base atoms, the positions' atom masks and each component's mask over
    the base atoms, in the listed order of the unknowns, or None when no
    components meet the restrictions.
    """
    if len(per_unknown) != len(sp.unknowns):
        raise ValueError("one forbidden set per unknown is required")
    banned = [set(sp.forbidden or ()) | set(atoms) for atoms in per_unknown]
    reserved = set(sp.unknowns) | set(sp.parameters or ())
    if any(atoms & reserved for atoms in banned):
        raise ValueError("forbidden atoms must not be unknowns or parameters")
    order = sorted(range(len(banned)), key=lambda i: -len(banned[i]))
    banned = [banned[i] for i in order]
    common = set.intersection(*banned) if banned else None
    unknowns = [sp.unknowns[i] for i in order]
    searched = SolutionProblem(sp.formula, unknowns, None, common, _free=sp.free)
    base, stages, patterns = _stage_masks(searched)
    k = len(base)
    full = _full_mask(k)
    if stages[0] != full:
        return None
    chosen: list[int] = []  # chosen[j]: G_{j+1} over the k base positions
    masks: list[int] = []  # the same, widened as _interval takes them
    budget = _SEARCH_BUDGET

    def extend() -> bool:
        nonlocal budget
        i = len(chosen)
        if i == len(banned):
            return True
        # No stage depends on an earlier unknown's position once its
        # component is substituted, so the bounds live on the base atoms.
        lower, upper = (bound & full for bound in _interval(stages, patterns, k, masks))
        positions = [at for at, b in enumerate(base) if b in banned[i]]
        canonical = full  # valuations with every position of B_i false
        for at in positions:
            zero, one = cofactors(lower, at, patterns[at])
            lower = zero | one
            zero, one = cofactors(upper, at, patterns[at])
            upper = zero & one
            canonical &= full ^ patterns[at]
        if lower & (full ^ upper):
            return False
        free = upper & (full ^ lower) & canonical
        subset = 0
        while True:
            budget -= 1
            if budget < 0:
                raise Undecided(
                    f"restricted search undecided after {_SEARCH_BUDGET} candidate components"
                )
            g = subset
            for at in positions:
                g |= g << (1 << at)
            chosen.append(lower | g)
            masks.append(widen(lower | g, k, k + i + 1))
            if extend():
                return True
            chosen.pop()
            masks.pop()
            subset = (subset - free) & free  # the next subset of free
            if subset == 0:
                return False

    if not extend():
        return None
    return base, patterns, [chosen[order.index(i)] for i in range(len(order))]


def solve_restricted(
    sp: SolutionProblem, per_unknown: Sequence[Sequence[str]] | None = None
) -> Solution:
    """Solve with vocabulary restrictions on the components.

    Without ``per_unknown`` every component avoids ``sp.forbidden``.
    Then G solves the problem with components free of the forbidden
    atoms iff G solves the universally quantified problem, so the core
    quantifies the forbidden atoms universally in the formula's mask and
    solves the result, reproductively when parameters are given.  No
    stage then depends on a forbidden atom, and neither does any
    component.  With ``per_unknown``, component i avoids
    ``sp.forbidden`` and ``per_unknown[i]``; the exact search of
    ``_restricted_masks`` then finds a particular solution, and raises
    ``Undecided`` when it runs out of budget first.
    """
    if per_unknown is None:
        if sp.forbidden is None:
            raise ValueError("a forbidden atom set is required")
        return _solve_stages(sp, _Bound.LOWER if sp.parameters is None else _Bound.PAIR)
    found = _restricted_masks(sp, per_unknown)
    if found is None:
        raise NoSolution("no solution meets the vocabulary restrictions")
    base, patterns, chosen = found
    components = [irredundant_two_level_mask(g, base, patterns) for g in chosen]
    return Solution(components, SolutionKind.PARTICULAR)
