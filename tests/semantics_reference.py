"""References for the bitmask kernel, for tests only.

``atom_patterns`` keeps the masks of each narrow width once built.
The reference below builds them anew on every call.  Its masks must
equal the kernel's.

``formula_mask`` walks a quantifier's body once, one position wider
with its binder on the new top position, while the mask is narrow, so
a nest over a narrow basis is walked once.  The reference below reads
the quantifiers literally instead: every binder walks its body once
with the bound atom false and once with it true, so q nested binders
walk the innermost body 2^q times.  Its masks must equal the kernel's.

``irredundant_two_level_mask`` lays the mask out in split order and
recurses on half-width cofactors, and skips the product of sums of a
read-once sum of products.  The reference below keeps every cofactor
at full width, splits it on its position in place, rebuilds every cube
on each level, and always builds both forms.  It takes a
``(lower, upper)`` pair as the kernel's ``_irredundant_two_level_masks``
does.  Its formulas must equal the kernel's.

``simplify`` returns each rewritten subtree with its free atoms, so a
quantifier reads whether it binds anything without walking its body
again.  The reference below scans the rewritten body at every
quantifier, so a q-deep nest is scanned q times.  Its formulas must
equal the package's.
"""

from __future__ import annotations

from typing import Sequence

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    UnboundAtom,
    conj,
    disj,
)
from boolsolve.formula import _scan
from boolsolve.semantics import _BINARY_RULES, MAX_MASK_ATOMS, BudgetExceeded, _not_rule


def atom_patterns(basis: tuple[str, ...]) -> dict[str, int]:
    """Per-atom bitmasks over all valuations of ``basis``, built anew on
    every call: the top atom's mask is the upper half of the indices,
    and each lower mask comes from the one above it as
    ``p_i = p_{i+1} ^ (p_{i+1} >> 2^i)``."""
    if len(basis) > MAX_MASK_ATOMS:
        raise BudgetExceeded(f"{len(basis)} atoms exceed the truth-table cap")
    masks = dict.fromkeys(basis, 0)
    i = len(basis) - 1
    if i >= 0:
        m = ((1 << (1 << i)) - 1) << (1 << i)
        masks[basis[i]] = m
        while i:
            i -= 1
            m ^= m >> (1 << i)
            masks[basis[i]] = m
    return masks


def formula_mask(
    f: Formula, basis: tuple[str, ...], patterns: dict[str, int] | None = None
) -> int:
    """Bitmask of ``f`` over all valuations of ``basis``, with every
    quantifier expanded into both instantiations of its bound atom."""
    if patterns is None:
        patterns = atom_patterns(basis)
    full = (1 << (1 << len(basis))) - 1

    def walk(g: Formula, env: dict[str, int]) -> int:
        if isinstance(g, Top):
            return full
        if isinstance(g, Bot):
            return 0
        if isinstance(g, Atom):
            if g.name in env:
                return env[g.name]
            try:
                return patterns[g.name]
            except KeyError:
                raise UnboundAtom(g.name) from None
        if isinstance(g, Not):
            return full ^ walk(g.operand, env)
        if isinstance(g, And):
            return walk(g.left, env) & walk(g.right, env)
        if isinstance(g, Or):
            return walk(g.left, env) | walk(g.right, env)
        if isinstance(g, Implies):
            return (full ^ walk(g.left, env)) | walk(g.right, env)
        if isinstance(g, Iff):
            return full ^ (walk(g.left, env) ^ walk(g.right, env))
        if isinstance(g, Exists):
            return walk(g.body, {**env, g.var: full}) | walk(g.body, {**env, g.var: 0})
        if isinstance(g, Forall):
            return walk(g.body, {**env, g.var: full}) & walk(g.body, {**env, g.var: 0})
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


def evaluate(f: Formula, valuation: dict[str, bool]) -> bool:
    """Truth value of ``f`` under ``valuation`` by the reference walk."""
    return formula_mask(f, (), {a: int(v) for a, v in valuation.items()}) == 1


class _OverBudget(Exception):
    """A cover in ``irredundant_two_level_mask`` outgrew its literal budget."""


def irredundant_two_level_mask(
    mask: int | tuple[int, int], names: Sequence[str], patterns: Sequence[int]
) -> Formula:
    """Irredundant two-level form of the function with bitmask ``mask``,
    where position i of a valuation's index is the atom ``names[i]``.
    A pair ``(lower, upper)`` with lower <= upper gives the form of some
    function between the two, covering the pair for the sum of products
    and (~upper, ~lower) for the product of sums; it is ``false`` when
    lower = 0, else ``true`` when upper is every valuation.

    The Minato-Morreale recursion (Minato, IEICE Trans. Fundamentals
    1993) splits on the positions in the sorted order of their names,
    so equivalent functions give the same output whatever the layout
    of their masks.  It covers both the function, which gives a sum of
    products, and its negation, whose cubes negated by De Morgan give
    a product of sums.  The form with fewer literals is returned, the
    sum of products on a tie, so a function built from clauses stays a
    product of clauses instead of growing into exponentially many
    cubes.  Each cover is built under a literal budget that grows
    fourfold until one fits, so the larger form costs at most a few
    times the smaller.  The result mentions only atoms the function
    depends on, and no cube (clause) or literal of it can be dropped.
    ``names`` must be distinct, and ``patterns`` holds the positions'
    atom masks (``atom_patterns``, possibly over a wider basis).
    """
    width = len(names)
    order = sorted(range(width), key=names.__getitem__)
    full = (1 << (1 << width)) - 1
    lower, upper = mask if isinstance(mask, tuple) else (mask, mask)
    if lower == 0 or upper == full:
        return BOT if lower == 0 else TOP
    Cube = tuple[tuple[str, bool], ...]
    spent = budget = 0

    def cover(lower: int, upper: int, i: int, lits: int) -> tuple[list[Cube], int]:
        # Cubes, as (atom, value) literals, of an irredundant cover c
        # with lower <= c <= upper, and c.  Neither bound depends on the
        # positions before order[i], and lits literals are already fixed
        # above this call.  A call with lower != 0 yields a cube or has
        # a child with lower != 0, so there are O(width * cubes) calls.
        nonlocal spent
        if lower == 0:
            return [], 0
        if upper == full:
            spent += lits
            if spent > budget:
                raise _OverBudget
            return [()], full
        while True:
            at = order[i]
            pos = patterns[at]
            shift = 1 << at
            lp = lower & pos
            l0 = lower ^ lp
            l0 |= l0 << shift
            l1 = lp | lp >> shift
            up = upper & pos
            u0 = upper ^ up
            u0 |= u0 << shift
            u1 = up | up >> shift
            if l0 != l1 or u0 != u1:
                break
            i += 1
        name = names[at]
        cubes0, c0 = cover(l0 & (full ^ u1), u0, i + 1, lits + 1)
        cubes1, c1 = cover(l1 & (full ^ u0), u1, i + 1, lits + 1)
        rest = (l0 & (full ^ c0)) | (l1 & (full ^ c1))
        cubes_r, cr = cover(rest, u0 & u1, i + 1, lits)
        cubes = (
            [((name, False), *c) for c in cubes0]
            + [((name, True), *c) for c in cubes1]
            + cubes_r
        )
        return cubes, (c0 ^ (c0 & pos)) | (c1 & pos) | cr

    def within(low: int, high: int, limit: int) -> list[Cube] | None:
        # The cubes of the pair's cover, or None if it has over limit literals.
        nonlocal spent, budget
        spent, budget = 0, limit
        try:
            return cover(low, high, 0, 0)[0]
        except _OverBudget:
            return None

    limit = 64
    while True:
        ones = within(lower, upper, limit)
        if ones is not None:
            zeros = within(full ^ upper, full ^ lower, sum(map(len, ones)) - 1)
            break
        zeros = within(full ^ upper, full ^ lower, limit)
        if zeros is not None:
            break
        limit *= 4

    def literal(name: str, value: bool) -> Formula:
        return Atom(name) if value else Not(Atom(name))

    if zeros is not None:
        return conj(disj(literal(a, not v) for a, v in c) for c in zeros)
    return disj(conj(literal(a, v) for a, v in c) for c in ones)


def simplify(f: Formula) -> Formula:
    """Equivalent formula with constants absorbed, double negations
    removed and structurally equal operands of ``&``/``|`` merged; a
    node that no rule changes is returned as it is."""
    t = type(f)
    if t is Not:
        operand = simplify(f.operand)
        g = _not_rule(operand)
        if g is None:
            g = f if operand is f.operand else Not(operand)
        return g
    rule = _BINARY_RULES.get(t)
    if rule is not None:
        left, right = simplify(f.left), simplify(f.right)
        g = rule(left, right)
        if g is None:
            g = f if left is f.left and right is f.right else t(left, right)
        return g
    if t is Exists or t is Forall:
        body = simplify(f.body)
        if f.var not in _scan(body)[0]:
            return body
        return f if body is f.body else t(f.var, body)
    return f
