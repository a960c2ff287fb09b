"""The formula walkers as they were before one scan answered every
name question, and the literal substitution, for tests only.

``free_atoms``, ``all_names``, ``free_binders`` and ``clean_variant``
each walk the tree themselves here, and ``simplify`` asks this
module's ``free_atoms`` whether a quantifier binds anything.  Their
results must equal the package's exactly.

``substitute`` is the paper's literal substitution: it refuses, with
``NotSubstitutible``, a replacement that a binder would capture
(condition 1) or that mentions a replaced atom (condition 2), where the
package's ``substitute`` renames the capturing binders apart and
replaces simultaneously.  ``is_substitutible`` tests both conditions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from boolsolve.formula import (
    BINARY,
    QUANT,
    Atom,
    AtomSet,
    BoolsolveError,
    Exists,
    Forall,
    Formula,
    Not,
    fresh_name,
)
from boolsolve.semantics import _BINARY_RULES, _not_rule


def free_atoms(f: Formula) -> AtomSet:
    """The atoms with at least one occurrence not bound by a quantifier."""
    out: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]) -> None:
        t = type(g)
        if t is Atom:
            if g.name not in bound:
                out.add(g.name)
        elif t is Not:
            walk(g.operand, bound)
        elif t in BINARY:
            walk(g.left, bound)
            walk(g.right, bound)
        elif t in QUANT:
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return tuple(sorted(out))


def all_names(f: Formula) -> AtomSet:
    """Every atom name occurring anywhere in ``f``, free, bound or as binder."""
    out: set[str] = set()

    def walk(g: Formula) -> None:
        t = type(g)
        if t is Atom:
            out.add(g.name)
        elif t is Not:
            walk(g.operand)
        elif t in BINARY:
            walk(g.left)
            walk(g.right)
        elif t in QUANT:
            out.add(g.var)
            walk(g.body)

    walk(f)
    return tuple(sorted(out))


def free_binders(f: Formula) -> dict[str, frozenset[str]]:
    """Map each free atom of ``f`` to the names bound by the quantifiers
    above its free occurrences.

    Replacing the atom by a formula whose free atoms meet this set would
    capture them; an atom with no quantifier above any of its free
    occurrences maps to the empty set.
    """
    out: dict[str, set[str]] = {}

    def walk(g: Formula, bound: frozenset[str]) -> None:
        t = type(g)
        if t is Atom:
            name = g.name
            if name not in bound:
                if name in out:
                    out[name] |= bound
                else:
                    out[name] = set(bound)
        elif t is Not:
            walk(g.operand, bound)
        elif t in BINARY:
            walk(g.left, bound)
            walk(g.right, bound)
        elif t in QUANT:
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return {name: frozenset(binders) for name, binders in out.items()}


_UNBOUND: frozenset[str] = frozenset()


class NotSubstitutible(BoolsolveError):
    """A replacement sequence violates the substitution preconditions.

    ``condition`` is 1 when a replacement would be captured by a
    quantifier, 2 when a replacement mentions one of the replaced atoms;
    ``index`` is the offending position.
    """

    def __init__(self, condition: int, index: int, detail: str = ""):
        self.condition = condition
        self.index = index
        msg = f"condition ({condition}) violated at position {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def _substitution_violation(
    gs: Sequence[Formula], ps: Sequence[str], f: Formula
) -> tuple[int, int] | None:
    """First violated (condition, index), or None when substitutible.

    Condition (2) is tested at every position before condition (1), and
    the lowest violating position is reported.  A position whose
    replacement is literally the replaced atom is a no-op and is exempt
    from both conditions.
    """
    active = [i for i, g in enumerate(gs) if g != Atom(ps[i])]
    pset = set(ps)
    free_gs = {i: set(free_atoms(gs[i])) for i in active}
    for i in active:
        if free_gs[i] & pset:
            return (2, i)
    if not any(free_gs.values()):
        return None
    binders = free_binders(f)
    for i in active:
        if binders.get(ps[i], _UNBOUND) & free_gs[i]:
            return (1, i)
    return None


def is_substitutible(gs: Sequence[Formula], ps: Sequence[str], f: Formula) -> bool:
    """True iff ``gs`` may simultaneously replace the atoms ``ps`` in ``f``.

    Requires matching lengths and, for each replacement: no free
    occurrence of the replaced atom lies under a quantifier binding a
    free atom of the replacement, and the replacement mentions none of
    the replaced atoms (identity positions are exempt no-ops).
    """
    if len(gs) != len(ps):
        return False
    return _substitution_violation(gs, ps, f) is None


def substitute(f: Formula, ps: Sequence[str], gs: Sequence[Formula]) -> Formula:
    """Simultaneously replace free occurrences of each ``ps[i]`` by ``gs[i]``.

    Bound occurrences are untouched.  Raises NotSubstitutible when the
    replacement would capture or reintroduce a replaced atom.
    """
    if len(ps) != len(gs):
        raise ValueError("atom and replacement sequences differ in length")
    if len(set(ps)) != len(ps):
        raise ValueError("replaced atoms must be distinct")
    violation = _substitution_violation(gs, ps, f)
    if violation is not None:
        cond, i = violation
        raise NotSubstitutible(cond, i, f"replacing {ps[i]} by {gs[i]}")
    mapping = {p: g for p, g in zip(ps, gs) if g != Atom(p)}
    if not mapping:
        return f

    def walk(g: Formula, shadowed: frozenset[str]) -> Formula:
        t = type(g)
        if t is Atom:
            if g.name in mapping and g.name not in shadowed:
                return mapping[g.name]
            return g
        if t is Not:
            sub = walk(g.operand, shadowed)
            return g if sub is g.operand else Not(sub)
        if t in BINARY:
            left = walk(g.left, shadowed)
            right = walk(g.right, shadowed)
            return g if left is g.left and right is g.right else t(left, right)
        if t in QUANT:
            body = walk(g.body, shadowed | {g.var})
            return g if body is g.body else t(g.var, body)
        return g

    return walk(f, frozenset())


def clean_variant(f: Formula, avoid: Iterable[str] = ()) -> Formula:
    """Equivalent formula where no free atom is also bound and all bound
    atoms are distinct.

    Renaming appends ``_k`` with the smallest k making the name globally
    fresh, assigned in a left-to-right traversal, so the result is
    deterministic.  Names in ``avoid`` are treated as taken.
    """
    free = set(free_atoms(f))
    used = set(all_names(f)) | free | set(avoid)
    taken = free | set(avoid)

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        t = type(g)
        if t is Atom:
            return Atom(env[g.name]) if g.name in env else g
        if t is Not:
            return Not(walk(g.operand, env))
        if t in BINARY:
            return t(walk(g.left, env), walk(g.right, env))
        if t in QUANT:
            name = g.var
            if name in taken:
                name = fresh_name(g.var, used)
            used.add(name)
            taken.add(name)
            return t(name, walk(g.body, {**env, g.var: name}))
        return g

    return walk(f, {})


def simplify(f: Formula) -> Formula:
    """Equivalent formula with constants absorbed, double negations
    removed and structurally equal operands of ``&``/``|`` merged.

    No minimality is promised; the rewriting is purely local.  A node
    that no rule changes, and whose children come back unchanged, is
    returned as it is.
    """
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
        if f.var not in free_atoms(body):
            return body
        return f if body is f.body else t(f.var, body)
    return f
