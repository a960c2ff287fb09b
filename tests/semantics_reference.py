"""Reference for the bitmask kernel's quantifiers, for tests only.

``formula_mask`` walks a nest of quantifiers once, each binder on a bit
slot of its own above the basis.  The reference below reads the
quantifiers literally instead: every binder walks its body once with
the bound atom false and once with it true, so q nested binders walk
the innermost body 2^q times.  Its masks must equal the kernel's.
"""

from __future__ import annotations

from boolsolve import (
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
)
from boolsolve.semantics import atom_patterns


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
