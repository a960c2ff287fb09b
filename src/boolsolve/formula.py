"""Formula AST over nullary atoms, with analysis and substitution.

Nodes are immutable ``__slots__`` objects that compare and hash
structurally, so formulas can be shared freely between threads and
used as dict keys.  Besides the usual connectives the language has the
propositional quantifiers ``exists p . F`` and ``forall p . F`` that
bind an atom name.

The node classes are final (``typing.final``).  Every formula walker of
the package dispatches on a node's exact type, ``type(g) is And``,
which is cheaper than an ``isinstance`` chain, so a subclass of a node
class would not be walked as that node.  One walk, ``_scan``, answers
every name question for ``free_atoms``, ``all_names`` and
``clean_variant``.  The other walks stay separate because each returns
something else: ``substitute`` and ``clean_variant`` rebuild the tree,
``semantics._mask`` evaluates it, ``simplify`` rewrites it, the printer
prints it, and ``__eq__`` compares it per node shape, for speed.
``substitute``'s capture test and ``simplify``'s quantifier test read
each body's free atoms from one bottom-up walk, so a nest is walked once.

``substitute`` renames apart only the binders that would capture an
atom of a replacement, while ``clean_variant`` renames every repeated
or clashing binder, so each keeps its own rebuild walk.  No solver
rewrites a formula with them: every answer is printed from its mask.
They are public API, and the oracle's particular check substitutes.

``Record`` is the base of the package's immutable result values.
"""

from __future__ import annotations

from typing import Iterable, Sequence, final

AtomSet = tuple[str, ...]  # sorted, duplicate-free


class BoolsolveError(Exception):
    """Base class for all errors raised by this package."""


class _Immutable:
    """A value whose fields are named, in constructor order, in
    ``__match_args__``.  It refuses to set or delete attributes:
    ``__init__`` sets the fields with the slot descriptors' ``__set__``
    or with ``object.__setattr__``.  Copies and pickles call the
    constructor with the fields."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


class Record(_Immutable):
    """An immutable value whose fields are compared, hashed and printed
    in turn, as ``Name(field=value, ...)``.  Equality holds only within
    one class."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Formula(_Immutable):
    """Base class of all formula nodes.

    Equality is structural and holds only between nodes of one type;
    the hash of a node is the hash of the tuple of its fields.
    ``__eq__`` is written per node shape, testing identity before
    equality of each field, since ``simplify`` compares subtrees deeply.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"<{self}>"


class _Constant(Formula):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())


@final
class Top(_Constant):
    __slots__ = ()


@final
class Bot(_Constant):
    __slots__ = ()


@final
class Atom(Formula):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set_name(self, name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Atom:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))


@final
class Not(Formula):
    __slots__ = __match_args__ = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula) -> None:
        _set_operand(self, operand)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Not:
            return NotImplemented
        f = self.operand
        g = other.operand
        return f is g or f == g

    def __hash__(self) -> int:
        return hash((self.operand,))


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        f = self.left
        g = other.left
        h = self.right
        k = other.right
        return (f is g or f == g) and (h is k or h == k)

    def __hash__(self) -> int:
        return hash((self.left, self.right))


@final
class And(_Binary):
    __slots__ = ()


@final
class Or(_Binary):
    __slots__ = ()


@final
class Implies(_Binary):
    __slots__ = ()


@final
class Iff(_Binary):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = __match_args__ = ("var", "body")
    var: str
    body: Formula

    def __init__(self, var: str, body: Formula) -> None:
        _set_var(self, var)
        _set_body(self, body)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        f = self.body
        g = other.body
        return self.var == other.var and (f is g or f == g)

    def __hash__(self) -> int:
        return hash((self.var, self.body))


@final
class Exists(_Quantifier):
    __slots__ = ()


@final
class Forall(_Quantifier):
    __slots__ = ()


# The slot descriptors' setters, which the immutable nodes' __init__
# call instead of the refusing __setattr__.
_set_name = Atom.name.__set__
_set_operand = Not.operand.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_var = _Quantifier.var.__set__
_set_body = _Quantifier.body.__set__

TOP = Top()
BOT = Bot()

BINARY = (And, Or, Implies, Iff)
QUANT = (Exists, Forall)


def conj(formulas: Iterable[Formula]) -> Formula:
    """Left-nested conjunction; the empty conjunction is ``true``."""
    out: Formula | None = None
    for f in formulas:
        out = f if out is None else And(out, f)
    return TOP if out is None else out


def disj(formulas: Iterable[Formula]) -> Formula:
    """Left-nested disjunction; the empty disjunction is ``false``."""
    out: Formula | None = None
    for f in formulas:
        out = f if out is None else Or(out, f)
    return BOT if out is None else out


def exists(names: Sequence[str], f: Formula) -> Formula:
    """Prefix ``f`` with existential quantifiers, first name outermost."""
    for name in reversed(names):
        f = Exists(name, f)
    return f


def forall(names: Sequence[str], f: Formula) -> Formula:
    for name in reversed(names):
        f = Forall(name, f)
    return f


def _scan(f: Formula) -> tuple[set[str], set[str]]:
    """The free atoms of ``f`` and its binder names, from one walk."""
    free: set[str] = set()
    binders: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]) -> None:
        t = type(g)
        if t is Atom:
            if g.name not in bound:
                free.add(g.name)
        elif t is Not:
            walk(g.operand, bound)
        elif t in BINARY:
            walk(g.left, bound)
            walk(g.right, bound)
        elif t in QUANT:
            binders.add(g.var)
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return free, binders


def free_atoms(f: Formula) -> AtomSet:
    """The atoms with at least one occurrence not bound by a quantifier."""
    return tuple(sorted(_scan(f)[0]))


def all_names(f: Formula) -> AtomSet:
    """Every atom name occurring anywhere in ``f``, free, bound or as binder."""
    free, binders = _scan(f)
    return tuple(sorted(binders.union(free)))  # a binder names each bound atom


def substitute(f: Formula, ps: Sequence[str], gs: Sequence[Formula]) -> Formula:
    """Simultaneously replace free occurrences of each ``ps[i]`` by ``gs[i]``.

    Bound occurrences are untouched.  A binder is renamed apart exactly
    when it binds a free atom of some ``gs[i]`` and ``ps[i]`` occurs free
    in its body, not shadowed there.  Its new name is the binder's
    ``fresh_name`` over every name of ``f`` and of ``gs`` and every name
    chosen before it.
    """
    if len(ps) != len(gs):
        raise ValueError("atom and replacement sequences differ in length")
    if len(set(ps)) != len(ps):
        raise ValueError("replaced atoms must be distinct")
    # each replaced atom maps to its replacement and that one's free atoms
    env = {p: (g, _scan(g)[0]) for p, g in zip(ps, gs) if g != Atom(p)}
    if not env:
        return f
    capturable = set().union(*[free for _, free in env.values()])
    used: set[str] = set()  # filled at the first renaming
    body_free: dict[int, set[str]] = {}  # by id of each quantifier in a body walked

    def free_of(g: Formula) -> set[str]:
        # g's free atoms, bottom-up; each quantifier's body's go to body_free
        t = type(g)
        if t is Atom:
            return {g.name}
        if t is Not:
            return free_of(g.operand)
        if t in BINARY:
            return free_of(g.left) | free_of(g.right)
        if t in QUANT:
            free = body_free[id(g)] = free_of(g.body)
            return free - {g.var}
        return set()

    def walk(g: Formula, env: dict[str, tuple[Formula, set[str]]]) -> Formula:
        t = type(g)
        if t is Atom:
            hit = env.get(g.name)
            return g if hit is None else hit[0]
        if t is Not:
            sub = walk(g.operand, env)
            return g if sub is g.operand else Not(sub)
        if t in BINARY:
            left = walk(g.left, env)
            right = walk(g.right, env)
            return g if left is g.left and right is g.right else t(left, right)
        if t in QUANT:
            var = g.var
            if var in env:
                env = {p: hit for p, hit in env.items() if p != var}
            if var in capturable:
                inner = body_free[id(g)] if id(g) in body_free else free_of(g.body)
                if any(var in free and p in inner for p, (_, free) in env.items()):
                    if not used:
                        used.update(all_names(f), *[all_names(h) for h in gs])
                    name = fresh_name(var, used)
                    used.add(name)
                    return t(name, walk(g.body, {**env, var: (Atom(name), set())}))
            body = walk(g.body, env)
            return g if body is g.body else t(var, body)
        return g

    return walk(f, env)


def fresh_name(base: str, used: Iterable[str]) -> str:
    """``base_k`` with the smallest k >= 1 not in ``used``."""
    taken = set(used)
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def clean_variant(f: Formula, avoid: Iterable[str] = ()) -> Formula:
    """Equivalent formula where no free atom is also bound and all bound
    atoms are distinct.

    Renaming appends ``_k`` with the smallest k making the name globally
    fresh, assigned in a left-to-right traversal, so the result is
    deterministic.  Names in ``avoid`` are treated as taken.
    """
    free, binders = _scan(f)
    taken = free.union(avoid)
    used = taken | binders

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


from .syntax import format_formula  # noqa: E402  (syntax imports this module first)
