"""Exact semantics: evaluation, validity, truth tables, canonical forms.

Validity is decided by expansion over the free atoms; quantifiers expand
to both instantiations of the bound atom.  Internally a formula is
evaluated to a bitmask holding its value under every valuation of an
atom basis at once, which keeps exhaustive checks cheap at desk scale.

Truth-table encoding (fixed so golden outputs are portable): the basis
is sorted ascending, atom ``i`` of the basis contributes bit ``i`` of a
valuation's index, and ``bits[index]`` is the formula's value there.
The text form prints index 0 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .formula import (
    BOT,
    QUANT,
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
    Or,
    Top,
    conj,
    disj,
    free_atoms,
)

Valuation = Mapping[str, bool]


class UnboundAtom(BoolsolveError):
    pass


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of ``f`` under a valuation covering its free atoms;
    a free atom the valuation misses raises ``UnboundAtom``."""
    patterns = {name: int(bool(value)) for name, value in valuation.items()}
    return formula_mask(f, (), patterns) == 1


def atom_patterns(basis: AtomSet) -> dict[str, int]:
    """Per-atom bitmasks over all valuations of ``basis``.

    Atom ``i`` is true exactly at indices with bit ``i`` set.  Each mask
    starts as one block of 2^i ones above 2^i zeros and doubles in
    length until it covers all 2^|basis| indices.
    """
    masks: dict[str, int] = {}
    size = 1 << len(basis)
    for i, name in enumerate(basis):
        period = 2 << i
        m = ((1 << (1 << i)) - 1) << (1 << i)
        while period < size:
            m |= m << period
            period <<= 1
        masks[name] = m
    return masks


def formula_mask(f: Formula, basis: AtomSet, patterns: dict[str, int] | None = None) -> int:
    """Bitmask of ``f`` over all valuations of ``basis``."""
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


def is_valid(f: Formula) -> bool:
    """True iff ``f`` holds under every valuation of its free atoms."""
    basis = free_atoms(f)
    return formula_mask(f, basis) == (1 << (1 << len(basis))) - 1


def is_satisfiable(f: Formula) -> bool:
    return formula_mask(f, free_atoms(f)) != 0


def _joint_basis(f: Formula, g: Formula) -> AtomSet:
    return tuple(sorted(set(free_atoms(f)) | set(free_atoms(g))))


def entails(f: Formula, g: Formula) -> bool:
    basis = _joint_basis(f, g)
    patterns = atom_patterns(basis)
    full = (1 << (1 << len(basis))) - 1
    return formula_mask(f, basis, patterns) & (full ^ formula_mask(g, basis, patterns)) == 0


def equivalent(f: Formula, g: Formula) -> bool:
    basis = _joint_basis(f, g)
    patterns = atom_patterns(basis)
    return formula_mask(f, basis, patterns) == formula_mask(g, basis, patterns)


def falsifying_valuation(f: Formula) -> dict[str, bool] | None:
    """Some valuation making ``f`` false, or None when ``f`` is valid."""
    basis = free_atoms(f)
    mask = formula_mask(f, basis)
    full = (1 << (1 << len(basis))) - 1
    if mask == full:
        return None
    idx = ((full ^ mask) & -(full ^ mask)).bit_length() - 1
    return decode_valuation(idx, basis)


def decode_valuation(index: int, basis: AtomSet) -> dict[str, bool]:
    return {name: bool((index >> i) & 1) for i, name in enumerate(basis)}


@dataclass(frozen=True)
class TruthTable:
    """Values of a formula under every valuation of an ordered basis."""

    basis: AtomSet
    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        if list(self.basis) != sorted(set(self.basis)):
            raise ValueError("basis must be sorted and duplicate-free")
        if len(self.bits) != 1 << len(self.basis):
            raise ValueError("bits length must be 2^|basis|")

    def bit_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def to_text(self) -> str:
        return f"basis: {' '.join(self.basis)}\nbits: {self.bit_string()}"

    def as_int(self) -> int:
        out = 0
        for i, b in enumerate(self.bits):
            if b:
                out |= 1 << i
        return out

    @classmethod
    def from_int(cls, value: int, basis: Iterable[str]) -> "TruthTable":
        basis_t = tuple(sorted(set(basis)))
        size = 1 << len(basis_t)
        return cls(basis_t, tuple(bool((value >> i) & 1) for i in range(size)))


def truth_table(f: Formula, basis: Iterable[str]) -> TruthTable:
    basis_t = tuple(sorted(set(basis)))
    missing = set(free_atoms(f)) - set(basis_t)
    if missing:
        raise UnboundAtom(", ".join(sorted(missing)))
    return TruthTable.from_int(formula_mask(f, basis_t), basis_t)


def minterm(index: int, basis: AtomSet) -> Formula:
    """Conjunction of literals true exactly at valuation ``index``."""
    literals = [
        Atom(name) if (index >> i) & 1 else Not(Atom(name))
        for i, name in enumerate(basis)
    ]
    return conj(literals)


def formula_from_table(t: TruthTable) -> Formula:
    """Canonical full-DNF formula whose truth table is ``t``."""
    if not any(t.bits):
        return BOT
    if all(t.bits):
        return TOP
    return disj(minterm(i, t.basis) for i, b in enumerate(t.bits) if b)


class _OverBudget(Exception):
    """A cover in ``irredundant_two_level`` outgrew its literal budget."""


def irredundant_two_level(f: Formula) -> Formula:
    """Irredundant two-level form of ``f``'s exact function.

    The Minato-Morreale recursion (Minato, IEICE Trans. Fundamentals
    1993) runs on ``f``'s bitmask over its free atoms, splitting on the
    atoms in sorted order, so equivalent inputs give the same output.
    It covers both ``f``, which gives a sum of products, and ``~f``,
    whose cubes negated by De Morgan give a product of sums.  The form
    with fewer literals is returned, the sum of products on a tie, so a
    function built from clauses stays a product of clauses instead of
    growing into exponentially many cubes.  Each cover is built under a
    literal budget that grows fourfold until one fits, so the larger
    form costs at most a few times the smaller.  The result is
    quantifier-free, mentions only atoms the function depends on, and
    no cube (clause) or literal of it can be dropped.
    """
    basis = free_atoms(f)
    patterns = atom_patterns(basis)
    full = (1 << (1 << len(basis))) - 1
    mask = formula_mask(f, basis, patterns)
    Cube = tuple[tuple[str, bool], ...]
    spent = budget = 0

    def cover(lower: int, upper: int, i: int, lits: int) -> tuple[list[Cube], int]:
        # Cubes, as (atom, value) literals, of an irredundant cover c
        # with lower <= c <= upper, and c.  Neither bound depends on the
        # atoms before position i, and lits literals are already fixed
        # above this call.  A call with lower != 0 yields a cube or has
        # a child with lower != 0, so there are O(|basis| * cubes) calls.
        nonlocal spent
        if lower == 0:
            return [], 0
        if upper == full:
            spent += lits
            if spent > budget:
                raise _OverBudget
            return [()], full
        while True:
            pos = patterns[basis[i]]
            shift = 1 << i
            neg = full ^ pos
            l0 = lower & neg
            l0 |= l0 << shift
            l1 = lower & pos
            l1 |= l1 >> shift
            u0 = upper & neg
            u0 |= u0 << shift
            u1 = upper & pos
            u1 |= u1 >> shift
            if l0 != l1 or u0 != u1:
                break
            i += 1
        name = basis[i]
        cubes0, c0 = cover(l0 & (full ^ u1), u0, i + 1, lits + 1)
        cubes1, c1 = cover(l1 & (full ^ u0), u1, i + 1, lits + 1)
        rest = (l0 & (full ^ c0)) | (l1 & (full ^ c1))
        cubes_r, cr = cover(rest, u0 & u1, i + 1, lits)
        cubes = (
            [((name, False), *c) for c in cubes0]
            + [((name, True), *c) for c in cubes1]
            + cubes_r
        )
        return cubes, (c0 & neg) | (c1 & pos) | cr

    def within(target: int, limit: int) -> list[Cube] | None:
        # The cubes of target's cover, or None if it has over limit literals.
        nonlocal spent, budget
        spent, budget = 0, limit
        try:
            return cover(target, target, 0, 0)[0]
        except _OverBudget:
            return None

    limit = 64
    while True:
        ones = within(mask, limit)
        if ones is not None:
            zeros = within(full ^ mask, sum(map(len, ones)) - 1)
            break
        zeros = within(full ^ mask, limit)
        if zeros is not None:
            break
        limit *= 4

    def literal(name: str, value: bool) -> Formula:
        return Atom(name) if value else Not(Atom(name))

    if zeros is not None:
        return conj(disj(literal(a, not v) for a, v in c) for c in zeros)
    return disj(conj(literal(a, v) for a, v in c) for c in ones)


def _simp_not(f: Formula) -> Formula:
    if isinstance(f, Top):
        return BOT
    if isinstance(f, Bot):
        return TOP
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def _simp_and(left: Formula, right: Formula) -> Formula:
    if isinstance(left, Bot) or isinstance(right, Bot):
        return BOT
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if left == right:
        return left
    return And(left, right)


def _simp_or(left: Formula, right: Formula) -> Formula:
    if isinstance(left, Top) or isinstance(right, Top):
        return TOP
    if isinstance(left, Bot):
        return right
    if isinstance(right, Bot):
        return left
    if left == right:
        return left
    return Or(left, right)


def _simp_implies(left: Formula, right: Formula) -> Formula:
    if isinstance(left, Bot) or isinstance(right, Top):
        return TOP
    if isinstance(left, Top):
        return right
    if isinstance(right, Bot):
        return _simp_not(left)
    if left == right:
        return TOP
    return Implies(left, right)


def _simp_iff(left: Formula, right: Formula) -> Formula:
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if isinstance(left, Bot):
        return _simp_not(right)
    if isinstance(right, Bot):
        return _simp_not(left)
    if left == right:
        return TOP
    return Iff(left, right)


def simplify(f: Formula) -> Formula:
    """Equivalent formula with constants absorbed, double negations
    removed and structurally equal operands of ``&``/``|`` merged.

    No minimality is promised; the rewriting is purely local.
    """
    if isinstance(f, Not):
        return _simp_not(simplify(f.operand))
    if isinstance(f, And):
        return _simp_and(simplify(f.left), simplify(f.right))
    if isinstance(f, Or):
        return _simp_or(simplify(f.left), simplify(f.right))
    if isinstance(f, Implies):
        return _simp_implies(simplify(f.left), simplify(f.right))
    if isinstance(f, Iff):
        return _simp_iff(simplify(f.left), simplify(f.right))
    if isinstance(f, QUANT):
        body = simplify(f.body)
        if f.var not in free_atoms(body):
            return body
        return type(f)(f.var, body)
    return f
