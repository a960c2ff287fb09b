"""Exact semantics: evaluation, validity, truth tables, canonical forms.

Validity is decided by expansion over the free atoms.  Internally a
formula is evaluated to a bitmask holding its value under every
valuation of an atom basis at once, which keeps exhaustive checks cheap
at desk scale.  A quantifier takes the OR or AND of the cofactors of its
bound atom by one width rule (``formula_mask``): over a narrow mask its
body is walked once, one position wider, with the binder on the new top
position, and over a wide one once per value of the binder.  A basis
spans at most ``MAX_MASK_ATOMS`` atoms; ``atom_patterns`` refuses a
wider one with ``BudgetExceeded``.  The atom masks depend on the width
alone, so those of widths up to 16 are kept once built, at most about
240 KB; a wider basis has its masks built per call and never kept.

Truth-table encoding (fixed so golden outputs are portable): the basis
is sorted ascending, atom ``i`` of the basis contributes bit ``i`` of a
valuation's index, and ``bits[index]`` is the formula's value there.
The text form prints index 0 leftmost.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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
    Or,
    Record,
    Top,
    conj,
    disj,
    free_atoms,
)

Valuation = Mapping[str, bool]


class UnboundAtom(BoolsolveError):
    pass


MAX_MASK_ATOMS = 26  # widest basis a bitmask may span: 2^26 bits, 8 MB


class BudgetExceeded(BoolsolveError):
    """A truth table would span more than ``MAX_MASK_ATOMS`` atoms."""


# For the widths w most bases have: _FULLS[w], the mask of every valuation
# over w positions, and _PATTERNS[w], atom_patterns' masks once built.
_FULLS = tuple((1 << (1 << w)) - 1 for w in range(17))
_PATTERNS: dict[int, list[int]] = {}


def _full_mask(width: int) -> int:
    """The mask of every valuation over ``width`` positions."""
    return _FULLS[width] if width < len(_FULLS) else (1 << (1 << width)) - 1


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of ``f`` under a valuation covering its free atoms;
    a free atom the valuation misses raises ``UnboundAtom``."""
    patterns = {name: int(bool(value)) for name, value in valuation.items()}
    return formula_mask(f, (), patterns) == 1


def atom_patterns(basis: AtomSet) -> dict[str, int]:
    """Per-atom bitmasks over all valuations of ``basis``, whose names
    must be distinct, in a fresh dict keyed in basis order.

    Atom ``i`` is true exactly at indices with bit ``i`` set.  The top
    atom's mask is the upper half of the indices; each lower mask comes
    from the one above it as ``p_i = p_{i+1} ^ (p_{i+1} >> 2^i)``, since
    adding 2^i to an index flips its bit i+1 exactly when its bit i is
    set.  The masks of widths up to 16 are kept once built, at most
    about 240 KB in all; a wider basis gets masks built per call and
    never kept.  A basis wider than ``MAX_MASK_ATOMS`` raises
    ``BudgetExceeded`` before any mask is built; every bitmask of the
    package starts here.
    """
    width = len(basis)
    if width > MAX_MASK_ATOMS:
        raise BudgetExceeded(
            f"{width} atoms exceed the truth-table cap of {MAX_MASK_ATOMS} "
            f"atoms ({1 << (MAX_MASK_ATOMS - 23)} MB per mask)"
        )
    masks = _PATTERNS.get(width)
    if masks is None:
        masks, m = [], 0
        for i in reversed(range(width)):
            m = m ^ m >> (1 << i) if masks else _full_mask(i) << (1 << i)
            masks.insert(0, m)
        if width < len(_FULLS):
            _PATTERNS[width] = masks
    return dict(zip(basis, masks))


def formula_mask(f: Formula, basis: AtomSet, patterns: dict[str, int] | None = None) -> int:
    """Bitmask of ``f`` over all valuations of ``basis``.

    ``patterns`` maps every atom that occurs free in ``f`` to its mask
    over the basis; it defaults to ``atom_patterns(basis)``.  A
    quantifier is the OR (exists) or AND (forall) of the two cofactors
    of its binder.  While the walk's mask spans fewer than
    ``_WIDEN_BELOW`` positions (and fewer than ``MAX_MASK_ATOMS``), the
    body is walked once, one position wider, with the binder on the new
    top position and every other atom widened as the body reads it; the
    cofactors are that mask's ``top_cofactors``.  Past that width the
    body is walked once with the binder false and once with it true.  So
    a nest over a narrow basis is walked once up to that width, and no
    quantifier widens a mask past it.
    """
    if patterns is None:
        patterns = atom_patterns(basis)
    return _mask(f, patterns, _full_mask(len(basis)))


# A quantifier over a mask of fewer positions than this is walked one
# position wider, so no mask widened for a binder passes 2^18 bits
# (32 kB); of the widths tried, 18 walked deep nests fastest.
_WIDEN_BELOW = 18


class _Scope(dict):
    """The atom masks a quantifier's body reads: its binder's, stored,
    and every other atom's from the enclosing ``outer`` scope, widened
    by one top position above its ``half`` bits unless ``half`` is 0.
    A widened mask is not stored, so each lives only while it is used.
    An unwidened read is stored, so the per-cofactor walks below read
    each atom through the scopes above once.  Storing it keeps alive no
    mask wider than 2^18 bits: the read is a mask the enclosing scopes
    already hold, or one widened to at most ``_WIDEN_BELOW`` positions."""

    __slots__ = ("outer", "half")

    def __init__(self, outer: dict[str, int], half: int) -> None:
        self.outer = outer
        self.half = half

    def __missing__(self, name: str) -> int:
        mask = self.outer[name]
        if self.half:
            return mask | mask << self.half
        self[name] = mask
        return mask


def _mask(g: Formula, values: dict[str, int], full: int) -> int:
    """``formula_mask``'s walk: the mask of ``g`` where ``values`` holds
    every free atom's mask and ``full`` is the mask of all valuations."""
    t = type(g)
    if t is Atom:
        try:
            return values[g.name]
        except KeyError:
            raise UnboundAtom(g.name) from None
    if t is Not:
        return full ^ _mask(g.operand, values, full)
    if t is And:
        return _mask(g.left, values, full) & _mask(g.right, values, full)
    if t is Or:
        return _mask(g.left, values, full) | _mask(g.right, values, full)
    if t is Implies:
        return (full ^ _mask(g.left, values, full)) | _mask(g.right, values, full)
    if t is Iff:
        return full ^ _mask(g.left, values, full) ^ _mask(g.right, values, full)
    if t is Top:
        return full
    if t is Bot:
        return 0
    if t is Exists or t is Forall:
        half = full.bit_length()  # 2^width, for a mask over width positions
        width = half.bit_length() - 1
        if width < _WIDEN_BELOW and width < MAX_MASK_ATOMS:
            scope = _Scope(values, half)
            scope[g.var] = full << half
            mask = _mask(g.body, scope, full | full << half)
            zero, one = top_cofactors(mask, width + 1)
        else:
            scope = _Scope(values, 0)
            scope[g.var] = 0
            zero = _mask(g.body, scope, full)
            scope[g.var] = full
            one = _mask(g.body, scope, full)
        return zero | one if t is Exists else zero & one
    raise TypeError(f"not a formula: {g!r}")


def top_cofactors(mask: int, width: int) -> tuple[int, int]:
    """Cofactors, false then true, of a mask over ``width`` positions at
    its last position; each is a mask over the first ``width - 1``."""
    return mask & _full_mask(width - 1), mask >> (1 << (width - 1))


def existential_stages(mask: int, width: int, keep: int) -> list[int]:
    """Stages 0..width - keep of existential quantification of a mask
    over ``width`` positions: stage i is ``mask`` with every position
    from ``keep + i`` on quantified, as a mask over the first
    ``keep + i`` positions.  Each stage is the OR of the two halves of
    the next, and the last is ``mask`` itself."""
    stages = [mask]
    for w in range(width, keep, -1):
        zero, one = top_cofactors(stages[-1], w)
        stages.append(zero | one)
    stages.reverse()
    return stages


def cofactors(mask: int, position: int, pattern: int) -> tuple[int, int]:
    """Cofactors, false then true, of ``mask`` at ``position``, whose
    atom mask is ``pattern``; each keeps the width and no longer depends
    on that position.  Their OR is the existential and their AND the
    universal quantification of the position."""
    shift = 1 << position
    one = mask & pattern
    zero = mask ^ one
    return zero | zero << shift, one | one >> shift


def widen(mask: int, width: int, new_width: int) -> int:
    """A mask over ``width`` positions as one over ``new_width`` that does
    not depend on the added positions."""
    while width < new_width:
        mask |= mask << (1 << width)
        width += 1
    return mask


def is_valid(f: Formula) -> bool:
    """True iff ``f`` holds under every valuation of its free atoms."""
    return falsifying_valuation(f) is None


def entails(f: Formula, g: Formula) -> bool:
    return is_valid(Implies(f, g))


def equivalent(f: Formula, g: Formula) -> bool:
    return is_valid(Iff(f, g))


def falsifying_valuation(f: Formula) -> dict[str, bool] | None:
    """Some valuation making ``f`` false, or None when ``f`` is valid."""
    basis = free_atoms(f)
    false_at = _full_mask(len(basis)) ^ formula_mask(f, basis)
    if not false_at:
        return None
    return decode_valuation((false_at & -false_at).bit_length() - 1, basis)


def decode_valuation(index: int, basis: AtomSet) -> dict[str, bool]:
    return {name: bool((index >> i) & 1) for i, name in enumerate(basis)}


class TruthTable(Record):
    """Values of a formula under every valuation of an ordered basis."""

    __slots__ = __match_args__ = ("basis", "bits")
    basis: AtomSet
    bits: tuple[bool, ...]

    def __init__(self, basis: AtomSet, bits: tuple[bool, ...]) -> None:
        if list(basis) != sorted(set(basis)):
            raise ValueError("basis must be sorted and duplicate-free")
        if len(bits) != 1 << len(basis):
            raise ValueError("bits length must be 2^|basis|")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bits", bits)

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
    """A cover in ``irredundant_two_level_mask`` outgrew its literal budget."""


# A cube of ``irredundant_two_level_mask``: literal j (~j) says that the
# j-th atom of the split order is true (false).
_Cube = tuple[int, ...]


def irredundant_two_level_mask(
    mask: int, names: Sequence[str], patterns: Sequence[int]
) -> Formula:
    """Irredundant two-level form of the function with bitmask ``mask``,
    where position i of a valuation's index is the atom ``names[i]``.

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
    times the smaller.  The product of sums is not built when the sum
    of products mentions each of its atoms once, since every cover
    mentions each atom the function depends on.  The result mentions
    only atoms the function depends on, and no cube (clause) or
    literal of it can be dropped, so ``simplify`` returns it as it is.
    ``names`` must be distinct, and ``patterns`` holds the positions'
    atom masks (``atom_patterns``, possibly over a wider basis).

    A constant mask is ``false`` or ``true`` at once.  Otherwise the
    mask is first laid out in split order, by one delta swap per
    out-of-place position with selectors read off ``patterns``: the
    first atom of the split order goes to the top position, the next
    one below it, and so on.  Each split then takes ``top_cofactors``,
    so every level of the recursion works on masks of half the width
    of the level above, and positions that neither bound depends on
    are dropped from the top the same way.  ``_irredundant_two_level_masks``
    computes that layout once for several masks over the same names.
    """
    return _irredundant_two_level_masks((mask,), names, patterns)[0]


def _irredundant_two_level_masks(
    masks: Sequence[int | tuple[int, int]], names: Sequence[str], patterns: Sequence[int]
) -> list[Formula]:
    """``irredundant_two_level_mask`` of each of ``masks``, all over the
    positions of ``names``, where a pair ``(lower, upper)`` stands for
    some function between its bounds and a mask m for (m, m).  A pair
    gives ``false`` when lower = 0, ``true`` when upper = full; its
    negation is (~upper, ~lower).  A read-once sum of products skips the
    product of sums only when lower = upper: an interval's cover need
    not mention each atom its members depend on.  The split order and
    the delta-swap selectors are computed once, and not at all when
    every form is constant.  A literal node is built only for an atom
    some form uses, once for all the forms."""
    width = len(names)
    fulls = _FULLS if width < len(_FULLS) else [(1 << (1 << w)) - 1 for w in range(width + 1)]
    full = fulls[width]
    pairs = [m if type(m) is tuple else (m, m) for m in masks]
    if all(lower == 0 or upper == full for lower, upper in pairs):
        return [BOT if lower == 0 else TOP for lower, _ in pairs]
    order = sorted(range(width), key=names.__getitem__)
    swaps: list[tuple[int, int]] = []  # (selector, delta) of each delta swap
    held = list(range(width))  # held[p]: the position of ``names`` now at p
    top = width
    for want in order:
        top -= 1
        at = held.index(want)
        if at != top:
            # swap positions at < top: an index with bit at set and bit
            # top clear trades its value with the one delta above it
            select = patterns[at] & full
            select ^= select & patterns[top]
            swaps.append((select, (1 << top) - (1 << at)))
            held[at] = held[top]
    cubes: list[_Cube] = []
    spent = budget = 0

    def cover(lower: int, upper: int, w: int, prefix: _Cube) -> int:
        # An irredundant cover c with lower <= c <= upper, all masks
        # over the first w positions of the layout (the atoms not split
        # on yet), whose cubes, each after ``prefix``, are appended to
        # ``cubes``.  lower != 0, so
        # every call yields a cube or has a child with lower != 0, and
        # there are O(width * cubes) calls.
        nonlocal spent
        if upper == fulls[w]:
            spent += len(prefix)
            if spent > budget:
                raise _OverBudget
            cubes.append(prefix)
            return upper
        given = w
        while True:
            w -= 1
            shift = 1 << w
            l0, l1 = lower & fulls[w], lower >> shift
            u0, u1 = upper & fulls[w], upper >> shift
            if l0 != l1 or u0 != u1:
                break
            lower, upper = l0, u0
        j = width - 1 - w
        full_w = fulls[w]
        c0 = c1 = cr = 0
        below = l0 & (full_w ^ u1)
        if below:
            c0 = cover(below, u0, w, (*prefix, ~j))
        below = l1 & (full_w ^ u0)
        if below:
            c1 = cover(below, u1, w, (*prefix, j))
        below = (l0 & (full_w ^ c0)) | (l1 & (full_w ^ c1))
        if below:
            cr = cover(below, u0 & u1, w, prefix)
        c = c0 | cr | (c1 | cr) << shift
        w += 1
        while w < given:  # widen over the positions skipped above
            c |= c << (1 << w)
            w += 1
        return c

    def within(lower: int, upper: int, limit: int) -> list[_Cube] | None:
        # The cubes of the pair's cover, or None if it has over limit literals.
        nonlocal cubes, spent, budget
        cubes, spent, budget = [], 0, limit
        try:
            cover(lower, upper, width, ())
        except _OverBudget:
            return None
        return cubes

    literals: dict[int, Formula] = {}  # literal j of the split order, and ~j
    forms: list[Formula] = []
    for lower, upper in pairs:
        if lower == 0 or upper == full:
            forms.append(BOT if lower == 0 else TOP)
            continue
        exact = lower == upper
        for select, delta in swaps:  # both bounds, laid out alike
            t = (lower ^ lower >> delta) & select
            lower ^= t | t << delta
            if not exact:
                t = (upper ^ upper >> delta) & select
                upper ^= t | t << delta
        upper = lower if exact else upper
        limit = 64
        while True:
            ones = within(lower, upper, limit)
            if ones is not None:
                size = sum(map(len, ones))
                once = exact and size == len({j if j >= 0 else ~j for c in ones for j in c})
                zeros = None if once else within(full ^ upper, full ^ lower, size - 1)
                break
            zeros = within(full ^ upper, full ^ lower, limit)
            if zeros is not None:
                break
            limit *= 4
        # A cube of the negation, negated, is a clause: its literals flip.
        if zeros is None:
            terms, inner, outer, flip = ones, And, Or, 0
        else:
            terms, inner, outer, flip = zeros, Or, And, -1
        result = None
        for cube in terms:  # never empty, since the mask is not constant
            term = None
            for j in cube:
                j ^= flip
                node = literals.get(j)
                if node is None:
                    if j < 0:
                        atom = literals.get(~j)
                        if atom is None:
                            atom = literals[~j] = Atom(names[order[~j]])
                        node = Not(atom)
                    else:
                        node = Atom(names[order[j]])
                    literals[j] = node
                term = node if term is None else inner(term, node)
            result = term if result is None else outer(result, term)
        forms.append(result)
    return forms


def _not_rule(f: Formula) -> Formula | None:
    """``~f`` with a rule applied, or None when no rule fires."""
    t = type(f)
    if t is Top:
        return BOT
    if t is Bot:
        return TOP
    if t is Not:
        return f.operand
    return None


def _simp_not(f: Formula) -> Formula:
    g = _not_rule(f)
    return Not(f) if g is None else g


# Each binary rule gives the simplified node, or None when no rule fires.


def _and_rule(left: Formula, right: Formula) -> Formula | None:
    if type(left) is Bot or type(right) is Bot:
        return BOT
    if type(left) is Top:
        return right
    if type(right) is Top:
        return left
    if left == right:
        return left
    return None


def _or_rule(left: Formula, right: Formula) -> Formula | None:
    if type(left) is Top or type(right) is Top:
        return TOP
    if type(left) is Bot:
        return right
    if type(right) is Bot:
        return left
    if left == right:
        return left
    return None


def _implies_rule(left: Formula, right: Formula) -> Formula | None:
    if type(left) is Bot or type(right) is Top:
        return TOP
    if type(left) is Top:
        return right
    if type(right) is Bot:
        return _simp_not(left)
    if left == right:
        return TOP
    return None


def _iff_rule(left: Formula, right: Formula) -> Formula | None:
    if type(left) is Top:
        return right
    if type(right) is Top:
        return left
    if type(left) is Bot:
        return _simp_not(right)
    if type(right) is Bot:
        return _simp_not(left)
    if left == right:
        return TOP
    return None


_BINARY_RULES = {And: _and_rule, Or: _or_rule, Implies: _implies_rule, Iff: _iff_rule}


def simplify(f: Formula) -> Formula:
    """Equivalent formula with constants absorbed, double negations
    removed and structurally equal operands of ``&``/``|`` merged.

    No minimality is promised; the rewriting is purely local.  A node
    that no rule changes, and whose children come back unchanged, is
    returned as it is.
    """
    return _simplify(f, False)[0]


def _simplify(f: Formula, track: bool) -> tuple[Formula, frozenset[str] | None]:
    """``simplify`` of ``f``, with the result's free atoms when ``track``
    is set, as in a quantifier's body.  A rule that drops an operand
    drops a constant or a copy of the other, so only a constant result
    loses free atoms."""
    t = type(f)
    if t is Atom:
        return f, frozenset((f.name,)) if track else None
    if t is Not:
        operand, free = _simplify(f.operand, track)
        g = _not_rule(operand)
        if g is None:
            g = f if operand is f.operand else Not(operand)
        return g, free
    rule = _BINARY_RULES.get(t)
    if rule is not None:
        left, free = _simplify(f.left, track)
        right, right_free = _simplify(f.right, track)
        g = rule(left, right)
        if g is None:
            g = f if left is f.left and right is f.right else t(left, right)
        if track:
            constant = type(g) is Top or type(g) is Bot
            free = frozenset() if constant else free | right_free
        return g, free
    if t is Exists or t is Forall:
        body, free = _simplify(f.body, True)
        if f.var not in free:
            return body, free if track else None
        g = f if body is f.body else t(f.var, body)
        return g, free - {f.var} if track else None
    return f, frozenset() if track else None
