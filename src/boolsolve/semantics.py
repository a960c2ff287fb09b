"""Exact semantics: evaluation, validity, truth tables, canonical forms.

Validity is decided by expansion over the free atoms.  Internally a
formula is evaluated to a bitmask holding its value under every
valuation of an atom basis at once, which keeps exhaustive checks cheap
at desk scale.  A quantifier takes the OR or AND of the cofactors of its
bound atom: a lone quantifier walks its body once per value of the
atom, and a nest of them is walked once, each binder on a bit slot of
its own above the basis (``formula_mask``).  A basis spans at most
``MAX_MASK_ATOMS`` atoms; ``atom_patterns`` refuses a wider one with
``BudgetExceeded``.

Truth-table encoding (fixed so golden outputs are portable): the basis
is sorted ascending, atom ``i`` of the basis contributes bit ``i`` of a
valuation's index, and ``bits[index]`` is the formula's value there.
The text form prints index 0 leftmost.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .formula import (
    BINARY,
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


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of ``f`` under a valuation covering its free atoms;
    a free atom the valuation misses raises ``UnboundAtom``."""
    patterns = {name: int(bool(value)) for name, value in valuation.items()}
    return formula_mask(f, (), patterns) == 1


def atom_patterns(basis: AtomSet) -> dict[str, int]:
    """Per-atom bitmasks over all valuations of ``basis``.

    Atom ``i`` is true exactly at indices with bit ``i`` set.  The top
    atom's mask is the upper half of the indices; each lower mask comes
    from the one above it as ``p_i = p_{i+1} ^ (p_{i+1} >> 2^i)``, since
    adding 2^i to an index flips its bit i+1 exactly when its bit i is
    set.  The dict is keyed in basis order before the masks are filled
    in, top atom first.  A basis wider than ``MAX_MASK_ATOMS`` raises
    ``BudgetExceeded`` before any mask is built; every bitmask of the
    package starts here.
    """
    if len(basis) > MAX_MASK_ATOMS:
        raise BudgetExceeded(
            f"{len(basis)} atoms exceed the truth-table cap of {MAX_MASK_ATOMS} "
            f"atoms ({1 << (MAX_MASK_ATOMS - 23)} MB per mask)"
        )
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


def formula_mask(f: Formula, basis: AtomSet, patterns: dict[str, int] | None = None) -> int:
    """Bitmask of ``f`` over all valuations of ``basis``.

    ``patterns`` maps every atom that occurs free in ``f`` to its mask
    over the basis; it defaults to ``atom_patterns(basis)``.  With k
    basis atoms, a quantifier whose body holds no quantifier is the OR
    (exists) or AND (forall) of its body walked with the binder false
    and with it true.  A quantifier whose body holds another one heads
    a nest of depth d, which is walked once at width k + d: the binder
    at nesting depth j takes the bit slot k + j above the basis and is
    quantified by the OR or AND of that slot's ``cofactors``, and the
    nest's mask, free of every slot, is cut back to the basis.  While
    k + d exceeds ``MAX_MASK_ATOMS``, the nest's outer binder is walked
    per cofactor instead, so nesting never makes a formula too wide.
    """
    if patterns is None:
        patterns = atom_patterns(basis)
    return _walker(len(basis), len(basis))(f, patterns)


def _quantifier_depth(f: Formula) -> int:
    """How deep the quantifiers of ``f`` nest; 0 when it has none."""
    t = type(f)
    if t is Not:
        return _quantifier_depth(f.operand)
    if t in BINARY:
        return max(_quantifier_depth(f.left), _quantifier_depth(f.right))
    if t is Exists or t is Forall:
        return 1 + _quantifier_depth(f.body)
    return 0


def _walker(width: int, first_slot: int) -> Callable[[Formula, dict[str, int]], int]:
    """``formula_mask``'s walk at ``width`` positions, given the mask of
    every free atom.  Positions ``first_slot`` on are the bit slots of a
    nest, where the binder at nesting depth j takes slot
    ``first_slot + j``.  Without slots (``first_slot == width``) each
    quantifier is walked per cofactor or heads a nest of its own."""
    full = (1 << (1 << width)) - 1
    # slot p's mask: the upper half of the indices over p + 1 positions, widened
    slot_masks = [
        widen(((1 << (1 << p)) - 1) << (1 << p), p + 1, width) for p in range(first_slot, width)
    ]
    free_slot = first_slot

    def walk(g: Formula, values: dict[str, int]) -> int:
        t = type(g)
        if t is Atom:
            try:
                return values[g.name]
            except KeyError:
                raise UnboundAtom(g.name) from None
        if t is Not:
            return full ^ walk(g.operand, values)
        if t is And:
            return walk(g.left, values) & walk(g.right, values)
        if t is Or:
            return walk(g.left, values) | walk(g.right, values)
        if t is Implies:
            return (full ^ walk(g.left, values)) | walk(g.right, values)
        if t is Iff:
            return full ^ walk(g.left, values) ^ walk(g.right, values)
        if t is Top:
            return full
        if t is Bot:
            return 0
        if t is Exists or t is Forall:
            return quantified(g, values, t is Exists)
        raise TypeError(f"not a formula: {g!r}")

    def quantified(g: Exists | Forall, values: dict[str, int], existential: bool) -> int:
        nonlocal free_slot
        if free_slot < width:
            position = free_slot
            pattern = slot_masks[position - first_slot]
            free_slot += 1
            mask = walk(g.body, {**values, g.var: pattern})
            free_slot -= 1
            zero, one = cofactors(mask, position, pattern)
        else:
            depth = 1 + _quantifier_depth(g.body)
            if depth > 1 and width + depth <= MAX_MASK_ATOMS:
                wide = width + depth
                widened = {name: widen(m, width, wide) for name, m in values.items()}
                return _walker(wide, width)(g, widened) & full
            zero = walk(g.body, {**values, g.var: 0})
            one = walk(g.body, {**values, g.var: full})
        return zero | one if existential else zero & one

    return walk


def top_cofactors(mask: int, width: int) -> tuple[int, int]:
    """Cofactors, false then true, of a mask over ``width`` positions at
    its last position; each is a mask over the first ``width - 1``."""
    half = 1 << (width - 1)
    return mask & ((1 << half) - 1), mask >> half


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
    basis = free_atoms(f)
    return formula_mask(f, basis) == (1 << (1 << len(basis))) - 1


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


# _FULLS[w]: the mask of every valuation over w positions, for the
# widths most covers have; wider covers build their own list.
_FULLS = tuple((1 << (1 << w)) - 1 for w in range(17))


def _irredundant_two_level_masks(
    masks: Sequence[int], names: Sequence[str], patterns: Sequence[int]
) -> list[Formula]:
    """``irredundant_two_level_mask`` of each of ``masks``, all over the
    positions of ``names``.  The split order and the delta-swap
    selectors are computed once, and not at all when every mask is
    constant.  A literal node is built only for an atom some form
    uses, once for all the forms."""
    width = len(names)
    fulls = _FULLS if width < len(_FULLS) else [(1 << (1 << w)) - 1 for w in range(width + 1)]
    full = fulls[width]
    if all(m == 0 or m == full for m in masks):
        return [BOT if m == 0 else TOP for m in masks]
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

    def within(target: int, limit: int) -> list[_Cube] | None:
        # The cubes of target's cover, or None if it has over limit literals.
        nonlocal cubes, spent, budget
        cubes, spent, budget = [], 0, limit
        try:
            cover(target, target, width, ())
        except _OverBudget:
            return None
        return cubes

    literals: dict[int, Formula] = {}  # literal j of the split order, and ~j
    forms: list[Formula] = []
    for mask in masks:
        if mask == 0 or mask == full:
            forms.append(BOT if mask == 0 else TOP)
            continue
        for select, delta in swaps:
            t = (mask ^ mask >> delta) & select
            mask ^= t | t << delta
        limit = 64
        while True:
            ones = within(mask, limit)
            if ones is not None:
                size = sum(map(len, ones))
                once = size == len({j if j >= 0 else ~j for c in ones for j in c})
                zeros = None if once else within(full ^ mask, size - 1)
                break
            zeros = within(full ^ mask, limit)
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
