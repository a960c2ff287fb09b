"""Quantifier elimination on nullary atoms, read off truth tables.

Every function here evaluates its formula once to a bitmask over its
free atoms and eliminates an atom by combining the two cofactors of
that mask at the atom's position: OR for ``exists``, AND for
``forall``.  On top of that the module decides dependence on a set of
atoms, computes weakest preconditions (``exists ps . f`` in canonical
form) and projects a formula onto a vocabulary (uniform interpolation),
refusing with ``NotIndependent`` when the formula depends on an atom it
would drop.  Elimination witnesses are the upper bounds of the solver
core (``solve.solve_by_witnesses``).
"""

from __future__ import annotations

from typing import Sequence

from .formula import BOT, BoolsolveError, Formula, free_atoms, substitute
from .semantics import (
    atom_patterns,
    cofactors,
    decode_valuation,
    existential_stages,
    formula_mask,
    irredundant_two_level_mask,
    simplify,
    top_cofactors,
)


class NotIndependent(BoolsolveError):
    """A formula semantically depends on an atom outside the kept set.

    Carries a pair of valuations differing only on dropped atoms on
    which the formula takes different values.
    """

    def __init__(self, atom_hint: str, counterexample: tuple[dict, dict]):
        self.counterexample = counterexample
        v1, v2 = counterexample
        super().__init__(
            f"depends on a dropped atom ({atom_hint}): "
            f"value differs between {v1} and {v2}"
        )


def depends_on(ps: Sequence[str], f: Formula) -> bool:
    """Whether ``f`` semantically depends on any of the atoms ``ps``:
    whether the two cofactors of its mask differ at one of them."""
    basis = free_atoms(f)
    patterns = atom_patterns(basis)
    mask = formula_mask(f, basis, patterns)
    for i, name in enumerate(basis):
        if name in ps:
            zero, one = cofactors(mask, i, patterns[name])
            if zero != one:
                return True
    return False


def weakest_precondition(ps: Sequence[str], f: Formula) -> Formula:
    """Canonical form of ``exists ps . f``: the weakest antecedent under
    which the problem with unknowns ``ps`` becomes solvable.

    The mask of ``f`` spans its sorted base atoms, then the atoms of
    ``ps`` it mentions; those last positions are eliminated by OR of
    the two halves of the mask, as stage 0 of successive elimination is
    built.  The result is the irredundant two-level form of stage 0, so
    it mentions only atoms it depends on, and equivalent inputs print
    the same text.
    """
    atoms = free_atoms(f)
    base = tuple(a for a in atoms if a not in ps)
    basis = base + tuple(dict.fromkeys(p for p in ps if p in atoms))
    patterns = atom_patterns(basis)
    mask = formula_mask(f, basis, patterns)
    stage0 = existential_stages(mask, len(basis), len(base))[0]
    return irredundant_two_level_mask(stage0, base, list(patterns.values()))


def project_vocabulary(f: Formula, keep: Sequence[str]) -> Formula:
    """Equivalent formula whose free atoms all lie in ``keep``.

    The mask of ``f`` spans its kept free atoms, then the dropped ones,
    each group sorted.  Quantifying the dropped positions existentially
    (OR of the two halves of the mask) and universally (AND) gives two
    masks over the kept positions, and ``f`` is independent of the
    dropped atoms iff they are equal.  Then ``f`` with every dropped
    atom replaced by ``false`` is equivalent to it, and its simplified
    form is returned, never larger than ``f``.  With nothing dropped
    ``f`` itself is returned.

    Otherwise raises NotIndependent with a pair of valuations that
    differ only on dropped atoms: at the lowest kept valuation where the
    two masks differ, the first flip of the value as the dropped atoms
    count up in binary from all false, and the valuation just before it.
    """
    atoms = free_atoms(f)
    keep_set = set(keep)
    kept = tuple(a for a in atoms if a in keep_set)
    dropped = tuple(a for a in atoms if a not in keep_set)
    if not dropped:
        return f
    order = kept + dropped
    patterns = atom_patterns(order)
    mask = formula_mask(f, order, patterns)
    some = every = mask
    for width in range(len(order), len(kept), -1):
        zero, one = top_cofactors(some, width)
        some = zero | one
        zero, one = top_cofactors(every, width)
        every = zero & one
    if some == every:
        return simplify(substitute(f, dropped, [BOT] * len(dropped)))
    diff = some ^ every
    start = (diff & -diff).bit_length() - 1
    full = (1 << (1 << len(order))) - 1
    fiber = full  # the valuations that agree with start on the kept atoms
    for at, a in enumerate(kept):
        fiber &= patterns[a] if (start >> at) & 1 else full ^ patterns[a]
    value = (mask >> start) & 1
    flipped = fiber & (full ^ mask if value else mask)
    after = (flipped & -flipped).bit_length() - 1
    before = (fiber & ((1 << after) - 1)).bit_length() - 1
    false_at, true_at = (after, before) if value else (before, after)
    raise NotIndependent(
        ", ".join(dropped),
        tuple(dict(sorted(decode_valuation(i, order).items())) for i in (false_at, true_at)),
    )
