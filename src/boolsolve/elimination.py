"""Quantifier elimination on nullary atoms, as views of the solver core.

Every function here lays its formula out through ``solve._stage_masks``,
the package's one phase 1, with the atoms to eliminate as the unknowns:
their existential quantification is stage 0, and their universal one is
the AND of the two halves of the formula's mask, one position at a
time.  On top of that the module computes weakest preconditions
(``exists ps . f`` in canonical form, ``solve.precondition`` of the
problem with unknowns ``ps``), decides dependence on a set of atoms (the
two quantifications differ) and projects a formula onto a vocabulary
(uniform interpolation), refusing with ``NotIndependent`` when the
formula depends on an atom it would drop.  A projection prints as the
weakest precondition of its dropped atoms does, from the mask.
Elimination witnesses are the upper bounds of the solver core
(``solve.solve_by_witnesses``).
"""

from __future__ import annotations

from typing import Sequence

from .formula import AtomSet, BoolsolveError, Formula, free_atoms
from .semantics import decode_valuation, irredundant_two_level_mask, top_cofactors
from .solve import SolutionProblem, _stage_masks, precondition


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


def _quantified(
    f: Formula, atoms: AtomSet, dropped: AtomSet
) -> tuple[AtomSet, list[int], int, int, int]:
    """``f``, whose free atoms are ``atoms``, laid out by ``_stage_masks``
    with the ``dropped`` atoms as the unknowns, after its other atoms in
    sorted order.  Returns those kept atoms, the positions' atom masks,
    the formula's mask and its existential and universal quantification
    over the dropped positions, as masks over the kept positions."""
    kept, stages, patterns = _stage_masks(SolutionProblem(f, dropped, _free=atoms))
    every = mask = stages[-1]
    for width in range(len(atoms), len(kept), -1):
        zero, one = top_cofactors(every, width)
        every = zero & one
    return kept, patterns, mask, stages[0], every


def depends_on(ps: Sequence[str], f: Formula) -> bool:
    """Whether ``f`` semantically depends on any of the atoms ``ps``:
    whether its existential and universal quantifications over them
    differ."""
    atoms = free_atoms(f)
    *_, some, every = _quantified(f, atoms, tuple(a for a in atoms if a in ps))
    return some != every


def weakest_precondition(ps: Sequence[str], f: Formula) -> Formula:
    """Canonical form of ``exists ps . f``: ``solve.precondition`` of the
    problem whose unknowns are the atoms of ``ps`` free in ``f``, repeats
    dropped, so a name absent from ``f`` adds no position to the mask."""
    atoms = free_atoms(f)
    unknowns = [p for p in dict.fromkeys(ps) if p in atoms]
    return precondition(SolutionProblem(f, unknowns, _free=atoms))


def project_vocabulary(f: Formula, keep: Sequence[str]) -> Formula:
    """Equivalent formula whose free atoms all lie in ``keep``.

    The mask of ``f`` spans its kept free atoms, then the dropped ones,
    each group sorted.  Quantifying the dropped positions existentially
    and universally (``_quantified``) gives two masks over the kept
    positions, and ``f`` is independent of the dropped atoms iff they
    are equal.  Then the irredundant two-level form of that mask is
    returned, the text ``weakest_precondition`` gives for the dropped
    atoms; with nothing dropped it is the form of ``f``'s own mask.

    Otherwise raises NotIndependent with a pair of valuations that
    differ only on dropped atoms: at the lowest kept valuation where the
    two masks differ, the first flip of the value as the dropped atoms
    count up in binary from all false, and the valuation just before it.
    """
    atoms = free_atoms(f)
    keep_set = set(keep)
    dropped = tuple(a for a in atoms if a not in keep_set)
    kept, patterns, mask, some, every = _quantified(f, atoms, dropped)
    if some == every:
        return irredundant_two_level_mask(some, kept, patterns)
    order = kept + dropped
    diff = some ^ every
    start = (diff & -diff).bit_length() - 1
    full = (1 << (1 << len(order))) - 1
    fiber = full  # the valuations that agree with start on the kept atoms
    for at in range(len(kept)):
        fiber &= patterns[at] if (start >> at) & 1 else full ^ patterns[at]
    value = (mask >> start) & 1
    flipped = fiber & (full ^ mask if value else mask)
    after = (flipped & -flipped).bit_length() - 1
    before = (fiber & ((1 << after) - 1)).bit_length() - 1
    false_at, true_at = (after, before) if value else (before, after)
    raise NotIndependent(
        ", ".join(dropped),
        tuple(dict(sorted(decode_valuation(i, order).items())) for i in (false_at, true_at)),
    )
