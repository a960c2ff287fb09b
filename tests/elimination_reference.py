"""Reference quantifier elimination and witness constructions on formulas.

The package eliminates atoms on truth tables only.  This module keeps
the formula-level code it replaced, as the tests' reference:

- Shannon elimination (``shannon_eliminate``, ``forall_eliminate``,
  ``eliminate_all``), and on top of it vocabulary projection,
  weakest preconditions printed as the canonical full DNF, and
  dependence tests;
- the paper's elimination witnesses: the self-substituted true cofactor
  (``elim_witness``), the positive Ackermann rewriting
  (``ackermann_rewrite``), and per-disjunct witnesses of a DNF combined
  into one (``ehw_combine``, ``elim_witness_dnf``), with the syntactic
  polarity classification (``polarity_of``) and quantifier test
  (``has_quantifier``) they use.

The differential tests require the package to agree with these, and the
witness laws of acceptance criterion 7 run against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    BoolsolveError,
    Exists,
    Formula,
    Iff,
    Implies,
    Not,
    NotIndependent,
    Or,
    clean_variant,
    conj,
    equivalent,
    formula_from_table,
    free_atoms,
    simplify,
    truth_table,
)
from boolsolve.formula import BINARY, QUANT
from boolsolve.semantics import decode_valuation, formula_mask, minterm
from formula_reference import is_substitutible, substitute

DNF_MINTERM_CUTOFF = 12


@dataclass(frozen=True)
class WitnessResult:
    """An eliminated atom with its witness and the substituted residue."""

    witness: Formula
    eliminated: str
    residue: Formula


@dataclass(frozen=True)
class DisjunctWitnesses:
    """Per-disjunct elimination witnesses, aligned by position."""

    disjuncts: tuple[Formula, ...]
    witnesses: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if len(self.disjuncts) != len(self.witnesses):
            raise ValueError("disjuncts and witnesses differ in length")


class InvalidDisjunctWitness(BoolsolveError):
    pass


def has_quantifier(f: Formula) -> bool:
    t = type(f)
    if t in QUANT:
        return True
    if t is Not:
        return has_quantifier(f.operand)
    if t in BINARY:
        return has_quantifier(f.left) or has_quantifier(f.right)
    return False


class Polarity(Enum):
    POSITIVE_ONLY = "positive"
    NEGATIVE_ONLY = "negative"
    BOTH = "both"
    ABSENT = "absent"


def polarity_of(f: Formula, atom: str) -> Polarity:
    """Classify the free occurrences of ``atom`` in ``f``.

    Implications flip the sign of their antecedent; any free occurrence
    under a biconditional counts as both polarities.
    """
    signs: set[int] = set()

    def walk(g: Formula, sign: int | None) -> None:
        # sign: +1 positive, -1 negative, None = occurrence counts as both
        t = type(g)
        if t is Atom:
            if g.name == atom:
                if sign is None:
                    signs.update((1, -1))
                else:
                    signs.add(sign)
        elif t is Not:
            walk(g.operand, None if sign is None else -sign)
        elif t is And or t is Or:
            walk(g.left, sign)
            walk(g.right, sign)
        elif t is Implies:
            walk(g.left, None if sign is None else -sign)
            walk(g.right, sign)
        elif t is Iff:
            walk(g.left, None)
            walk(g.right, None)
        elif t in QUANT:
            if g.var != atom:
                walk(g.body, sign)

    walk(f, 1)
    if not signs:
        return Polarity.ABSENT
    if signs == {1}:
        return Polarity.POSITIVE_ONLY
    if signs == {-1}:
        return Polarity.NEGATIVE_ONLY
    return Polarity.BOTH


def shannon_eliminate(p: str, f: Formula) -> Formula:
    """Formula equivalent to ``exists p . f`` with ``p`` eliminated."""
    return simplify(Or(substitute(f, [p], [TOP]), substitute(f, [p], [BOT])))


def forall_eliminate(p: str, f: Formula) -> Formula:
    """Formula equivalent to ``forall p . f`` with ``p`` eliminated."""
    return simplify(And(substitute(f, [p], [TOP]), substitute(f, [p], [BOT])))


def eliminate_all(ps: Sequence[str], f: Formula) -> Formula:
    """Eliminate ``exists ps . f`` one atom at a time, last atom first."""
    for p in reversed(ps):
        f = shannon_eliminate(p, f)
    return f


def weakest_precondition(ps: Sequence[str], f: Formula) -> Formula:
    """``exists ps . f`` as the full DNF over the free atoms left after
    formula elimination."""
    eliminated = eliminate_all(ps, f)
    return formula_from_table(truth_table(eliminated, free_atoms(eliminated)))


def depends_on(ps: Sequence[str], f: Formula) -> bool:
    """Whether eliminating the atoms of ``ps`` changes ``f``."""
    dropped = tuple(sorted(set(free_atoms(f)) & set(ps)))
    return bool(dropped) and not equivalent(eliminate_all(dropped, f), f)


def project_vocabulary(f: Formula, keep: Sequence[str]) -> Formula:
    """Equivalent formula whose free atoms all lie in ``keep``: the
    dropped atoms eliminated by Shannon expansion, and kept when the
    result is equivalent to ``f``.

    Otherwise raises NotIndependent with the first pair of valuations,
    scanning the kept valuations and then the dropped patterns in
    ascending order, on which the value differs.
    """
    kept = set(keep)
    dropped = tuple(sorted(set(free_atoms(f)) - kept))
    projected = eliminate_all(dropped, f)
    if equivalent(projected, f):
        return projected
    basis = free_atoms(f)
    mask = formula_mask(f, basis)
    drop_positions = [i for i, a in enumerate(basis) if a in dropped]
    for idx in range(1 << len(basis)):
        if any((idx >> i) & 1 for i in drop_positions):
            continue
        found_true = found_false = None
        for pattern in range(1 << len(drop_positions)):
            idx2 = idx
            for k, i in enumerate(drop_positions):
                if (pattern >> k) & 1:
                    idx2 |= 1 << i
            if (mask >> idx2) & 1:
                found_true = idx2
            else:
                found_false = idx2
            if found_true is not None and found_false is not None:
                raise NotIndependent(
                    ", ".join(dropped),
                    (
                        decode_valuation(found_false, basis),
                        decode_valuation(found_true, basis),
                    ),
                )
    raise AssertionError("unreachable: non-equivalence implies a mixed fiber")


def elim_witness(p: str, f: Formula) -> WitnessResult:
    """Witness via self-substitution of the true cofactor.

    ``exists p . F`` is equivalent to ``F[p := F[p := true]]`` for
    nullary ``p``; a clean variant is taken first so the substitution
    cannot capture.
    """
    body = clean_variant(f)
    witness = simplify(substitute(body, [p], [TOP]))
    residue = simplify(substitute(body, [p], [witness]))
    return WitnessResult(witness, p, residue)


def ackermann_rewrite(p: str, f: Formula) -> WitnessResult | None:
    """Witness by the positive Ackermann rewriting, when the shape fits.

    Applies to ``(g -> p) & rest`` with ``p`` not free in ``g`` and only
    negative (or no) free occurrences of ``p`` in ``rest``; the witness
    is ``g`` and the residue ``rest[p := g]``.  Returns None otherwise.
    """
    if not isinstance(f, And):
        return None
    head, rest = f.left, f.right
    if not (isinstance(head, Implies) and head.right == Atom(p)):
        return None
    g = head.left
    if p in free_atoms(g):
        return None
    if polarity_of(rest, p) not in (Polarity.NEGATIVE_ONLY, Polarity.ABSENT):
        return None
    if not is_substitutible([g], [p], rest):
        return None
    residue = simplify(substitute(rest, [p], [g]))
    return WitnessResult(g, p, residue)


def ehw_combine(p: str, dw: DisjunctWitnesses) -> Formula:
    """Combine per-disjunct witnesses into one witness for the disjunction.

    With disjuncts F_i and witnesses G_i the combined witness is the
    conjunction over i of:  (no earlier F_j[G_j] holds) and F_i[G_i]
    implies G_i.  The result is a witness for ``p`` in the disjunction
    of all F_i.
    """
    residues: list[Formula] = []
    for i, (d, w) in enumerate(zip(dw.disjuncts, dw.witnesses)):
        if p in free_atoms(w):
            raise InvalidDisjunctWitness(f"witness {i} contains the eliminated atom {p}")
        if not is_substitutible([w], [p], d):
            raise InvalidDisjunctWitness(f"witness {i} is not substitutible in its disjunct")
        r = simplify(substitute(d, [p], [w]))
        if not equivalent(Exists(p, d), r):
            raise InvalidDisjunctWitness(
                f"witness {i} does not eliminate {p} from its disjunct"
            )
        residues.append(r)
    parts: list[Formula] = []
    for i, w in enumerate(dw.witnesses):
        guard = conj([Not(residues[j]) for j in range(i)] + [residues[i]])
        parts.append(Implies(guard, w))
    return simplify(conj(parts))


def to_dnf(f: Formula, minterm_cutoff: int = DNF_MINTERM_CUTOFF) -> list[Formula]:
    """Disjuncts of a disjunctive normal form of ``f``.

    Uses truth-table minterm expansion up to ``minterm_cutoff`` free
    atoms, distributive rewriting beyond that.  An unsatisfiable formula
    yields the empty list.
    """
    basis = free_atoms(f)
    if len(basis) <= minterm_cutoff:
        mask = formula_mask(f, basis)
        return [minterm(i, basis) for i in range(1 << len(basis)) if (mask >> i) & 1]
    if has_quantifier(f):
        raise ValueError("distributive DNF requires a quantifier-free formula")
    return _distribute_dnf(f)


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, Not):
        return _nnf(f.operand, not negate)
    if isinstance(f, And):
        op = Or if negate else And
        return op(_nnf(f.left, negate), _nnf(f.right, negate))
    if isinstance(f, Or):
        op = And if negate else Or
        return op(_nnf(f.left, negate), _nnf(f.right, negate))
    if isinstance(f, Implies):
        if negate:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if negate:
            return Or(
                And(_nnf(f.left, False), _nnf(f.right, True)),
                And(_nnf(f.left, True), _nnf(f.right, False)),
            )
        return Or(
            And(_nnf(f.left, False), _nnf(f.right, False)),
            And(_nnf(f.left, True), _nnf(f.right, True)),
        )
    return simplify(Not(f)) if negate else f


def _distribute_dnf(f: Formula) -> list[Formula]:
    def walk(g: Formula) -> list[Formula]:
        if isinstance(g, Or):
            return walk(g.left) + walk(g.right)
        if isinstance(g, And):
            return [
                simplify(And(l, r)) for l in walk(g.left) for r in walk(g.right)
            ]
        return [g]

    return [d for d in walk(_nnf(f, False)) if d != BOT]


def elim_witness_dnf(p: str, f: Formula, minterm_cutoff: int = DNF_MINTERM_CUTOFF) -> WitnessResult:
    """Witness assembled from a DNF of ``f``.

    Per disjunct the witness is ``true`` when ``p`` occurs only
    positively or not at all, else ``false`` (a mixed-polarity conjunct
    is unsatisfiable, so any value works); the pieces are combined with
    ``ehw_combine``.
    """
    disjuncts = to_dnf(f, minterm_cutoff)
    witnesses: list[Formula] = []
    for d in disjuncts:
        pol = polarity_of(d, p)
        witnesses.append(
            TOP if pol in (Polarity.POSITIVE_ONLY, Polarity.ABSENT) else BOT
        )
    combined = ehw_combine(p, DisjunctWitnesses(tuple(disjuncts), tuple(witnesses)))
    residue = simplify(substitute(clean_variant(f), [p], [combined]))
    return WitnessResult(combined, p, residue)
