"""Property tests of the two-level cover over drawn masks and layouts."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import semantics_reference
from boolsolve import And, Atom, BOT, Not, Or, TOP, free_atoms
from boolsolve.semantics import (
    _irredundant_two_level_masks,
    atom_patterns,
    cofactors,
    formula_mask,
    irredundant_two_level_mask,
    simplify,
)

NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


@st.composite
def masks(draw):
    """A mask over up to 8 atoms, laid out in a drawn order."""
    width = draw(st.integers(0, len(NAMES)))
    layout = tuple(draw(st.permutations(NAMES))[:width])
    return draw(st.integers(0, (1 << (1 << width)) - 1)), layout


def _terms(g, op):
    if type(g) is op:
        return _terms(g.left, op) + _terms(g.right, op)
    return [g]


def _irredundant(g, outer, patterns, full, lower, upper):
    # g read as an outer-combination of terms, each an inner-combination
    # of literals: no term and no literal of a term can be dropped while
    # g's mask stays in [lower, upper].
    inner = And if outer is Or else Or

    def fold(values, op):
        out = full if op is And else 0
        for v in values:
            out = out & v if op is And else out | v
        return out

    def literal(x):
        if type(x) is Not and type(x.operand) is Atom:
            return full ^ patterns[x.operand.name]
        if type(x) is not Atom:
            raise TypeError("not a literal")
        return patterns[x.name]

    try:
        terms = [[literal(x) for x in _terms(t, inner)] for t in _terms(g, outer)]
    except TypeError:  # g is not of this shape
        return False

    def within(mask):
        return not lower & ~mask and not mask & ~upper

    for i, term in enumerate(terms):
        others = [fold(t, inner) for t in terms[:i] + terms[i + 1 :]]
        if within(fold(others, outer)):
            return False
        for j in range(len(term)):
            shortened = fold(term[:j] + term[j + 1 :], inner)
            if within(fold([*others, shortened], outer)):
                return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masks())
def test_cover_properties(drawn):
    mask, layout = drawn
    patterns = atom_patterns(layout)
    full = (1 << (1 << len(layout))) - 1
    shown = irredundant_two_level_mask(mask, layout, list(patterns.values()))
    assert formula_mask(shown, layout, patterns) == mask
    depends = {
        x for i, x in enumerate(layout) if len(set(cofactors(mask, i, patterns[x]))) == 2
    }
    assert set(free_atoms(shown)) == depends
    if shown not in (TOP, BOT):
        assert _irredundant(shown, Or, patterns, full, mask, mask) or _irredundant(
            shown, And, patterns, full, mask, mask
        )
    reference = semantics_reference.irredundant_two_level_mask(
        mask, layout, list(patterns.values())
    )
    assert shown == reference


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masks())
def test_cover_is_simplified(drawn):
    # A cover has no constant below its root, no double negation and no
    # repeated operand, so simplify returns the very object.
    mask, layout = drawn
    shown = irredundant_two_level_mask(mask, layout, list(atom_patterns(layout).values()))
    assert simplify(shown) is shown


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(masks(), st.data())
def test_shared_layout_gives_the_one_mask_forms(drawn, data):
    # Several masks laid out once give exactly the forms of one call per
    # mask, and those equal the reference's.
    mask, layout = drawn
    patterns = list(atom_patterns(layout).values())
    full = (1 << (1 << len(layout))) - 1
    others = data.draw(st.lists(st.integers(0, full), max_size=3))
    several = [mask, *others, mask]
    shown = _irredundant_two_level_masks(several, layout, patterns)
    assert shown == [irredundant_two_level_mask(m, layout, patterns) for m in several]
    assert shown == [
        semantics_reference.irredundant_two_level_mask(m, layout, patterns) for m in several
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masks(), st.data())
def test_interval_cover_properties(drawn, data):
    # A pair (lower, upper) prints the reference's form of a function in
    # its interval, from which no cube (clause) or literal can be dropped
    # while the function stays in the interval; a pair with lower = upper
    # prints what its plain mask prints.
    mask, layout = drawn
    patterns = atom_patterns(layout)
    positions = list(patterns.values())
    full = (1 << (1 << len(layout))) - 1
    other = data.draw(st.integers(0, full))
    lower, upper = mask & other, mask | other
    shown = _irredundant_two_level_masks([(lower, upper)], layout, positions)[0]
    assert shown == semantics_reference.irredundant_two_level_mask(
        (lower, upper), layout, positions
    )
    got = formula_mask(shown, layout, patterns)
    assert not lower & ~got and not got & ~upper
    if shown not in (TOP, BOT):
        assert _irredundant(shown, Or, patterns, full, lower, upper) or _irredundant(
            shown, And, patterns, full, lower, upper
        )
    assert _irredundant_two_level_masks([(mask, mask)], layout, positions) == [
        irredundant_two_level_mask(mask, layout, positions)
    ]


def test_read_once_shortcut_needs_an_exact_mask():
    # The sum of products of this interval, ~a & ~b | c & ~d, is read
    # once, yet the product of sums of its negation's pair is smaller:
    # an interval's cover need not mention each atom its members depend on.
    layout = ("a", "b", "c", "d")
    positions = list(atom_patterns(layout).values())
    pair = (0b100100000, 0b1101000111110111)
    shown = _irredundant_two_level_masks([pair], layout, positions)[0]
    assert str(shown) == "(~a | ~d) & ~b"
    assert shown == semantics_reference.irredundant_two_level_mask(pair, layout, positions)
