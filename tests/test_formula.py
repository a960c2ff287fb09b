import random

import pytest

from boolsolve import (
    Atom,
    Exists,
    Forall,
    Iff,
    Not,
    NotSubstitutible,
    Or,
    And,
    clean_variant,
    equivalent,
    exists,
    forall,
    free_atoms,
    is_substitutible,
    parse,
    substitute,
    truth_table,
)
from elimination_reference import Polarity, polarity_of
from genutil import QUANT_POOL, random_formula


def test_free_atoms():
    assert free_atoms(parse("a & exists p . (p | b)")) == ("a", "b")
    assert free_atoms(parse("exists p . p")) == ()
    assert free_atoms(parse("p | exists p . p")) == ("p",)


def test_polarity():
    assert polarity_of(parse("p -> a"), "p") == Polarity.NEGATIVE_ONLY
    assert polarity_of(parse("p <-> a"), "p") == Polarity.BOTH
    assert polarity_of(parse("a | b"), "p") == Polarity.ABSENT
    assert polarity_of(parse("~(a -> p)"), "p") == Polarity.NEGATIVE_ONLY
    assert polarity_of(parse("~~p & (p -> b)"), "p") == Polarity.BOTH
    # bound occurrences do not count
    assert polarity_of(parse("exists p . ~p"), "p") == Polarity.ABSENT
    assert polarity_of(parse("p | exists p . ~p"), "p") == Polarity.POSITIVE_ONLY


def test_substitutible():
    assert is_substitutible([parse("a & b")], ["p"], parse("p -> q"))
    # capture: t is bound around a free occurrence of p
    assert not is_substitutible([Atom("t")], ["p"], parse("exists t . (p & t)"))
    # replacement mentions a replaced atom
    assert not is_substitutible([parse("p | a")], ["p"], parse("p"))
    # identity positions are exempt
    assert is_substitutible([Atom("p")], ["p"], parse("exists t . (p & t)"))


def test_substitute_basic():
    assert substitute(parse("p -> q"), ["p"], [parse("a & b")]) == parse("(a & b) -> q")
    assert substitute(parse("p | exists p . p"), ["p"], [Atom("a")]) == parse(
        "a | exists p . p"
    )


def test_substitute_simultaneous():
    f = parse("p & q")
    out = substitute(f, ["p", "q"], [parse("a & b"), parse("~a")])
    assert out == parse("(a & b) & ~a")
    # chained replacement through a replaced atom is rejected outright
    assert not is_substitutible([Atom("q"), Atom("r")], ["p", "q"], f)


def test_substitute_rejects_capture():
    with pytest.raises(NotSubstitutible) as info:
        substitute(parse("exists t . (p & t)"), ["p"], [Atom("t")])
    assert info.value.condition == 1


def test_substitute_rejects_unknown_reintroduction():
    with pytest.raises(NotSubstitutible) as info:
        substitute(parse("p & q"), ["p", "q"], [Atom("q"), Atom("a")])
    assert info.value.condition == 2


def test_substitution_identity():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ("p", "q", "a"), depth=4, quant_pool=QUANT_POOL)
        assert substitute(f, ["p", "q"], [Atom("p"), Atom("q")]) == f


def test_clean_variant_examples():
    f = parse("exists p . (p & exists p . (p | a))")
    assert clean_variant(f) == parse("exists p . (p & exists p_1 . (p_1 | a))")
    assert clean_variant(parse("a & b")) == parse("a & b")
    assert clean_variant(parse("p & exists p . p")) == parse("p & exists p_1 . p_1")


def test_clean_variant_preserves_semantics():
    rng = random.Random(13)
    atoms = ("a", "b", "c")
    for _ in range(300):
        f = random_formula(rng, atoms, depth=4, quant_pool=("a", "b"))
        g = clean_variant(f)
        basis = tuple(sorted(set(free_atoms(f)) | set(atoms)))
        assert truth_table(f, basis) == truth_table(g, basis)
        # no free atom is bound, all binders distinct
        binders = []

        def collect(h):
            if isinstance(h, (Exists, Forall)):
                binders.append(h.var)
                collect(h.body)
            elif hasattr(h, "left"):
                collect(h.left)
                collect(h.right)
            elif isinstance(h, Not):
                collect(h.operand)

        collect(g)
        assert len(binders) == len(set(binders))
        assert not set(binders) & set(free_atoms(g))


def _substitutible_sample(rng):
    while True:
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        g = random_formula(rng, ("a", "b"), depth=3)
        if is_substitutible([g], ["p"], f):
            return f, g


def test_pull_out_push_in():
    # Substitution agrees with both quantified forms of inlining a
    # definition for the substituted atom.
    rng = random.Random(17)
    for _ in range(150):
        f, g = _substitutible_sample(rng)
        subbed = substitute(f, ["p"], [g])
        assert equivalent(subbed, Exists("p", And(f, Iff(Atom("p"), g))))
        assert equivalent(subbed, Forall("p", Or(f, Not(Iff(Atom("p"), g)))))


def test_monotone_chain():
    # forall p . f  entails  f[p := g]  entails  exists p . f
    from boolsolve import entails

    rng = random.Random(19)
    for _ in range(150):
        f, g = _substitutible_sample(rng)
        subbed = substitute(f, ["p"], [g])
        assert entails(forall(["p"], f), subbed)
        assert entails(subbed, exists(["p"], f))
