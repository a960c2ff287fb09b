import random
from collections import Counter

import pytest

from boolsolve import (
    Atom,
    Exists,
    Forall,
    Iff,
    Not,
    Or,
    And,
    SolutionProblem,
    all_names,
    clean_variant,
    conj,
    equivalent,
    exists,
    forall,
    free_atoms,
    is_valid,
    parse,
    simplify,
    solve_succ_elim,
    substitute,
    truth_table,
)
from elimination_reference import Polarity, polarity_of
import formula_reference as reference
from formula_reference import is_substitutible
from genutil import QUANT_POOL, random_formula, timed_deep


def test_free_atoms():
    assert free_atoms(parse("a & exists p . (p | b)")) == ("a", "b")
    assert free_atoms(parse("exists p . p")) == ()
    assert free_atoms(parse("p | exists p . p")) == ("p",)


def test_all_names_and_free_binders():
    # a binder that names no occurrence is still a name of the formula
    f = parse("exists q . a")
    assert all_names(f) == ("a", "q")
    # a name both free and bound
    f = parse("p | exists p . p")
    assert all_names(f) == ("p",)
    # nested binders sharing a name
    f = parse("(exists p . p & forall p . (p | a)) & forall q . exists q . b")
    assert all_names(f) == ("a", "b", "p", "q")
    # without quantifiers
    f = parse("(a & ~b) -> (c | a)")
    assert all_names(f) == ("a", "b", "c")


def test_name_walkers_match_reference():
    # Binders drawn from the free atoms' names exercise shadowing,
    # capture and renaming; every result must equal the reference's.
    rng = random.Random(2501)
    atoms = ("a", "b", "c")
    pool = ("a", "b", "q1")
    for _ in range(2000):
        f = random_formula(rng, atoms, depth=rng.randint(1, 6), quant_pool=pool, quant_prob=0.25)
        avoid = rng.sample(atoms + pool[2:], rng.randint(0, 3))
        assert free_atoms(f) == reference.free_atoms(f)
        assert all_names(f) == reference.all_names(f)
        assert clean_variant(f, avoid) == reference.clean_variant(f, avoid)
        assert simplify(f) == reference.simplify(f)


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
    # the literal reading refuses a replacement through a replaced atom;
    # simultaneous replacement does not chain it
    assert not is_substitutible([Atom("q"), Atom("r")], ["p", "q"], f)
    assert substitute(f, ["p", "q"], [Atom("q"), Atom("r")]) == parse("q & r")


def test_substitute_renames_capturing_binders():
    f = parse("exists t . (p & t)")
    assert substitute(f, ["p"], [Atom("t")]) == parse("exists t_1 . (t & t_1)")
    # only a binder above a free occurrence of the replaced atom is renamed
    f = parse("(exists t . p & t) & (exists t . t) & (p | exists p . (p & t))")
    assert substitute(f, ["p"], [Atom("t")]) == parse(
        "(exists t_1 . t & t_1) & (exists t . t) & (t | exists p . (p & t))"
    )
    # a fresh name avoids every name of the formula and of the replacements
    f = parse("exists t . (p & t & t_1 & exists t . (p | t))")
    assert substitute(f, ["p"], [parse("t | t_2")]) == parse(
        "exists t_3 . ((t | t_2) & t_3 & t_1 & exists t_4 . ((t | t_2) | t_4))"
    )
    with pytest.raises(ValueError):
        substitute(f, ["p", "p"], [Atom("a"), Atom("b")])
    with pytest.raises(ValueError):
        substitute(f, ["p"], [])


def test_substitute_is_simultaneous():
    assert substitute(parse("p & q"), ["p", "q"], [Atom("q"), Atom("a")]) == parse("q & a")
    assert substitute(parse("p & q"), ["p", "q"], [Atom("q"), Atom("p")]) == parse("q & p")


def test_substitute_matches_literal_reference():
    # Binders reuse the free atoms' names and a replaced atom, a, is also
    # a binder name, so both conditions of the literal reading fail
    # often.  The literal substitution into a variant whose binders avoid
    # the replacements' atoms, staged through fresh atoms so that it
    # replaces simultaneously, must be equivalent; where the literal
    # reading accepts, the result must be the literal one.
    rng = random.Random(2701)
    atoms = ("a", "b", "p", "q")
    pool = ("a", "b", "q1")
    seen = Counter()
    for _ in range(2000):
        f = random_formula(rng, atoms, depth=rng.randint(1, 6), quant_pool=pool, quant_prob=0.25)
        ps = rng.sample(("p", "q", "a"), rng.randint(1, 2))
        gs = [random_formula(rng, pool, depth=rng.randint(0, 2)) for _ in ps]
        out = substitute(f, ps, gs)
        violation = reference._substitution_violation(gs, ps, f)
        if violation is None:
            assert out == reference.substitute(f, ps, gs)
        seen[violation and violation[0]] += 1
        avoid = [x for g in gs for x in free_atoms(g)]
        clean = reference.clean_variant(f, avoid)
        zs = [f"z{i}" for i in range(len(ps))]
        staged = reference.substitute(clean, ps, [Atom(z) for z in zs])
        assert equivalent(out, reference.substitute(staged, zs, gs))
        names = set(all_names(f)).union(*[all_names(g) for g in gs])
        seen["renamed"] += not names.issuperset(all_names(out))
    # accepted, refused by condition (1) only, by condition (2), renamed
    assert seen[None] >= 1000 and seen[1] >= 100 and seen[2] >= 400, seen
    assert seen["renamed"] >= 150, seen


def test_substitute_tests_capture_in_linear_time():
    # exists a0 ... exists a399 . p & a0 & ... & a399 with p := a0 & ... &
    # a399: every binder captures, and each reads its body's free atoms
    # from one bottom-up walk.  Scanning each body again took 0.25 s.
    names = [f"a{i}" for i in range(400)]
    f = conj([Atom("p"), *map(Atom, names)])
    for name in reversed(names):
        f = Exists(name, f)
    g = conj(map(Atom, names))
    seconds, out = timed_deep(lambda: substitute(f, ["p"], [g]))
    expected = conj([g, *(Atom(f"{name}_1") for name in names)])
    for name in reversed(names):
        expected = Exists(f"{name}_1", expected)
    assert timed_deep(lambda: out == expected, repeat=1)[1]
    assert seconds < 0.03, seconds


def test_substitute_takes_a_capturing_answer_back():
    # The solvers and the oracle accept p := a here; substituting it
    # renames the binder a apart.
    sp = SolutionProblem(parse("(p <-> a) & (exists a . (a | p))"), ["p"], ["t"])
    sol = solve_succ_elim(sp).components
    assert sol == (Atom("a"),)
    out = substitute(sp.formula, ["p"], sol)
    assert str(out) == "(a <-> a) & (exists a_1 . a_1 | a)"
    assert is_valid(out)


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
    # a fresh name skips the names of later binders too
    f = parse("a & exists a . exists a_1 . (a | a_1)")
    assert clean_variant(f) == parse("a & exists a_2 . exists a_1 . (a_2 | a_1)")


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
