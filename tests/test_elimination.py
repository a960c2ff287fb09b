import random

import pytest

import elimination_reference as reference
from boolsolve import (
    BOT,
    And,
    Atom,
    Exists,
    Not,
    NotIndependent,
    Or,
    TOP,
    depends_on,
    equivalent,
    evaluate,
    exists,
    formula_from_table,
    free_atoms,
    parse,
    project_vocabulary,
    substitute,
    truth_table,
    weakest_precondition,
)
from elimination_reference import (
    DisjunctWitnesses,
    InvalidDisjunctWitness,
    ackermann_rewrite,
    ehw_combine,
    elim_witness,
    elim_witness_dnf,
    eliminate_all,
    forall_eliminate,
    shannon_eliminate,
    to_dnf,
)
from formula_reference import is_substitutible
from genutil import QUANT_POOL, random_formula


def test_shannon_eliminate():
    out = shannon_eliminate("p", parse("(a -> p) & (p -> b)"))
    assert "p" not in free_atoms(out)
    assert equivalent(out, parse("a -> b"))
    assert shannon_eliminate("p", parse("p")) == TOP
    assert shannon_eliminate("p", parse("a")) == parse("a")


def test_eliminate_all():
    out = eliminate_all(["p1", "p2"], parse("(p1 -> p2) & (a -> p2) & (p2 -> b)"))
    assert equivalent(out, parse("a -> b"))
    f = parse("a | b")
    assert eliminate_all([], f) == f
    assert eliminate_all(["p"], parse("p & ~p")) == BOT


def test_shannon_matches_quantifier():
    rng = random.Random(43)
    for _ in range(300):
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        assert equivalent(Exists("p", f), shannon_eliminate("p", f))


def test_elim_witness_examples():
    res = elim_witness("p", parse("p <-> a"))
    assert equivalent(res.witness, parse("a"))
    assert equivalent(res.residue, TOP)

    res = elim_witness("p", parse("a"))
    assert res.witness == parse("a")
    assert res.residue == parse("a")

    res = elim_witness("p", parse("p & ~p"))
    assert equivalent(res.residue, BOT)


def test_witness_law_random():
    # the witness substituted into the body is the eliminated formula
    from boolsolve import clean_variant

    rng = random.Random(47)
    for _ in range(300):
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        res = elim_witness("p", f)
        assert is_substitutible([res.witness], ["p"], clean_variant(f))
        assert equivalent(Exists("p", f), res.residue)
        assert "p" not in free_atoms(res.residue)


def test_ackermann_rewrite():
    res = ackermann_rewrite("p", parse("(g -> p) & (p -> c)"))
    assert res is not None
    assert res.witness == parse("g")
    assert equivalent(res.residue, parse("g -> c"))
    assert equivalent(res.residue, shannon_eliminate("p", parse("(g -> p) & (p -> c)")))

    assert ackermann_rewrite("p", parse("(g -> p) & (p <-> c)")) is None
    assert ackermann_rewrite("p", parse("p -> c")) is None


def test_ackermann_matches_shannon_when_applicable():
    from boolsolve import And, Atom, Implies

    rng = random.Random(53)
    applied = 0
    while applied < 100:
        g = random_formula(rng, ("a", "b"), depth=2)
        rest = random_formula(rng, ("p", "a", "b"), depth=3)
        f = And(Implies(g, Atom("p")), rest)
        res = ackermann_rewrite("p", f)
        if res is None:
            continue
        assert equivalent(res.residue, shannon_eliminate("p", f))
        applied += 1


def test_ehw_combine_hand_example():
    dw = DisjunctWitnesses((parse("p & a"), parse("~p & b")), (TOP, BOT))
    combined = ehw_combine("p", dw)
    assert equivalent(combined, parse("a | ~b"))
    whole = parse("(p & a) | (~p & b)")
    assert is_substitutible([combined], ["p"], whole)
    residue = substitute(whole, ["p"], [combined])
    assert equivalent(residue, parse("a | b"))
    assert equivalent(residue, Exists("p", whole))


def test_ehw_combine_single_disjunct():
    w = parse("a")
    dw = DisjunctWitnesses((parse("p & a"),), (w,))
    combined = ehw_combine("p", dw)
    # n = 1 collapses to (F1[w] -> w)
    assert equivalent(combined, parse("(a & a) -> a"))


def test_ehw_combine_rejects_bad_witness():
    with pytest.raises(InvalidDisjunctWitness):
        ehw_combine("p", DisjunctWitnesses((parse("p <-> a"),), (TOP,)))
    with pytest.raises(InvalidDisjunctWitness):
        ehw_combine("p", DisjunctWitnesses((parse("p & a"),), (parse("p"),)))


def test_to_dnf():
    disjuncts = to_dnf(parse("(a | b) & c"))
    assert disjuncts
    from boolsolve import disj

    assert equivalent(disj(disjuncts), parse("(a | b) & c"))
    assert to_dnf(parse("a & ~a")) == []
    # distributive fallback
    low = to_dnf(parse("(a | b) & (c | d)"), minterm_cutoff=0)
    assert equivalent(disj(low), parse("(a | b) & (c | d)"))


def test_elim_witness_dnf():
    res = elim_witness_dnf("p", parse("(p & a) | (~p & b)"))
    assert equivalent(res.residue, parse("a | b"))
    assert equivalent(Exists("p", parse("(p & a) | (~p & b)")), res.residue)

    res = elim_witness_dnf("p", parse("p & ~p"))
    assert equivalent(res.residue, BOT)

    res = elim_witness_dnf("p", parse("a | b"))
    assert equivalent(res.residue, parse("a | b"))


def test_elim_witness_dnf_random():
    rng = random.Random(59)
    for _ in range(200):
        f = random_formula(rng, ("p", "a", "b"), depth=4)
        res = elim_witness_dnf("p", f)
        assert equivalent(Exists("p", f), res.residue)


def test_forall_eliminate():
    assert equivalent(forall_eliminate("b", parse("b -> p")), parse("p"))
    assert equivalent(forall_eliminate("p", parse("p | a")), parse("a"))


def test_weakest_precondition():
    wp = weakest_precondition(["p1", "p2"], parse("(p1 -> p2) & (a -> p2) & (p2 -> b)"))
    assert wp == parse("~a | b")
    assert weakest_precondition(["p"], parse("p | ~p")) == TOP
    assert weakest_precondition(["p"], parse("a")) == parse("a")
    # only atoms the precondition depends on are printed
    assert weakest_precondition(["p"], parse("a & (b | ~b) & (p | ~p)")) == parse("a")
    assert weakest_precondition(["p"], parse("(p -> a) & (p | b)")) == parse("a | b")
    # a repeated unknown spans one position of the mask, not one per copy
    assert weakest_precondition(["p"] * 30, parse("p & a")) == parse("a")
    # names absent from the formula span no position either, so 30 of
    # them do not widen the mask past the width cap
    assert weakest_precondition([f"x{i}" for i in range(30)] + ["p"], parse("p & a")) == parse("a")


# Binders named like an eliminated atom (p1) or a base atom (a) as well
# as fresh ones; the ps lists repeat atoms and name absent ones.
_BINDERS = ("q1", "p1", "a")
_PS = (["p1", "p2"], ["p2", "p1", "p2"], ["p1", "c"], ["c"], [], ["a", "p1"])


def test_weakest_precondition_matches_formula_elimination():
    rng = random.Random(97)
    for i in range(400):
        pool = _BINDERS if i % 2 else ()
        f = random_formula(rng, ("p1", "p2", "a", "b"), depth=5, quant_pool=pool)
        ps = _PS[i % len(_PS)]
        wp = weakest_precondition(ps, f)
        assert equivalent(wp, reference.weakest_precondition(ps, f)), (str(f), ps)
        assert equivalent(wp, exists(list(dict.fromkeys(ps)), f)), (str(f), ps)
        assert not set(free_atoms(wp)) & set(ps), (str(f), ps, str(wp))
        for atom in free_atoms(wp):
            assert reference.depends_on([atom], wp), (str(f), ps, str(wp))


def test_weakest_precondition_is_canonical():
    chain = parse("(p1 -> p2) & (a -> p2) & (p2 -> b)")
    shuffled = parse("~(p2 & ~b) & (p2 | ~a) & (p1 -> p2 & (c | ~c))")
    assert str(weakest_precondition(["p1", "p2"], chain)) == "~a | b"
    assert str(weakest_precondition(["p2", "p1"], shuffled)) == "~a | b"
    rng = random.Random(101)
    for i in range(200):
        pool = _BINDERS if i % 2 else ()
        f = random_formula(rng, ("p1", "p2", "a", "b"), depth=5, quant_pool=pool)
        basis = tuple(sorted(set(free_atoms(f)) | {"b", "p2"}))
        full_dnf = formula_from_table(truth_table(f, basis))
        padded = And(Or(Atom("a"), Not(Atom("a"))), Not(Not(f)))
        expected = str(weakest_precondition(["p1", "p2"], f))
        for g in (full_dnf, padded):
            assert str(weakest_precondition(["p2", "p1"], g)) == expected, str(f)


def test_depends_on_matches_formula_elimination():
    rng = random.Random(103)
    seen = set()
    for i in range(400):
        pool = _BINDERS if i % 2 else ()
        f = random_formula(rng, ("p1", "p2", "a", "b"), depth=5, quant_pool=pool)
        ps = _PS[i % len(_PS)]
        got = depends_on(ps, f)
        assert got == reference.depends_on(ps, f), (str(f), ps)
        seen.add(got)
    assert seen == {True, False}


def test_project_vocabulary():
    assert equivalent(project_vocabulary(parse("a | (b & ~b)"), ["a"]), parse("a"))
    assert project_vocabulary(parse("a"), ["a", "b"]) == parse("a")
    with pytest.raises(NotIndependent) as info:
        project_vocabulary(parse("a & b"), ["a"])
    v1, v2 = info.value.counterexample
    # the pair differs only on dropped atoms and flips the value
    assert v1["a"] == v2["a"]
    assert v1["b"] != v2["b"]
    assert evaluate(parse("a & b"), v1) != evaluate(parse("a & b"), v2)


def _project_outcome(project, f, keep):
    """The projected formula, or the text of the NotIndependent raised."""
    try:
        return project(f, keep)
    except NotIndependent as exc:
        return str(exc)


def test_project_vocabulary_matches_formula_reference():
    # The mask projection gives the formula reference's verdict and its
    # exact NotIndependent text; an independent result is equivalent to
    # f, drops the dropped atoms and is the text of eliminating them.
    # Binders reuse the names of atoms that may be dropped.
    atoms = ("a", "b", "c", "d", "e")
    rng = random.Random(107)
    outcomes = set()
    for i in range(2000):
        pool = ("q1", "c", "e") if i % 3 == 0 else ()
        f = random_formula(rng, atoms, depth=5, quant_pool=pool)
        keep = [a for a in atoms if rng.random() < 0.5]
        got = _project_outcome(project_vocabulary, f, keep)
        expected = _project_outcome(reference.project_vocabulary, f, keep)
        if isinstance(expected, str):
            assert got == expected, (str(f), keep)
            outcomes.add("dependent")
            continue
        assert equivalent(got, f), (str(f), keep, str(got))
        assert set(free_atoms(got)) <= set(keep), (str(f), keep, str(got))
        dropped = [a for a in free_atoms(f) if a not in keep]
        assert got == weakest_precondition(dropped, f), (str(f), keep, str(got))
        outcomes.add("unchanged" if got == f else "projected")
    assert outcomes == {"dependent", "unchanged", "projected"}


def _parity_pair(d):
    """The independent ``((a -> b) & X) | ((a -> b) & ~X)`` and the
    dependent ``(a -> b) & (X | b)``, X a parity of d dropped atoms."""
    xs = " <-> ".join(f"x{i}" for i in range(d))
    return (
        parse(f"((a -> b) & ({xs})) | ((a -> b) & ~({xs}))"),
        parse(f"(a -> b) & (({xs}) | b)"),
    )


def test_project_vocabulary_parity():
    for d in (2, 5, 8):
        for f in _parity_pair(d):
            got = _project_outcome(project_vocabulary, f, ["a", "b"])
            expected = _project_outcome(reference.project_vocabulary, f, ["a", "b"])
            if isinstance(expected, str):
                assert got == expected, (d, str(f))
            else:
                assert got == parse("~a | b") and equivalent(got, expected), (d, str(f))
    independent, dependent = _parity_pair(20)
    assert str(project_vocabulary(independent, ["a", "b"])) == "~a | b"
    with pytest.raises(NotIndependent) as info:
        project_vocabulary(dependent, ["a", "b"])
    v1, v2 = info.value.counterexample
    # every atom false, and x0 true, which flips the parity
    assert [a for a in v1 if v1[a] != v2[a]] == ["x0"]
    assert sorted((any(v1.values()), any(v2.values()))) == [False, True]
    assert evaluate(dependent, v1) is False and evaluate(dependent, v2) is True


def test_witness_is_solution_of_padded_problem():
    # a formula G eliminates p from exists p . F by substitution exactly
    # when G solves the problem (~F[q] | F)[p] for a fresh q
    from boolsolve import Atom, Not, Or, SolutionProblem, check_particular

    rng = random.Random(61)
    for _ in range(200):
        f = random_formula(rng, ("p", "a"), depth=3)
        g = random_formula(rng, ("a",), depth=2)
        lhs = is_substitutible([g], ["p"], f) and equivalent(
            Exists("p", f), substitute(f, ["p"], [g])
        )
        f_q = substitute(f, ["p"], [Atom("q")])
        padded = SolutionProblem(Or(Not(f_q), f), ["p"])
        rhs = check_particular(padded, [g]).verdict
        assert lhs == rhs
