import random

import pytest

from boolsolve import (
    And,
    Atom,
    BOT,
    Exists,
    Implies,
    MissingParameters,
    NoSolution,
    NotSubstitutible,
    Solution,
    SolutionKind,
    SolutionProblem,
    Strategy,
    TOP,
    TruthTable,
    check_particular,
    check_reproductive,
    constructive_shortcut,
    depends_on,
    entails,
    enumerate_solutions,
    equivalent,
    exists_solution,
    formula_from_table,
    free_atoms,
    parse,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
    substitute,
)
from boolsolve.semantics import formula_mask
from boolsolve.solve import _stage_masks
from elimination_reference import elim_witness, elim_witness_dnf
from genutil import QUANT_POOL, random_formula, random_solvable_sp
import solve_reference
from solve_reference import (
    InternalCheckFailed,
    NotAParticularSolution,
    NotSolvable,
    SchroederVariant,
    definiens,
    instantiate,
    polarity_shortcut,
    rigorous_solution,
    schroeder_interpolant,
)

EXAMPLE_SOLVABLE = parse("(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))")
EXAMPLE_UNSOLVABLE = parse("(p1 -> p2) & (a -> p2) & (p2 -> b)")
UNARY_SOLVABLE = parse("(a -> b) -> ((a -> p) & (p -> b))")


def test_exists_solution():
    assert exists_solution(SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"]))
    assert not exists_solution(SolutionProblem(EXAMPLE_UNSOLVABLE, ["p1", "p2"]))
    assert exists_solution(SolutionProblem(TOP, ["p"]))


def test_problem_validation():
    with pytest.raises(ValueError):
        SolutionProblem(TOP, ["p", "p"])
    with pytest.raises(ValueError):
        SolutionProblem(parse("p & t"), ["p"], parameters=["t"])
    with pytest.raises(ValueError):
        SolutionProblem(parse("p"), ["p"], parameters=["t1", "t2"])
    with pytest.raises(ValueError):
        SolutionProblem(parse("p & b"), ["p"], forbidden=["p"])


def test_solve1_interval():
    # A unary problem's lower bound is the interval strategy's component.
    interval = Strategy.INTERVAL
    unary = SolutionProblem(UNARY_SOLVABLE, ["p"])
    (g,) = solve_on_second_order(unary, interval).components
    assert equivalent(g, parse("a & b"))
    assert check_particular(unary, [g]).verdict

    with pytest.raises(NoSolution):
        solve_on_second_order(SolutionProblem(parse("(a -> p) & (p -> b)"), ["p"]), interval)

    (g,) = solve_on_second_order(SolutionProblem(parse("p <-> a"), ["p"]), interval).components
    assert equivalent(g, parse("a"))


def test_solve1_interval_strips_prefix():
    f = Exists("p2", parse("(a -> b) -> ((p -> p2) & (a -> p2) & (p2 -> b))"))
    (g,) = solve_on_second_order(SolutionProblem(f, ["p"]), Strategy.INTERVAL).components
    assert "p2" not in free_atoms(g)
    inner = parse("(a -> b) -> ((p -> p2) & (a -> p2) & (p2 -> b))")
    assert exists_solution(
        SolutionProblem(substitute(inner, ["p"], [g]), ["p2"])
    )


def test_solve1_reproductive():
    # A unary problem's reproductive solution is succ-elim's component.
    unary = SolutionProblem(UNARY_SOLVABLE, ["p"], parameters=["t"])
    (g,) = solve_succ_elim(unary).components
    assert check_reproductive(unary, [g], ["a", "b"]).verdict

    (g,) = solve_succ_elim(SolutionProblem(parse("p <-> a"), ["p"], ["t"])).components
    assert equivalent(g, parse("a"))

    open_sp = SolutionProblem(TOP, ["p"], parameters=["t"])
    (g,) = solve_succ_elim(open_sp).components
    assert equivalent(g, Atom("t"))
    assert check_reproductive(open_sp, [g], ["a"]).verdict

    with pytest.raises(NoSolution):
        solve_succ_elim(SolutionProblem(parse("(a -> p) & (p -> b)"), ["p"], ["t"]))
    with pytest.raises(ValueError):
        SolutionProblem(parse("p | t"), ["p"], ["t"])


def test_schroeder_interpolant():
    got = schroeder_interpolant(parse("a & b"), parse("a | b"), "t", SchroederVariant.A_OR_BT)
    assert got == parse("(a & b) | ((a | b) & t)")
    sp = SolutionProblem(parse("((a & b) -> p) & (p -> (a | b))"), ["p"], parameters=["t"])
    assert check_reproductive(sp, [got], ["a", "b"]).verdict

    got = schroeder_interpolant(BOT, parse("b"), "t", SchroederVariant.CASE_SPLIT)
    assert equivalent(got, parse("b & t"))

    with pytest.raises(NotSolvable):
        schroeder_interpolant(parse("a"), parse("~a"), "t", SchroederVariant.A_OR_BT)


def test_schroeder_variants_equivalent():
    rng = random.Random(67)
    done = 0
    while done < 150:
        aF = random_formula(rng, ("a", "b"), depth=3)
        bF = random_formula(rng, ("a", "b"), depth=3)
        if not entails(aF, bF):
            continue
        variants = [
            schroeder_interpolant(aF, bF, "t", v) for v in SchroederVariant
        ]
        assert equivalent(variants[0], variants[1])
        assert equivalent(variants[1], variants[2])
        done += 1


def test_schroeder_law_for_succ_elim():
    # The core's reproductive component of (A -> p) & (p -> B) is
    # Schroeder's interpolant in each of its three forms.
    rng = random.Random(7)
    pairs = 0
    for _ in range(3000):
        aF = random_formula(rng, ("a", "b", "c"), 3)
        bF = random_formula(rng, ("a", "b", "c"), 3)
        if not entails(aF, bF):
            continue
        pairs += 1
        f = And(Implies(aF, Atom("p")), Implies(Atom("p"), bF))
        g = solve_succ_elim(SolutionProblem(f, ["p"], ["t"])).components[0]
        for v in SchroederVariant:
            assert equivalent(g, schroeder_interpolant(aF, bF, "t", v)), (aF, bF, v)
    assert pairs > 800


def test_solve_on_second_order_interval():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"])
    sol = solve_on_second_order(sp, Strategy.INTERVAL)
    assert sol.kind is SolutionKind.PARTICULAR
    assert check_particular(sp, sol.components).verdict

    unary = SolutionProblem(UNARY_SOLVABLE, ["p"])
    sol = solve_on_second_order(unary, Strategy.INTERVAL)
    assert list(sol.components) == solve_reference.solve_stages(unary, None)

    with pytest.raises(NoSolution):
        solve_on_second_order(
            SolutionProblem(EXAMPLE_UNSOLVABLE, ["p1", "p2"]), Strategy.INTERVAL
        )


def test_solve_on_second_order_reproductive():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
    sol = solve_on_second_order(sp, Strategy.REPRODUCTIVE)
    assert sol.kind is SolutionKind.REPRODUCTIVE
    assert check_reproductive(sp, sol.components, ["a", "b"]).verdict

    with pytest.raises(MissingParameters):
        solve_on_second_order(
            SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"]), Strategy.REPRODUCTIVE
        )


def test_solve_succ_elim():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
    sol = solve_succ_elim(sp)
    assert sol.kind is SolutionKind.REPRODUCTIVE
    assert check_reproductive(sp, sol.components, ["a", "b"]).verdict

    unary = SolutionProblem(parse("p <-> a"), ["p"], parameters=["t"])
    sol = solve_succ_elim(unary)
    assert equivalent(sol.components[0], parse("a"))

    with pytest.raises(NoSolution):
        solve_succ_elim(
            SolutionProblem(EXAMPLE_UNSOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
        )
    with pytest.raises(MissingParameters):
        solve_succ_elim(SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"]))


def test_solve_succ_elim_stages():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
    stages = solve_reference.solve_succ_elim_stages(sp)
    assert len(stages) == 3
    assert stages[2] == EXAMPLE_SOLVABLE  # already clean
    assert equivalent(stages[1], Exists("p2", EXAMPLE_SOLVABLE))
    assert equivalent(stages[0], Exists("p1", Exists("p2", EXAMPLE_SOLVABLE)))
    assert not set(free_atoms(stages[0])) & {"p1", "p2"}
    # The core keeps the same stages as truth tables over the base atoms
    # and the unknowns not yet eliminated.
    base, masks, _ = _stage_masks(sp)
    assert base == ("a", "b")
    for i, (stage, mask) in enumerate(zip(stages, masks)):
        assert formula_mask(stage, base + sp.unknowns[:i]) == mask


def test_solve_by_witnesses():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"])
    sol = solve_by_witnesses(sp)
    assert sol.kind is SolutionKind.PARTICULAR
    assert check_particular(sp, sol.components).verdict
    assert not set().union(*(free_atoms(c) for c in sol.components)) & {"p1", "p2"}
    # Any witness construction, composed right to left, solves it too.
    for witness in (elim_witness, elim_witness_dnf):
        components = solve_reference.solve_by_witnesses(sp, witness)
        assert check_particular(sp, components).verdict

    unary = SolutionProblem(parse("p <-> a"), ["p"])
    sol = solve_by_witnesses(unary)
    assert equivalent(sol.components[0], parse("a"))

    trivial = SolutionProblem(TOP, ["p1", "p2"])
    sol = solve_by_witnesses(trivial)
    assert all(c == TOP for c in sol.components)

    with pytest.raises(NoSolution):
        solve_by_witnesses(SolutionProblem(EXAMPLE_UNSOLVABLE, ["p1", "p2"]))


def test_core_views_honour_forbidden():
    # Each view of the core solves the problem universally quantified
    # over the forbidden atoms, as exists_solution decides it.
    sp = SolutionProblem(parse("p <-> b"), ["p"], forbidden=["b"])
    with_params = SolutionProblem(parse("p <-> b"), ["p"], ["t"], forbidden=["b"])
    assert not exists_solution(sp)
    for solve in (
        lambda: solve_on_second_order(sp, Strategy.INTERVAL),
        lambda: solve_on_second_order(with_params, Strategy.REPRODUCTIVE),
        lambda: solve_succ_elim(with_params),
        lambda: solve_by_witnesses(sp),
        lambda: solve_restricted(sp),
    ):
        with pytest.raises(NoSolution, match=r"no solution avoids the forbidden atoms \(b\)"):
            solve()

    sp = SolutionProblem(parse("b -> p"), ["p"], forbidden=["b"])
    interval = solve_on_second_order(sp, Strategy.INTERVAL)
    assert [str(c) for c in interval.components] == ["true"]
    assert [str(c) for c in solve_by_witnesses(sp).components] == ["true"]
    assert solve_restricted(sp) == interval


def test_rigorous_solution():
    sp = SolutionProblem(UNARY_SOLVABLE, ["p"], parameters=["t"])
    rig = rigorous_solution(sp, Solution([parse("b")], SolutionKind.PARTICULAR))
    assert rig.kind is SolutionKind.REPRODUCTIVE
    assert check_reproductive(sp, rig.components, ["a", "b"]).verdict

    open_sp = SolutionProblem(parse("p"), ["p"], parameters=["t"])
    rig = rigorous_solution(open_sp, Solution([TOP], SolutionKind.PARTICULAR))
    assert check_reproductive(open_sp, rig.components, ["a"]).verdict

    with pytest.raises(NotAParticularSolution):
        rigorous_solution(
            SolutionProblem(parse("p <-> b"), ["p"], parameters=["t"]),
            Solution([parse("a")], SolutionKind.PARTICULAR),
        )


def test_instantiate():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp)
    inst = instantiate(sp, rep, [parse("a"), parse("b")])
    assert inst.kind is SolutionKind.PARTICULAR
    # reproduces the solution (a, b)
    assert equivalent(inst.components[0], parse("a"))
    assert equivalent(inst.components[1], parse("b"))

    same = instantiate(sp, rep, [Atom("t1"), Atom("t2")])
    assert same.components == rep.components

    with pytest.raises(NotSubstitutible):
        instantiate(sp, rep, [parse("p1"), parse("b")])


def test_instantiate_flags_bogus_reproductive():
    sp = SolutionProblem(parse("p <-> a"), ["p"], parameters=["t"])
    bogus = Solution([Atom("t")], SolutionKind.REPRODUCTIVE)
    with pytest.raises(InternalCheckFailed):
        instantiate(sp, bogus, [parse("~a")])


def test_polarity_shortcut():
    sol = polarity_shortcut(SolutionProblem(parse("(a -> p) & (b -> p)"), ["p"]))
    assert sol is not None and sol.components == (TOP,)

    sol = polarity_shortcut(SolutionProblem(parse("p -> a"), ["p"]))
    assert sol is not None and sol.components == (BOT,)

    assert polarity_shortcut(SolutionProblem(parse("p <-> a"), ["p"])) is None
    # single polarity but the constant candidate fails validation
    assert polarity_shortcut(SolutionProblem(parse("p & a"), ["p"])) is None


def test_constructive_shortcut_subsumes_polarity_shortcut():
    # An unknown of a single polarity is monotone in every stage, so a
    # solvable stage has U_i full or L_i = 0: the constructive shortcut
    # answers wherever the polarity shortcut does.
    rng = random.Random(1919)
    answered = 0
    for _ in range(3000):
        f = random_formula(rng, ("p1", "p2", "a", "b", "c"), 5, quant_pool=QUANT_POOL)
        sp = SolutionProblem(f, ["p1", "p2"])
        if polarity_shortcut(sp) is None:
            continue
        answered += 1
        sol = constructive_shortcut(sp)
        assert sol is not None, f
        assert check_particular(sp, sol.components).verdict, f
    assert answered > 600


def test_constructive_shortcut_constants_by_validity():
    # p occurs with both polarities, yet true solves each problem
    for text in ("p <-> p", "(a & p) | (a & ~p) | ~a"):
        sol = constructive_shortcut(SolutionProblem(parse(text), ["p"]))
        assert sol is not None and sol.components == (TOP,)


def test_constructive_shortcut_reorder():
    # solvable, but the constructive cases only fire for the order p2, p1:
    # after p1 := true, p2's interval [b & ~a, a | b] holds no constant
    # and p2 is not definable
    f = parse("(p2 <-> (b & p1)) | a")
    sp = SolutionProblem(f, ["p1", "p2"])
    assert exists_solution(sp)
    assert constructive_shortcut(sp) is None
    swapped = SolutionProblem(f, ["p2", "p1"])
    sol = constructive_shortcut(swapped)
    assert sol is not None
    assert check_particular(swapped, sol.components).verdict


def test_constructive_shortcut_honours_forbidden():
    sp = SolutionProblem(parse("p <-> b"), ["p"], forbidden=["b"])
    assert constructive_shortcut(sp) is None
    # p is defined only once b is quantified universally, and then as a;
    # the definiens read off the formula, F[p := true], is a | b
    f = parse("(p <-> a) | b")
    assert constructive_shortcut(SolutionProblem(f, ["p"])) is None
    sol = constructive_shortcut(SolutionProblem(f, ["p"], forbidden=["b"]))
    assert sol is not None and sol.components == (Atom("a"),)
    assert check_particular(SolutionProblem(f, ["p"]), sol.components).verdict


def test_constructive_shortcut_matches_formula_reference():
    # The same decision as the formula-level shortcut on every problem,
    # the same text with one unknown, and a solution whenever one is
    # returned; with c forbidden no component mentions c.
    rng = random.Random(1616)
    answered = 0
    for i in range(2400):
        unknowns = ("p1", "p2", "p3")[: 1 + i % 3]
        pool = QUANT_POOL if i % 3 == (i // 3) % 3 else ()
        f = random_formula(rng, unknowns + ("a", "b", "c"), 5, quant_pool=pool)
        sp = SolutionProblem(f, unknowns)
        sol = constructive_shortcut(sp)
        expected = solve_reference.constructive_shortcut(sp)
        assert (sol is None) == (expected is None), f
        if sol is None:
            continue
        answered += 1
        assert check_particular(sp, sol.components).verdict, f
        if len(unknowns) == 1:
            assert [str(g) for g in sol.components] == [str(g) for g in expected.components]
        restricted = constructive_shortcut(SolutionProblem(f, unknowns, forbidden=["c"]))
        if restricted is not None:
            assert not any("c" in free_atoms(g) for g in restricted.components), f
            assert check_particular(sp, restricted.components).verdict, f
    assert answered > 800


def test_constructive_parity_definiens_is_structural():
    atoms = [f"a{i}" for i in range(9)]
    f = parse(f"p <-> ({' <-> '.join(atoms)})")
    sol = constructive_shortcut(SolutionProblem(f, ["p"]))
    expected = solve_reference.constructive_shortcut(SolutionProblem(f, ["p"]))
    assert str(sol.components[0]) == str(expected.components[0])
    assert len(str(sol.components[0])) == 58


def test_definiens():
    d = definiens(parse("(p <-> (a & b)) & c"), "p")
    assert d is not None and equivalent(d, parse("a & b & c"))
    from boolsolve import Iff

    assert entails(parse("(p <-> (a & b)) & c"), Iff(Atom("p"), d))
    assert definiens(TOP, "p") is None

    # a definiens of the negated formula yields a solution when negated
    f = parse("~((a -> b) -> ((a -> p) & (p -> b)))")
    d = definiens(f, "p")
    assert d is not None
    from boolsolve import Not

    sp = SolutionProblem(parse("(a -> b) -> ((a -> p) & (p -> b))"), ["p"])
    assert check_particular(sp, [Not(d)]).verdict


def test_definiens_entailment():
    rng = random.Random(71)
    found = 0
    while found < 100:
        f = random_formula(rng, ("p", "a", "b"), depth=4)
        d = definiens(f, "p")
        if d is None:
            continue
        from boolsolve import Iff

        assert entails(f, Iff(Atom("p"), d))
        found += 1


def test_solve_restricted():
    sp = SolutionProblem(parse("b -> p"), ["p"], forbidden=["b"])
    sol = solve_restricted(sp)
    assert not set(free_atoms(sol.components[0])) & {"b"}
    assert check_particular(SolutionProblem(parse("b -> p"), ["p"]), sol.components).verdict

    with pytest.raises(NoSolution):
        solve_restricted(SolutionProblem(parse("p <-> b"), ["p"], forbidden=["b"]))

    # empty restriction behaves like the unrestricted solver
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], forbidden=[])
    sol = solve_restricted(sp)
    unrestricted = solve_on_second_order(
        SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"]), Strategy.INTERVAL
    )
    assert sol.components == unrestricted.components


def test_solve_restricted_reproductive():
    sp = SolutionProblem(parse("b -> p"), ["p"], parameters=["t"], forbidden=["b"])
    sol = solve_restricted(sp)
    assert sol.kind is SolutionKind.REPRODUCTIVE
    assert "b" not in set().union(*(free_atoms(c) for c in sol.components))


def test_two_stage_demo():
    f = parse("(a & (b <-> p)) <-> (b & (a <-> q))")
    sp = SolutionProblem(f, ["p", "q"], parameters=["t1", "t2"])
    sol = solve_restricted(sp, [["b"], ["a"]])
    assert equivalent(sol.components[0], parse("a"))
    assert equivalent(sol.components[1], parse("b"))
    assert set(free_atoms(sol.components[0])) <= {"a"}
    assert set(free_atoms(sol.components[1])) <= {"b"}
    assert check_particular(SolutionProblem(f, ["p", "q"]), sol.components).verdict


def test_two_stage_unconstrained_matches_instantiation():
    sp = SolutionProblem(EXAMPLE_SOLVABLE, ["p1", "p2"], parameters=["t1", "t2"])
    sol = solve_restricted(sp, [[], []])
    rep = solve_succ_elim(sp)
    inst = instantiate(sp, rep, [BOT, BOT])
    assert [str(c) for c in sol.components] == [str(c) for c in inst.components]


def test_two_stage_unsolvable_restriction():
    sp = SolutionProblem(parse("p <-> b"), ["p"], parameters=["t"])
    with pytest.raises(NoSolution):
        solve_restricted(sp, [["b"]])


def _restricted_agrees(f, base, unknowns, forbidden, per_unknown) -> bool:
    """solve_restricted and exists_solution against the brute-force
    reference on one problem; True when it has a solution."""
    sp = SolutionProblem(f, unknowns, forbidden=forbidden)
    banned = [sorted(set(forbidden or ()) | set(atoms)) for atoms in per_unknown]
    expected = solve_reference.restricted_brute_force(
        formula_mask(f, (*base, *unknowns)),
        len(base),
        [sum(1 << base.index(b) for b in atoms) for atoms in banned],
    )
    if expected is None:
        with pytest.raises(NoSolution):
            solve_restricted(sp, per_unknown)
        assert not exists_solution(sp, per_unknown)
        return False
    components = solve_restricted(sp, per_unknown).components
    assert check_particular(SolutionProblem(f, unknowns), components).verdict
    for c, atoms in zip(components, banned):
        assert not depends_on(atoms, c), (str(f), per_unknown, str(c))
    assert exists_solution(sp, per_unknown)
    return True


def test_restricted_search_matches_brute_force():
    # Every 63rd function over p1 p2 a b, each of the 16 pairs of
    # per-unknown restrictions on 64 of them, then random problems over
    # three base atoms with 2-3 unknowns and a global forbid: on some.
    # The random problems are solvable, but not by constants.
    subsets = [(), ("a",), ("b",), ("a", "b")]
    solved = 0
    for i in range(1024):
        f = formula_from_table(TruthTable.from_int(i * 63, ("a", "b", "p1", "p2")))
        per_unknown = [subsets[i % 4], subsets[i // 4 % 4]]
        solved += _restricted_agrees(f, ("a", "b"), ("p1", "p2"), None, per_unknown)
    assert 100 < solved < 900

    rng = random.Random(7)
    base = ("a", "b", "c")
    solved = done = 0
    while done < 300:
        unknowns = ("p1", "p2", "p3")[: rng.choice((2, 3))]
        f = random_formula(rng, base + unknowns, rng.choice((3, 4, 5)))
        if not exists_solution(SolutionProblem(f, unknowns)) or exists_solution(
            SolutionProblem(f, unknowns, forbidden=base)
        ):
            continue
        done += 1
        forbidden = rng.choice((None, None, ("c",)))
        per_unknown = [rng.sample(base, rng.randint(0, 2)) for _ in unknowns]
        solved += _restricted_agrees(f, base, unknowns, forbidden, per_unknown)
    assert 100 < solved < 250


def test_restricted_search_combines_forbid():
    # forbid: applies to every component alongside forbid(p):
    f = parse("(b -> p) & (p -> a | b)")
    sp = SolutionProblem(f, ["p"], forbidden=["b"])
    with pytest.raises(NoSolution):
        solve_restricted(sp, [["c"]])
    assert not exists_solution(sp, [["c"]])
    assert solve_restricted(SolutionProblem(f, ["p"]), [["c"]]).components == (parse("b"),)
    with pytest.raises(ValueError):
        solve_restricted(SolutionProblem(f, ["p", "q"]), [["q"], []])


def test_interval_law_random():
    # the basis solutions of a solvable unary problem are exactly the
    # functions between the two cofactor bounds
    from boolsolve import Not, FunctionSpace

    rng = random.Random(73)
    done = 0
    while done < 150:
        f = random_formula(rng, ("p", "a", "b"), depth=4)
        sp = SolutionProblem(f, ["p"])
        if not exists_solution(sp):
            continue
        lower = Not(substitute(f, ["p"], [BOT]))
        upper = substitute(f, ["p"], [TOP])
        enumerated = {
            str(s.components[0]) for s in enumerate_solutions(sp, ["a", "b"])
        }
        space = FunctionSpace(["a", "b"])
        expected = {
            str(g)
            for g in space.formulas
            if entails(lower, g) and entails(g, upper)
        }
        assert enumerated == expected
        done += 1


def test_reproductive_composition_random():
    # composing unary reproductive steps stays reproductive
    rng = random.Random(79)
    for _ in range(25):
        sp = random_solvable_sp(rng, 2, 2, depth=3, parameters=True)
        sol = solve_on_second_order(sp, Strategy.REPRODUCTIVE)
        assert check_reproductive(sp, sol.components, ("a", "b")).verdict


def test_second_order_strategies_are_views_of_succ_elim():
    # The second-order reduction reads the stages of successive
    # elimination: its reproductive strategy prints exactly what
    # succ-elim prints, and its interval strategy is succ-elim with
    # every parameter set to false.
    rng = random.Random(101)
    for k in range(100):
        sp = random_solvable_sp(
            rng, 1 + k % 2, 2, depth=4, parameters=True, quantifiers=k % 4 >= 2
        )
        succ = solve_succ_elim(sp).components
        rep = solve_on_second_order(sp, Strategy.REPRODUCTIVE).components
        assert [str(c) for c in rep] == [str(c) for c in succ]
        interval = solve_on_second_order(
            SolutionProblem(sp.formula, sp.unknowns), Strategy.INTERVAL
        ).components
        falses = [BOT] * len(sp.unknowns)
        for lower, c in zip(interval, succ):
            assert equivalent(lower, substitute(c, sp.parameters, falses))


def test_solution_entailed_by_definition():
    # G solves F[p] exactly when the definition p <-> G entails F
    from boolsolve import Iff

    rng = random.Random(83)
    for _ in range(200):
        f = random_formula(rng, ("p", "a", "b"), depth=4)
        g = random_formula(rng, ("a", "b"), depth=3)
        sp = SolutionProblem(f, ["p"])
        lhs = check_particular(sp, [g]).verdict
        rhs = entails(Iff(Atom("p"), g), f)
        assert lhs == rhs


def test_alternate_disjunct_combination():
    # combining candidate solutions G_i with exists p F == OR F[G_i]
    # through the guarded-conjunction scheme yields a single witness
    from boolsolve import Implies, Not, conj, disj

    rng = random.Random(89)
    for _ in range(100):
        f = random_formula(rng, ("p", "a", "b"), depth=3)
        candidates = [TOP, BOT] + [
            random_formula(rng, ("a", "b"), depth=2) for _ in range(2)
        ]
        images = [substitute(f, ["p"], [g]) for g in candidates]
        assert equivalent(Exists("p", f), disj(images))  # includes both constants
        parts = []
        for i, g in enumerate(candidates):
            guard = conj([Not(images[j]) for j in range(i)] + [images[i]])
            parts.append(Implies(guard, g))
        combined = conj(parts)
        assert equivalent(Exists("p", f), substitute(f, ["p"], [combined]))


def test_weakest_precondition_is_weakest():
    from boolsolve import FunctionSpace, Implies, weakest_precondition

    rng = random.Random(97)
    space = FunctionSpace(["a", "b"])
    for _ in range(40):
        f = random_formula(rng, ("p1", "p2", "a", "b"), depth=3)
        wp = weakest_precondition(["p1", "p2"], f)
        assert exists_solution(SolutionProblem(Implies(wp, f), ["p1", "p2"]))
        for candidate in space.formulas:
            guarded = SolutionProblem(Implies(candidate, f), ["p1", "p2"])
            if exists_solution(guarded):
                assert entails(candidate, wp)


def _printed(run):
    """Printed components of a solver call, or None for no solution."""
    try:
        return [str(c) for c in run()]
    except NoSolution:
        return None


def test_core_matches_formula_reference():
    # The truth-table core prints exactly what the formula-stage core
    # prints, for each solve method and for restricted solving, and the
    # witnesses method what the right-to-left formula loop prints.  Binders
    # reuse the names of an unknown, a base atom and a parameter;
    # unknowns come in any order; parameters sort before, between and
    # after the base atoms b, d, f.
    rng = random.Random(131)
    solved = 0
    for i in range(300):
        base = ["b", "d", "f"][: rng.choice([1, 2, 3])]
        unknowns = rng.sample(["x", "c", "m"], rng.choice([1, 2, 2, 3]))
        params = rng.sample(["a", "e", "g", "z"], len(unknowns))
        pool = ("q", unknowns[0], base[0], params[0])
        f = random_formula(rng, tuple(base + unknowns), rng.choice([3, 4, 5]), pool, 0.2)
        plain = SolutionProblem(f, unknowns)
        with_params = SolutionProblem(f, unknowns, params)
        reproductive = _printed(lambda: solve_reference.solve_stages(with_params, params))
        interval = _printed(lambda: solve_reference.solve_stages(plain, None))
        assert _printed(lambda: solve_succ_elim(with_params).components) == reproductive
        assert _printed(
            lambda: solve_on_second_order(with_params, Strategy.REPRODUCTIVE).components
        ) == reproductive
        assert _printed(
            lambda: solve_on_second_order(plain, Strategy.INTERVAL).components
        ) == interval
        assert _printed(lambda: solve_by_witnesses(plain).components) == _printed(
            lambda: solve_reference.solve_by_witnesses(plain, elim_witness)
        )
        restricted = SolutionProblem(
            f, unknowns, params if i % 2 else None, forbidden=[base[-1]]
        )
        assert _printed(lambda: solve_restricted(restricted).components) == _printed(
            lambda: solve_reference.solve_restricted(restricted)
        )
        solved += reproductive is not None
    assert 100 <= solved <= 280  # both outcomes are exercised


def test_reproductive_solvers_do_not_simplify(monkeypatch):
    # The reproductive pair is built from its two covers with the
    # constant rules applied at its top nodes, so no simplify pass runs,
    # on the running example grown to four unknowns nor on random
    # clauses; the components are still the reference's.
    import boolsolve.solve

    calls = []
    original = boolsolve.solve.simplify
    monkeypatch.setattr(
        boolsolve.solve, "simplify", lambda f: calls.append(f) or original(f)
    )
    unknowns = ["p1", "p2", "p3", "p4"]
    links = zip(["a", *unknowns], [*unknowns, "b"])
    chain = parse("(a -> b) -> (" + " & ".join(f"({x} -> {y})" for x, y in links) + ")")
    rng = random.Random(17)
    atoms = ["a", "b", "c", "p1", "p2"]
    while True:
        clauses = parse(" & ".join(
            "(" + " | ".join(
                ("~" if rng.random() < 0.5 else "") + x for x in rng.sample(atoms, 3)
            ) + ")"
            for _ in range(4)
        ))
        if exists_solution(SolutionProblem(clauses, ["p1", "p2"])):
            break
    for f, ps in ((chain, unknowns), (clauses, ["p1", "p2"])):
        params = [f"t{i}" for i in range(1, len(ps) + 1)]
        sp = SolutionProblem(f, ps, params)
        reference = solve_reference.solve_stages(sp, params)
        for sol in (solve_succ_elim(sp), solve_on_second_order(sp, Strategy.REPRODUCTIVE)):
            assert calls == []
            assert list(sol.components) == reference
