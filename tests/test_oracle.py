import math
import random
import tempfile
import time
import types
from itertools import islice

import pytest

import oracle_reference as reference
from boolsolve import (
    And,
    Atom,
    BOT,
    CheckReport,
    Exists,
    FunctionSpace,
    Not,
    Or,
    SolutionProblem,
    TOP,
    TooLarge,
    TruthTable,
    any_enumerated_solution,
    check_general,
    check_parametric,
    check_particular,
    check_reproductive,
    clean_variant,
    enumerate_solutions,
    equivalent,
    exists_solution,
    formula_from_table,
    parse,
    solve_succ_elim,
    substitute,
    truth_table,
)
from boolsolve import formula, oracle
from boolsolve.semantics import BudgetExceeded
from formula_reference import free_binders
from genutil import QUANT_POOL, random_formula, random_solvable_sp

EXAMPLE = parse("(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))")


def test_function_space():
    space = FunctionSpace(["a"])
    assert len(space) == 4
    assert [f.as_int() for f in space.functions] == [0, 1, 2, 3]
    assert space.formulas[0] == BOT
    assert space.formulas[3] == TOP
    assert equivalent(space.formulas[2], Atom("a"))
    assert equivalent(space.formulas[1], parse("~a"))
    assert len(FunctionSpace(["a", "b"])) == 16


def test_function_space_formulas_are_formula_from_table():
    # The space builds its full DNFs from shared minterms; they must be
    # the very formulas formula_from_table builds, and print the same.
    for basis in [(), ("a",), ("a", "b"), ("a", "b", "c")]:
        space = FunctionSpace(basis)
        for t in space.tables:
            expected = formula_from_table(TruthTable.from_int(t, basis))
            assert space.formula(t) == expected
            assert str(space.formula(t)) == str(expected)


def test_cost_guard():
    sp = SolutionProblem(parse("p"), ["p"])
    with pytest.raises(TooLarge):
        enumerate_solutions(sp, ["a", "b", "c", "d"])
    assert enumerate_solutions(sp, ["a", "b", "c", "d"], allow_large=True)


def test_enumerate_unary():
    sols = enumerate_solutions(SolutionProblem(parse("p <-> a"), ["p"]), ["a"])
    assert len(sols) == 1
    assert equivalent(sols[0].components[0], Atom("a"))


def test_enumerate_golden():
    sols = enumerate_solutions(SolutionProblem(EXAMPLE, ["p1", "p2"]), ["a", "b"])
    tables = {
        tuple(truth_table(c, ("a", "b")).as_int() for c in s.components)
        for s in sols
    }

    def key(*texts):
        return tuple(truth_table(parse(t), ("a", "b")).as_int() for t in texts)

    for pair in [("a", "a"), ("a", "b"), ("false", "a"), ("b", "b"), ("a & b", "a | b")]:
        assert key(*pair) in tables
    for pair in [
        ("b", "a"),
        ("a", "false"),
        ("true", "true"),
        ("true", "false"),
        ("false", "true"),
        ("false", "false"),
    ]:
        assert key(*pair) not in tables

    # the enumeration order: product order of the table integers
    assert [tuple(truth_table(c, ("a", "b")).as_int() for c in s.components) for s in sols] == [
        (0, 8), (0, 10), (0, 12), (0, 14), (2, 8), (2, 10), (2, 12), (2, 14),
        (4, 12), (4, 14), (6, 12), (6, 14), (8, 8), (8, 10), (8, 12), (8, 14),
        (10, 8), (10, 10), (10, 12), (10, 14), (12, 12), (12, 14), (14, 12), (14, 14),
    ]


def test_enumerate_empty_basis():
    # over no basis atoms the candidates are the two constants
    sols = enumerate_solutions(SolutionProblem(parse("p | a"), ["p"]), [])
    assert [s.components for s in sols] == [(TOP,)]
    sols = enumerate_solutions(SolutionProblem(parse("p1 | ~p2"), ["p1", "p2"]), [])
    assert [s.components for s in sols] == [(BOT, BOT), (TOP, BOT), (TOP, TOP)]


def test_any_enumerated_solution_stops_early():
    # 2^32 tuples of functions of 4 atoms solve this tautology; the
    # first one answers
    sp = SolutionProblem(parse("p1 | ~p1 | p2"), ["p1", "p2"])
    start = time.perf_counter()
    assert any_enumerated_solution(sp, ["a", "b", "c", "d"], allow_large=True)
    assert time.perf_counter() - start < 1.0


def test_enumerate_unsolvable_empty():
    sols = enumerate_solutions(
        SolutionProblem(parse("(p1 -> p2) & (a -> p2) & (p2 -> b)"), ["p1", "p2"]),
        ["a", "b"],
    )
    assert sols == []


def test_enumerate_deterministic():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"])
    first = enumerate_solutions(sp, ["a", "b"])
    second = enumerate_solutions(sp, ["a", "b"])
    assert [s.components for s in first] == [s.components for s in second]


def test_enumerate_renames_bound_atoms_apart():
    # the only solution mentions a, which the formula also binds: the
    # bound a is renamed apart, so p := a solves, as the solvers say
    f = parse("(exists a . (p & a & ~a)) | (p <-> a)")
    sp = SolutionProblem(f, ["p"])
    assert exists_solution(sp)
    sols = enumerate_solutions(sp, ["a"])
    assert [s.components for s in sols] == [(Atom("a"),)]
    assert sols == reference.tuple_enumerate_solutions(sp, ["a"])
    assert reference.particular_solutions(sp, FunctionSpace(["a"])) == [[Atom("a")]]


def test_nonemptiness_matches_existence():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.choice((1, 2))
        f = random_formula(
            rng, ("p1", "p2")[:n] + ("a", "b"), depth=4, quant_pool=QUANT_POOL
        )
        sp = SolutionProblem(f, ("p1", "p2")[:n])
        assert any_enumerated_solution(sp, ["a", "b"]) == exists_solution(sp)


def test_check_particular():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"])
    assert check_particular(sp, [parse("a"), parse("b")]).verdict

    report = check_particular(sp, [parse("b"), parse("a")])
    assert not report.verdict
    assert report.failures[0].valuation is not None
    from boolsolve import evaluate, substitute

    bad = substitute(sp.formula, sp.unknowns, [parse("b"), parse("a")])
    assert evaluate(bad, report.failures[0].valuation) is False

    # a component that mentions an unknown is refused before substitution,
    # as the parameterised checks refuse it
    for sol in ([parse("p2"), parse("b")], [parse("a"), parse("p1 & b")]):
        assert check_particular(sp, sol) == reference.MENTIONS_UNKNOWN
    sp = SolutionProblem(parse("p -> q"), ["p", "q"])
    assert check_particular(sp, [parse("p"), TOP]) == reference.MENTIONS_UNKNOWN

    # a component that mentions an atom bound above its unknown: the
    # binder is renamed apart from it
    sp = SolutionProblem(parse("(p | ~p) & exists a . (p | a)"), ["p"])
    assert check_particular(sp, [parse("a")]).verdict
    assert check_particular(sp, [parse("b")]).verdict
    # renamed apart, exists a . ((p <-> a) & ~a) with p := a is ~a, not
    # the valid exists a . ((a <-> a) & ~a)
    sp = SolutionProblem(parse("exists a . ((p <-> a) & ~a)"), ["p"])
    report = check_particular(sp, [parse("a")])
    assert [(f.reason, f.valuation) for f in report.failures] == [
        ("substituted formula falsified", {"a": True})
    ]


def test_check_reproductive_golden():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp)
    assert check_reproductive(sp, rep.components, ["a", "b"]).verdict

    # a constant particular solution is not reproductive: it cannot
    # reproduce the distinct solution (b, b)
    report = check_reproductive(sp, [parse("a"), parse("b")], ["a", "b"])
    assert not report.verdict
    assert any("not reproduced" in f.reason for f in report.failures)


def test_check_parametric():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp)
    assert check_parametric(sp, rep.components, ["a", "b"]).verdict
    # (a, b) is parametric (every instantiation is trivially it) but that
    # is fine; a non-solution is not parametric
    assert not check_parametric(sp, [parse("b"), parse("a")], ["a", "b"]).verdict


def test_check_general():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp)
    assert check_general(sp, rep.components, ["a", "b"]).verdict

    # parametric but not general: constant tuple misses other solutions
    report = check_general(sp, [parse("a"), parse("b")], ["a", "b"])
    assert not report.verdict
    assert any("not reachable" in f.reason for f in report.failures)

    # unary: formula p has the single solution class of true; a constant
    # candidate reaches it, while a bare parameter fails the
    # all-instantiations clause (t := false is no solution)
    sp1 = SolutionProblem(parse("p"), ["p"], parameters=["t"])
    assert check_general(sp1, [TOP], ["a"]).verdict
    report = check_general(sp1, [Atom("t")], ["a"])
    assert not report.verdict


def test_tuple_loop_runs_only_after_a_failure(monkeypatch):
    # a passing check is decided per basis valuation; the loop over
    # tuples of basis functions only lists failures
    def tuple_loop(self, t_tables):
        raise AssertionError("per-tuple loop on a passing check")

    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp).components
    monkeypatch.setattr(oracle._ReproductiveChecker, "failing_row", tuple_loop)
    for check in (check_parametric, check_reproductive, check_general):
        assert check(sp, rep, ["a", "b"]).verdict
    with pytest.raises(AssertionError, match="per-tuple loop"):
        check_parametric(sp, [parse("b"), parse("a")], ["a", "b"])


def test_solution_loop_runs_only_after_a_failure(monkeypatch):
    # clauses (b) and (b') of a passing check are decided per basis
    # valuation; the loop over the enumerated solutions only lists failures
    def solution_loop(composer):
        raise AssertionError("solution loop on a passing check")

    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp).components
    wide = SolutionProblem(
        parse("(a -> p1) & (p2 -> b | c | d)"), ["p1", "p2"], parameters=["t1", "t2"]
    )
    wide_rep = solve_succ_elim(wide).components
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_solution_tables", solution_loop)
        for check in (check_reproductive, check_general):
            assert check(sp, rep, ["a", "b"]).verdict
            # 2^22 solutions over four basis atoms, none enumerated
            assert check(wide, wide_rep, ["a", "b", "c", "d"], allow_large=True).verdict
    # the constant candidate (a, b) reproduces and reaches only itself:
    # every other solution fails, in enumeration order
    candidate = (parse("a"), parse("b"))
    missed = []
    for solution in enumerate_solutions(sp, ["a", "b"]):
        if not all(equivalent(h, g) for h, g in zip(solution.components, candidate)):
            missed.append("solution H = (" + ", ".join(map(str, solution.components)) + ")")
    assert len(missed) == 23
    for check in (check_reproductive, check_general):
        report = check(sp, candidate, ["a", "b"])
        assert [f.subject for f in report.failures] == missed[:5]


def test_failing_solution_clause_lists_five():
    # (a, b | c | d) misses all but one of the 2^22 solutions at basis
    # a b c d; listing stops after the first five
    wide = SolutionProblem(
        parse("(a -> p1) & (p2 -> b | c | d)"), ["p1", "p2"], parameters=["t1", "t2"]
    )
    candidate = [parse("a"), parse("b | c | d")]
    for check, reason in ((check_reproductive, "is not reproduced"),
                          (check_general, "not reachable")):
        start = time.perf_counter()
        report = check(wide, candidate, ["a", "b", "c", "d"], allow_large=True)
        assert time.perf_counter() - start < 1.0
        assert not report.verdict
        assert len(report.failures) == 5
        assert all(reason in f.reason for f in report.failures)
        assert all(f.subject.startswith("solution H = ") for f in report.failures)


def test_reproductive_implies_general():
    rng = random.Random(103)
    for _ in range(20):
        sp = random_solvable_sp(rng, 1, 2, depth=3, parameters=True)
        rep = solve_succ_elim(sp)
        if check_reproductive(sp, rep.components, ["a", "b"]).verdict:
            assert check_general(sp, rep.components, ["a", "b"]).verdict


def test_reproduction_biconditional():
    # for a verified reproductive solution, instantiation by any tuple
    # solves, and a tuple is reproduced exactly when it is a solution
    from boolsolve import substitute

    rng = random.Random(107)
    space = FunctionSpace(["a", "b"])
    for _ in range(10):
        sp = random_solvable_sp(rng, 1, 2, depth=3, parameters=True)
        rep = solve_succ_elim(sp)
        assert check_reproductive(sp, rep.components, ["a", "b"]).verdict
        for candidate in space.formulas:
            inst = substitute(rep.components[0], sp.parameters, [candidate])
            reproduced = equivalent(inst, candidate)
            solves = check_particular(sp, [candidate]).verdict
            assert reproduced == solves


def test_slow_path_with_quantifiers():
    f = parse("forall q1 . (q1 | ~q1) & (p <-> a)")
    sp = SolutionProblem(f, ["p"], parameters=["t"])
    rep = solve_succ_elim(sp)
    assert check_reproductive(sp, rep.components, ["a"]).verdict
    assert check_general(sp, rep.components, ["a"]).verdict


def _bind_above_parameters(g, params, var):
    """``g`` with each free parameter occurrence t replaced by the
    equivalent ``exists var . (t & var)``: a basis function that
    mentions ``var`` put for t needs the binder renamed apart."""
    hidden = [f"{t}_h" for t in params]
    g = substitute(g, params, [Atom(h) for h in hidden])
    return substitute(g, hidden, [Exists(var, And(Atom(t), Atom(var))) for t in params])


def _first_listed(report):
    """A reference report cut to what the oracle lists: the references
    list every solution that fails clause (b) or (b'), the oracle the
    first five.  Both list the first five failing instantiations."""
    listed = [f for f in report.failures if not f.subject.startswith("solution H")]
    listed += [f for f in report.failures if f.subject.startswith("solution H")][:5]
    return CheckReport(report.verdict, tuple(listed))


def _assert_agree(sp, sol, basis):
    # same verdict, and the same failing instantiations and solutions in
    # the same order (the reasons for a falsified instance are worded
    # differently)
    for check in (check_parametric, check_reproductive, check_general):
        fast = check(sp, sol, basis)
        slow = getattr(reference, check.__name__)(sp, sol, basis)
        assert fast.verdict == slow.verdict, (check.__name__, sp.formula, sol)
        assert [f.subject for f in fast.failures] == [
            f.subject for f in _first_listed(slow).failures
        ]


def test_fast_and_slow_paths_agree():
    # the table-composition path must give the same verdicts as
    # substitution
    rng = random.Random(109)
    for _ in range(15):
        sp = random_solvable_sp(rng, rng.choice((1, 2)), 2, depth=3, parameters=True)
        candidates = [solve_succ_elim(sp).components]
        mutated = enumerate_solutions(sp, ("a", "b"))
        if mutated:
            candidates.append(mutated[0].components)  # usually not reproductive
        for sol in candidates:
            fast = check_reproductive(sp, sol, ("a", "b")).verdict
            slow = reference.check_reproductive(sp, sol, ("a", "b")).verdict
            assert fast == slow
            fast = check_general(sp, sol, ("a", "b")).verdict
            slow = reference.check_general(sp, sol, ("a", "b")).verdict
            assert fast == slow

    # quantified problems, with candidates whose quantifier binds a basis
    # atom above a parameter
    renamed = 0
    for _ in range(15):
        sp = random_solvable_sp(
            rng, rng.choice((1, 2)), 2, depth=3, parameters=True, quantifiers=True
        )
        rep = solve_succ_elim(sp).components
        candidates = [rep, [_bind_above_parameters(g, sp.parameters, "a") for g in rep]]
        mutated = enumerate_solutions(sp, ("a", "b"))
        if mutated:
            candidates.append(mutated[0].components)
        for sol in candidates:
            _assert_agree(sp, sol, ("a", "b"))
        renamed += check_parametric(sp, candidates[1], ("a", "b")).verdict
    assert renamed == 15  # every candidate binding a above a parameter passes

    # problems whose quantifiers bind a basis atom above an unknown
    found = passed = 0
    while found < 15:
        f = random_formula(rng, ("p1", "a", "b"), 4, quant_pool=("a", "b"), quant_prob=0.3)
        sp = SolutionProblem(f, ("p1",), ("t1",))
        if not exists_solution(sp):
            continue
        found += 1
        rep = solve_succ_elim(sp).components
        candidates = [rep, [Atom("t1")], [_bind_above_parameters(rep[0], ("t1",), "b")]]
        for sol in candidates:
            _assert_agree(sp, sol, ("a", "b"))
        bound = free_binders(f).get("p1", frozenset()) & {"a", "b"}
        passed += bool(bound) and all(
            check(sp, sol, ("a", "b")).verdict
            for check in (check_parametric, check_reproductive, check_general)
            for sol in (rep, candidates[2])
        )
    assert passed >= 5  # instances under a binder in F pass once renamed apart


def test_checks_rename_bound_atoms_apart():
    # exists a . (t & a) is equivalent to t, and stays so when a basis
    # function mentioning a is put for t: the bound a is renamed apart
    sp = SolutionProblem(parse("p | ~p"), ["p"], parameters=["t"])
    sol = [parse("exists a . (t & a)")]
    for check in (check_parametric, check_reproductive, check_general):
        report = check(sp, sol, ["a"])
        assert report == CheckReport(True)
        assert report == getattr(reference, check.__name__)(sp, sol, ["a"])
        assert report == getattr(reference, "tuple_" + check.__name__)(sp, sol, ["a"])

    # a binder in F: an instance mentioning a does not land under exists a
    sp = SolutionProblem(parse("(p | ~p) & exists a . (p | a)"), ["p"], parameters=["t"])
    for check in (check_parametric, check_reproductive, check_general):
        report = check(sp, [Atom("t")], ["a"])
        assert report == CheckReport(True)
        assert report == getattr(reference, check.__name__)(sp, [Atom("t")], ["a"])
        assert report == getattr(reference, "tuple_" + check.__name__)(sp, [Atom("t")], ["a"])


def test_checks_are_invariant_under_renaming_bound_atoms():
    # Substitution reads binders up to renaming: the problem and the
    # candidate with their binders renamed apart from the basis and the
    # parameters get the same reports.  A particular check's failure
    # prints the candidate, so there a renamed candidate keeps only the
    # reasons and valuations.
    rng = random.Random(127)
    basis = ("a", "b")
    renamed_f = renamed_g = 0
    for i in range(60):
        unknowns, params = ("p1", "p2")[: 1 + i % 2], ("t1", "t2")[: 1 + i % 2]
        f = random_formula(rng, unknowns + basis, 4, quant_pool=basis, quant_prob=0.3)
        sp = SolutionProblem(f, unknowns, params)
        clean_sp = SolutionProblem(clean_variant(f, basis + params), unknowns, params)
        renamed_f += clean_sp.formula != f
        enumerated = enumerate_solutions(sp, basis)
        assert enumerated == enumerate_solutions(clean_sp, basis)
        candidates = [
            [random_formula(rng, basis + params, 3, quant_pool=basis, quant_prob=0.3)
             for _ in params]
            for _ in range(2)
        ]
        if enumerated:
            candidates.append(enumerated[0].components)
        if exists_solution(sp):
            rep = solve_succ_elim(sp).components
            candidates += [rep, [_bind_above_parameters(g, params, "a") for g in rep]]
        for sol in candidates:
            clean_sol = [clean_variant(g, basis) for g in sol]
            renamed_g += clean_sol != list(sol)
            report = check_particular(sp, sol)
            assert report == check_particular(clean_sp, sol)
            assert [(f.reason, f.valuation) for f in report.failures] == [
                (f.reason, f.valuation) for f in check_particular(clean_sp, clean_sol).failures
            ]
            for check in (check_parametric, check_reproductive, check_general):
                assert check(sp, sol, basis) == check(clean_sp, clean_sol, basis), (
                    check.__name__, str(f), [str(g) for g in sol]
                )
    assert renamed_f >= 30 and renamed_g >= 100, (renamed_f, renamed_g)


def test_basis_must_not_meet_unknowns_or_parameters():
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp).components
    for check in (check_parametric, check_reproductive, check_general):
        for basis in (["a", "p1"], ["a", "t1"]):
            with pytest.raises(ValueError):
                check(sp, rep, basis)
        # the basis is sorted and deduplicated
        assert check(sp, rep, ["b", "a", "a"]).verdict
    for enumerate_ in (enumerate_solutions, any_enumerated_solution):
        with pytest.raises(ValueError):
            enumerate_(sp, ["a", "p1"])


CHECKS = ("check_parametric", "check_reproductive", "check_general")


def _matches_per_tuple(sp, candidates, basis):
    """The oracle's reports on the candidates, after requiring that they
    and the enumerations equal the per-tuple reference's exactly:
    failures, their reasons, valuations and order included, up to the
    first five failures of each clause.  Each report comes with the
    number of failures the reference listed."""
    enumerated = enumerate_solutions(sp, basis)
    assert enumerated == reference.tuple_enumerate_solutions(sp, basis), (sp.formula, basis)
    assert any_enumerated_solution(sp, basis) == bool(enumerated)
    reports = []
    for sol in candidates:
        for name in CHECKS:
            report = getattr(oracle, name)(sp, sol, basis)
            full = getattr(reference, "tuple_" + name)(sp, sol, basis)
            expected = _first_listed(full)
            assert report == expected, (name, str(sp.formula), [str(g) for g in sol], basis)
            reports.append((report, len(full.failures)))
    return reports


def test_per_valuation_checks_match_per_tuple_reference(monkeypatch):
    # The checks decided per basis valuation against the loops over
    # every tuple of basis functions: bases of 0 to 3 atoms (1 unknown at
    # 3), problems with and without quantifiers, binders that bind a basis
    # atom above an unknown, and candidates that are solver outputs,
    # enumerated solutions, bare parameters, candidates binding a basis
    # atom above a parameter, components mentioning an atom outside
    # the basis, and components mentioning an unknown.
    decided = {True: 0, False: 0}  # clause (b) or (b') decided outright, or listed
    every_solution = oracle._ReproductiveChecker.every_solution

    def counted(self, passing):
        outright = every_solution(self, passing)
        decided[outright] += 1
        return outright

    monkeypatch.setattr(oracle._ReproductiveChecker, "every_solution", counted)
    rng = random.Random(113)
    shapes = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    pools = ((), QUANT_POOL, ("a", "b"), ("a", "q1"))
    verdicts, reasons = set(), set()
    bound_unknowns = cut = 0
    for i in range(84):  # every shape with every pool, three times
        width, n = shapes[i % len(shapes)]
        basis = ("a", "b", "c")[:width]
        unknowns, params = ("p1", "p2")[:n], ("t1", "t2")[:n]
        pool = pools[i % len(pools)]
        f = random_formula(rng, unknowns + ("a", "b"), 4, quant_pool=pool, quant_prob=0.3)
        if pool == ("a", "b"):
            # a valid conjunct that binds a above the last unknown
            last = Atom(unknowns[-1])
            f = And(f, Exists("a", Or(And(last, Atom("a")), Not(last))))
        sp = SolutionProblem(f, unknowns, params)
        binders = free_binders(f)
        bound_unknowns += any(binders.get(p, frozenset()) & set(basis) for p in unknowns)
        candidates = [[Atom(t) for t in params]]
        if exists_solution(sp):
            rep = solve_succ_elim(sp).components
            candidates += [rep, [_bind_above_parameters(g, params, "a") for g in rep]]
        sols = enumerate_solutions(sp, basis)
        if sols:
            candidates += [sols[0].components, sols[-1].components]
        outside = ("a", "b", "c", "d")[width]
        candidates.append(
            [random_formula(rng, (outside, "a") + params, 3, quant_pool=("a",)) for _ in params]
        )
        candidates.append([Or(Atom(t), Atom(unknowns[-1])) for t in params])
        for report, listed in _matches_per_tuple(sp, candidates, basis):
            cut += listed > len(report.failures)
            verdicts.add(report.verdict)
            reasons |= {failure.reason.split(" at ")[0] for failure in report.failures}
    assert bound_unknowns >= 15
    # both ways of deciding clauses (b) and (b') were compared
    assert decided[True] >= 100 and decided[False] >= 100
    # some reports stopped after five failing solutions
    assert cut >= 50, cut
    # passing checks and every kind of failure were compared
    assert verdicts == {True, False}
    assert {
        "components mention an unknown",
        "instantiated components do not solve the problem",
        "not reachable by any parameter instantiation",
    } <= reasons
    assert any(r.endswith("is not reproduced") for r in reasons)


def _random_allowed(rng, n, width):
    """Allowed value tuples of n unknowns at each of the 2^width basis
    valuations: each row nonempty and of random density, or now and
    then empty."""
    density = rng.random()
    return [
        0
        if rng.random() < 0.02
        else 1 << rng.randrange(1 << n)
        | sum(1 << v for v in range(1 << n) if rng.random() < density)
        for _ in range(1 << width)
    ]


def test_flat_enumeration_matches_nested_reference():
    # The whole sequence of tuples, in order, for 1-3 unknowns over 0-3
    # basis atoms; sets of at most 4096 solutions keep the test short.
    rng = random.Random(127)
    shapes, empty, tuples, compared = set(), 0, 0, 0
    while compared < 3000:
        n, width = rng.randint(1, 3), rng.randint(0, 3)
        allowed = _random_allowed(rng, n, width)
        if math.prod(bin(a).count("1") for a in allowed) > 4096:
            continue
        composer = types.SimpleNamespace(allowed=allowed, n_unknowns=n)
        flat = list(oracle._solution_tables(composer))
        assert flat == list(reference.nested_solution_tables(composer)), (n, allowed)
        compared += 1
        shapes.add((n, width))
        empty += not flat
        tuples += len(flat)
    assert len(shapes) == 12 and empty >= 100 and tuples >= 300_000, (shapes, empty, tuples)
    # no unknowns: one empty tuple, or none when some row is empty
    for allowed in ([1], [1, 1], [1, 0]):
        composer = types.SimpleNamespace(allowed=allowed, n_unknowns=0)
        assert list(oracle._solution_tables(composer)) == [()] * all(allowed)
    # lazy: 2^64 solutions over 5 basis atoms, the first ones at once
    composer = types.SimpleNamespace(allowed=[15] * 32, n_unknowns=2)
    first = [(0, 0), (0, 1), (0, 2)]
    assert list(islice(oracle._solution_tables(composer), 3)) == first


def _count_scans(monkeypatch):
    """A list that counts every name scan from now on."""
    calls = []
    scan = formula._scan

    def counted(f):
        calls.append(f)
        return scan(f)

    monkeypatch.setattr(formula, "_scan", counted)
    return calls


def test_checks_scan_only_candidates_outside_the_problems_atoms(monkeypatch):
    # verify's candidates name only F's atoms, the basis and the
    # parameters: every check walks each component once, for its table
    import bench_golden  # noqa: F401  (puts bench/ on the path)
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build_verify(random.Random(1), workloads.ProblemFiles(workdir))
    scans = _count_scans(monkeypatch)
    checks = [op for op in ops if "check" in op.label]
    assert len(checks) == 80
    for op in checks:
        op.check(op.run())
    assert scans == []
    # a component naming an unknown, or an atom outside F and the basis,
    # is scanned once, and reported as the name scan reports it
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp).components
    candidates = [
        [parse("p2"), rep[1]],
        [rep[0], parse("p1 & t2")],
        [parse("c & t1"), rep[1]],
        [rep[0], parse("exists a . a & d | t2")],
    ]
    for sol in candidates:
        for name in CHECKS:
            del scans[:]
            report = getattr(oracle, name)(sp, sol, ["a", "b"])
            assert scans == list(sol)
            full = getattr(reference, "tuple_" + name)(sp, sol, ["a", "b"])
            assert report == _first_listed(full)
    assert oracle.check_reproductive(sp, candidates[1], ["a", "b"]) == reference.MENTIONS_UNKNOWN


def test_unknown_mention_reported_before_the_problems_table(monkeypatch):
    # F's table is built only for a candidate free of the unknowns, so
    # the mention is reported whatever F's width
    sp = SolutionProblem(EXAMPLE, ["p1", "p2"], parameters=["t1", "t2"])
    rep = solve_succ_elim(sp).components
    wide_f = And(EXAMPLE, parse(" | ".join(f"x{i}" for i in range(27))))
    wide = SolutionProblem(wide_f, ["p1", "p2"], parameters=["t1", "t2"])
    for name in CHECKS:
        check = getattr(oracle, name)
        assert check(wide, [parse("p2"), rep[1]], ["a", "b"]) == reference.MENTIONS_UNKNOWN
        with pytest.raises(BudgetExceeded):
            check(wide, rep, ["a", "b"])

    class Refused:
        def __init__(self, *args):
            raise AssertionError("F's table built for a candidate naming an unknown")

    monkeypatch.setattr(oracle, "_Composer", Refused)
    for sol in ([parse("p2"), rep[1]], [parse("c & t1"), parse("p1 | d")]):
        for name in CHECKS:
            assert getattr(oracle, name)(sp, sol, ["a", "b"]) == reference.MENTIONS_UNKNOWN
