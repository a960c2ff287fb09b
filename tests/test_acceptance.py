"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything is deterministic: fixed seeds, fixed enumeration
orders.
"""

import random
from itertools import product

from boolsolve import (
    And,
    Atom,
    BOT,
    Exists,
    FunctionSpace,
    Iff,
    Implies,
    Not,
    Or,
    Solution,
    SolutionKind,
    SolutionProblem,
    Strategy,
    TOP,
    any_enumerated_solution,
    check_parametric,
    check_particular,
    check_reproductive,
    clean_variant,
    disj,
    entails,
    enumerate_solutions,
    equivalent,
    exists_solution,
    Forall,
    free_atoms,
    parse,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
    substitute,
    truth_table,
    weakest_precondition,
)
from boolsolve.semantics import minterm
from elimination_reference import (
    DisjunctWitnesses,
    ackermann_rewrite,
    ehw_combine,
    elim_witness,
    elim_witness_dnf,
    forall_eliminate,
)
from formula_reference import free_binders, is_substitutible
from genutil import QUANT_POOL, random_formula, random_solvable_sp
import solve_reference
from solve_reference import rigorous_solution

EXAMPLE_1 = parse("(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))")
EXAMPLE_3 = parse("(p1 -> p2) & (a -> p2) & (p2 -> b)")


def _report(number: int, description: str, failures: list, total: int) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f"{total - len(failures)}/{total} checks"
    print(f"[{status}] criterion {number}: {description} ({detail})")
    assert not failures, f"criterion {number}: first failures: {failures[:5]}"


def _table_key(components, basis):
    return tuple(truth_table(c, basis).as_int() for c in components)


def test_criterion_1_golden_example_enumeration():
    """Enumeration over {a, b} classifies the named tuples exactly."""
    sp = SolutionProblem(EXAMPLE_1, ["p1", "p2"])
    enumerated = {
        _table_key(s.components, ("a", "b"))
        for s in enumerate_solutions(sp, ["a", "b"])
    }

    def key(x, y):
        return _table_key((parse(x), parse(y)), ("a", "b"))

    expected_in = [
        ("a", "a"),
        ("a", "b"),
        ("false", "a"),
        ("b", "b"),
        ("a & b", "a | b"),
    ]
    expected_out = [
        ("b", "a"),
        ("a", "false"),
        ("true", "true"),
        ("true", "false"),
        ("false", "true"),
        ("false", "false"),
    ]
    failures = []
    for pair in expected_in:
        if key(*pair) not in enumerated:
            failures.append(("missing solution", pair))
    for pair in expected_out:
        if key(*pair) in enumerated:
            failures.append(("spurious solution", pair))
    _report(1, "golden enumeration of the chain example", failures,
            len(expected_in) + len(expected_out))


def test_criterion_2_golden_elimination_precondition():
    """The antecedent-free chain problem is unsolvable; its weakest
    precondition is a -> b in its irredundant two-level form, ~a | b,
    and restores solvability when prepended."""
    failures = []
    sp = SolutionProblem(EXAMPLE_3, ["p1", "p2"])
    if exists_solution(sp):
        failures.append("antecedent-free problem should be unsolvable")
    wp = weakest_precondition(["p1", "p2"], EXAMPLE_3)
    canonical = parse("~a | b")
    if wp != canonical:
        failures.append(f"weakest precondition {wp} != canonical {canonical}")
    if not exists_solution(SolutionProblem(Implies(wp, EXAMPLE_3), ["p1", "p2"])):
        failures.append("prepending the precondition should make it solvable")
    _report(2, "weakest precondition golden example", failures, 3)


def _family_instances(unknowns, bases):
    """All Boolean functions over unknowns+bases as canonical formulas,
    paired with a closed-form exhaustive solvability check."""
    atoms = tuple(sorted(unknowns + bases))
    positions = {a: i for i, a in enumerate(atoms)}
    upos = [positions[p] for p in unknowns]
    bpos = [positions[b] for b in bases]
    base_count = 1 << len(bases)
    # per candidate function tuple: the set of rows that must be true
    masks = []
    for tables in product(range(1 << base_count), repeat=len(unknowns)):
        m = 0
        for w in range(base_count):
            row = 0
            for k, p in enumerate(bpos):
                if (w >> k) & 1:
                    row |= 1 << p
            for j, p in enumerate(upos):
                if (tables[j] >> w) & 1:
                    row |= 1 << p
            m |= 1 << row
        masks.append(m)
    minterms = [minterm(i, atoms) for i in range(1 << len(atoms))]
    size = 1 << (1 << len(atoms))

    def build(f_int):
        if f_int == 0:
            return BOT
        if f_int == size - 1:
            return TOP
        return disj(m for i, m in enumerate(minterms) if (f_int >> i) & 1)

    def solvable(f_int):
        return any((f_int & m) == m for m in masks)

    return build, solvable, size


def test_criterion_3_existence_law_exhaustive():
    """Solvability via the existential closure agrees with exhaustive
    function-tuple search on every semantically distinct problem with
    1-2 unknowns and 1-2 base atoms (66,064 instances)."""
    failures = []
    total = 0
    for unknowns, bases in [
        (("p1",), ("a",)),
        (("p1",), ("a", "b")),
        (("p1", "p2"), ("a",)),
        (("p1", "p2"), ("a", "b")),
    ]:
        build, solvable, size = _family_instances(unknowns, bases)
        small = size <= 256
        for f_int in range(size):
            total += 1
            formula = build(f_int)
            sp = SolutionProblem(formula, unknowns)
            lib = exists_solution(sp)
            brute = solvable(f_int)
            if lib != brute:
                failures.append((unknowns, bases, f_int, lib, brute))
            elif small and any_enumerated_solution(sp, bases) != brute:
                failures.append((unknowns, bases, f_int, "module oracle disagrees"))
    assert total >= 10_000
    # spot-check the module oracle against the closed form on the big family
    build, solvable, size = _family_instances(("p1", "p2"), ("a", "b"))
    rng = random.Random(300)
    for f_int in rng.sample(range(size), 300):
        sp = SolutionProblem(build(f_int), ("p1", "p2"))
        if any_enumerated_solution(sp, ("a", "b")) != solvable(f_int):
            failures.append(("oracle spot-check", f_int))
    _report(3, "existence law on the exhaustive semantic families", failures, total)


def _random_sp_mix(rng, parameters):
    n = rng.choice((1, 2))
    base = rng.choice((1, 2))
    return random_solvable_sp(
        rng,
        n,
        base,
        depth=4,
        parameters=parameters,
        quantifiers=rng.random() < 0.15,
    )


def _ackermann_then_f_true(p, f):
    return ackermann_rewrite(p, f) or elim_witness(p, f)


def _witness_loop(sp, witness):
    """The right-to-left formula loop with another witness construction."""
    return Solution(solve_reference.solve_by_witnesses(sp, witness), SolutionKind.PARTICULAR)


def test_criterion_4_solver_soundness():
    """Every solver output on 1000 random solvable problems is a valid
    particular solution; reproductive outputs additionally solve under
    every basis-function instantiation of their parameters."""
    rng = random.Random(401)
    failures = []
    total = 0
    for i in range(1000):
        sp = _random_sp_mix(rng, parameters=True)
        basis = tuple(sorted(set(free_atoms(sp.formula)) - set(sp.unknowns)))
        outputs = [
            ("succ-elim", solve_succ_elim(sp), True),
            ("second-order/interval", solve_on_second_order(sp, Strategy.INTERVAL), False),
            ("second-order/reproductive", solve_on_second_order(sp, Strategy.REPRODUCTIVE), True),
            ("witnesses/f-true", solve_by_witnesses(sp), False),
            ("witnesses/dnf-ehw", _witness_loop(sp, elim_witness_dnf), False),
            ("witnesses/ackermann", _witness_loop(sp, _ackermann_then_f_true), False),
        ]
        for name, sol, reproductive in outputs:
            total += 1
            if not check_particular(sp, sol.components).verdict:
                failures.append((i, name, "not a particular solution"))
            elif reproductive and not check_parametric(
                sp, sol.components, basis or ("a",)
            ).verdict:
                failures.append((i, name, "some instantiation fails"))
    _report(4, "solver soundness on 1000 random solvable problems", failures, total)


def test_solver_soundness_when_binders_reuse_base_atom_names():
    """Criterion 4 on 400 random formulas whose binders are named like
    the base atoms, often above an unknown.  Substitution renames them
    apart, as the solvers' masks do, so every output passes its checks."""
    rng = random.Random(7)
    failures = []
    total = bound = 0
    for i in range(400):
        f = random_formula(
            rng, ("p1", "p2", "a", "b"), depth=4, quant_pool=("a", "b"), quant_prob=0.3
        )
        sp = SolutionProblem(f, ("p1", "p2"), parameters=("t1", "t2"))
        if not exists_solution(sp):
            continue
        binders = free_binders(f)
        bound += any(binders.get(p, frozenset()) & {"a", "b"} for p in sp.unknowns)
        outputs = [
            ("succ-elim", solve_succ_elim(sp), True),
            ("second-order/interval", solve_on_second_order(sp, Strategy.INTERVAL), False),
            ("witnesses/f-true", solve_by_witnesses(sp), False),
        ]
        for name, sol, reproductive in outputs:
            total += 1
            if not check_particular(sp, sol.components).verdict:
                failures.append((i, name, "not a particular solution"))
            elif reproductive and not check_parametric(sp, sol.components, ("a", "b")).verdict:
                failures.append((i, name, "some instantiation fails"))
    assert bound >= 100, bound
    _report(4, "solver soundness with binders named like base atoms", failures, total)


def test_criterion_5_reproductivity():
    """Successive-elimination outputs and rigorous solutions grown from
    oracle-found particular solutions are reproductive against the full
    enumerated solution set."""
    rng = random.Random(501)
    failures = []
    total = 0
    instances = [
        SolutionProblem(EXAMPLE_1, ["p1", "p2"], parameters=["t1", "t2"]),
        SolutionProblem(parse("p <-> a"), ["p"], parameters=["t"]),
        SolutionProblem(parse("(a -> b) -> ((a -> p) & (p -> b))"), ["p"], parameters=["t"]),
        SolutionProblem(TOP, ["p"], parameters=["t"]),
    ]
    instances += [_random_sp_mix(rng, parameters=True) for _ in range(150)]
    for i, sp in enumerate(instances):
        basis = tuple(sorted(set(free_atoms(sp.formula)) - set(sp.unknowns))) or ("a",)
        rep = solve_succ_elim(sp)
        total += 1
        if not check_reproductive(sp, rep.components, basis).verdict:
            failures.append((i, "succ-elim output not reproductive"))
        particulars = enumerate_solutions(sp, basis)
        if particulars:
            rig = rigorous_solution(sp, particulars[0])
            total += 1
            if not check_reproductive(sp, rig.components, basis).verdict:
                failures.append((i, "rigorous solution not reproductive"))
    _report(5, "reproductivity of succ-elim and rigorous solutions", failures, total)


def test_criterion_6_interval_law():
    """For 500 random solvable unary problems, the enumerated solutions
    are exactly the basis functions between the two cofactor bounds."""
    rng = random.Random(601)
    failures = []
    done = 0
    while done < 500:
        base = rng.choice((1, 2))
        bases = ("a", "b")[:base]
        f = random_formula(rng, ("p",) + bases, depth=4)
        sp = SolutionProblem(f, ["p"])
        if not exists_solution(sp):
            continue
        done += 1
        lower = Not(substitute(f, ["p"], [BOT]))
        upper = substitute(f, ["p"], [TOP])
        enumerated = {
            _table_key(s.components, bases)
            for s in enumerate_solutions(sp, bases)
        }
        space = FunctionSpace(bases)
        expected = {
            (t,)
            for t in space.tables
            if entails(lower, space.formula(t)) and entails(space.formula(t), upper)
        }
        if enumerated != expected:
            failures.append((str(f), sorted(enumerated), sorted(expected)))
    _report(6, "interval law on 500 random solvable unary problems", failures, done)


def test_criterion_7_witness_laws():
    """Eliminating by witness substitution agrees with the quantifier on
    1000 random formulas, for the cofactor and DNF-combination methods
    (and the positive-shape rewriting where it applies); the two-disjunct
    hand example is reproduced."""
    rng = random.Random(701)
    failures = []
    total = 0
    for i in range(1000):
        quantified = rng.random() < 0.2
        f = random_formula(
            rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL if quantified else ()
        )
        target = Exists("p", f)
        total += 1
        if not equivalent(target, elim_witness("p", f).residue):
            failures.append((i, "cofactor witness", str(f)))
        total += 1
        if not equivalent(target, elim_witness_dnf("p", f).residue):
            failures.append((i, "dnf witness", str(f)))
        if i % 3 == 0:
            g = random_formula(rng, ("a", "b"), depth=2)
            rest = random_formula(rng, ("p", "a", "b"), depth=3)
            shaped = And(Implies(g, Atom("p")), rest)
            res = ackermann_rewrite("p", shaped)
            if res is not None:
                total += 1
                if not equivalent(Exists("p", shaped), res.residue):
                    failures.append((i, "ackermann residue", str(shaped)))
    # the hand example: disjuncts p & a and ~p & b, witnesses true/false
    dw = DisjunctWitnesses((parse("p & a"), parse("~p & b")), (TOP, BOT))
    combined = ehw_combine("p", dw)
    whole = parse("(p & a) | (~p & b)")
    residue = substitute(whole, ["p"], [combined])
    total += 1
    if not (
        equivalent(combined, parse("a | ~b"))
        and equivalent(residue, parse("a | b"))
        and equivalent(residue, Exists("p", whole))
        and is_substitutible([combined], ["p"], whole)
    ):
        failures.append(("hand example", str(combined), str(residue)))
    _report(7, "witness laws on 1000 random formulas", failures, total)


def test_criterion_7_core_witness_removes_quantifier():
    """On criterion 7's formulas, the package's own witness, the core's
    upper bound for ``p`` in ``exists p . F -> F``, removes the
    quantifier when substituted into a clean variant of F."""
    rng = random.Random(701)
    failures = []
    total = 0
    for i in range(1000):
        quantified = rng.random() < 0.2
        f = random_formula(
            rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL if quantified else ()
        )
        if i % 3 == 0:  # criterion 7's Ackermann-shaped draws, skipped
            random_formula(rng, ("a", "b"), depth=2)
            random_formula(rng, ("p", "a", "b"), depth=3)
        sp = SolutionProblem(Implies(Exists("p", f), f), ["p"])
        witness = solve_by_witnesses(sp).components[0]
        residue = substitute(clean_variant(f, avoid=free_atoms(witness)), ["p"], [witness])
        total += 1
        if not equivalent(Exists("p", f), residue):
            failures.append((i, str(f), str(witness)))
    _report(7, "core witness removes the quantifier on 1000 random formulas", failures, total)


def test_criterion_8_weakest_precondition_maximality():
    """Every basis-definable unknown-free antecedent that makes the
    problem solvable entails the weakest precondition."""
    rng = random.Random(801)
    failures = []
    total = 0
    space = FunctionSpace(("a", "b"))
    for i in range(100):
        n = rng.choice((1, 2))
        unknowns = ("p1", "p2")[:n]
        f = random_formula(rng, unknowns + ("a", "b"), depth=4)
        wp = weakest_precondition(unknowns, f)
        total += 1
        if not exists_solution(SolutionProblem(Implies(wp, f), unknowns)):
            failures.append((i, "precondition does not restore solvability"))
        for t in space.tables:
            candidate = space.formula(t)
            total += 1
            if exists_solution(SolutionProblem(Implies(candidate, f), unknowns)):
                if not entails(candidate, wp):
                    failures.append((i, str(candidate), "stronger antecedent missed"))
    _report(8, "weakest precondition maximality", failures, total)


def test_criterion_9_restricted_solving():
    """Restricted solving returns components free of the forbidden atoms
    and valid, on 200 random restricted solvable problems; the
    definitional-equivalence demo returns components equivalent to
    (a, b)."""
    rng = random.Random(901)
    failures = []
    done = 0
    while done < 200:
        n = rng.choice((1, 2))
        unknowns = ("p1", "p2")[:n]
        f = random_formula(rng, unknowns + ("a", "b"), depth=4)
        forbidden = rng.choice((("a",), ("b",), ("a", "b")))
        with_params = rng.random() < 0.5
        params = ("t1", "t2")[:n] if with_params else None
        sp = SolutionProblem(f, unknowns, parameters=params, forbidden=forbidden)
        encoded = f
        for atom in reversed(forbidden):
            encoded = forall_eliminate(atom, encoded)
        if not exists_solution(SolutionProblem(encoded, unknowns)):
            continue
        done += 1
        sol = solve_restricted(sp)
        touched = set().union(*(free_atoms(c) for c in sol.components)) & set(forbidden)
        if touched:
            failures.append((done, "component mentions forbidden atom", sorted(touched)))
            continue
        base_sp = SolutionProblem(f, unknowns)
        if sol.kind is SolutionKind.REPRODUCTIVE:
            basis = tuple(
                sorted(set(free_atoms(f)) - set(unknowns) - set(forbidden))
            ) or ("c",)
            if not check_parametric(sp, sol.components, basis).verdict:
                failures.append((done, "restricted reproductive output invalid"))
        elif not check_particular(base_sp, sol.components).verdict:
            failures.append((done, "restricted output not a solution"))
    # definitional-equivalence demo
    f = parse("(a & (b <-> p)) <-> (b & (a <-> q))")
    demo_sp = SolutionProblem(f, ["p", "q"], parameters=["t1", "t2"])
    demo = solve_restricted(demo_sp, [["b"], ["a"]])
    total = done + 1
    if not (
        equivalent(demo.components[0], parse("a"))
        and equivalent(demo.components[1], parse("b"))
        and set(free_atoms(demo.components[0])) <= {"a"}
        and set(free_atoms(demo.components[1])) <= {"b"}
    ):
        failures.append(("demo", [str(c) for c in demo.components]))
    _report(9, "restricted solving and definitional-equivalence demo", failures, total)


def test_criterion_10_metamorphic_substitution():
    """Substitution agrees with definition-inlining under both
    quantifiers, and distributes over a selector combination, on 1000
    random substitutible instances."""
    rng = random.Random(1001)
    failures = []
    total = 0
    done = 0
    while done < 500:
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        g = random_formula(rng, ("a", "b"), depth=3)
        if not is_substitutible([g], ["p"], f):
            continue
        done += 1
        total += 1
        subbed = substitute(f, ["p"], [g])
        p = Atom("p")
        if not (
            equivalent(subbed, Exists("p", And(f, Iff(p, g))))
            and equivalent(subbed, Forall("p", Or(f, Not(Iff(p, g)))))
        ):
            failures.append(("inline", str(f), str(g)))
    done = 0
    while done < 500:
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        v = random_formula(rng, ("a", "b"), depth=2)
        w = random_formula(rng, ("a", "b"), depth=2)
        s = random_formula(rng, ("a", "b"), depth=2)
        mixed = Or(And(s, v), And(Not(s), w))
        if not is_substitutible([mixed], ["p"], f):
            continue
        done += 1
        total += 1
        lhs = substitute(f, ["p"], [mixed])
        rhs = Or(
            And(s, substitute(f, ["p"], [v])),
            And(Not(s), substitute(f, ["p"], [w])),
        )
        if not equivalent(lhs, rhs):
            failures.append(("selector", str(f)))
    _report(10, "metamorphic substitution laws on 1000 instances", failures, total)
