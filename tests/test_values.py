"""Value semantics of formula nodes and result records: construction,
structural equality and hashing, immutability, printing and copying."""

import copy
import pickle

import pytest

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    CheckFailure,
    CheckReport,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Solution,
    SolutionKind,
    SolutionProblem,
    Top,
    TruthTable,
    check_parametric,
    check_particular,
    check_reproductive,
    parse,
    solve_restricted,
)
from boolsolve.cli import ProblemFile, ProblemFileError, parse_problem_file

a, b = Atom("a"), Atom("b")

NODES = [
    TOP,
    BOT,
    a,
    Not(a),
    And(a, b),
    Or(a, b),
    Implies(a, b),
    Iff(a, b),
    Exists("q", a),
    Forall("q", a),
]


def test_nodes_of_different_types_differ():
    assert And(a, b) != Or(a, b)
    assert Implies(a, b) != Iff(a, b)
    assert Exists("q", a) != Forall("q", a)
    assert Top() != Bot()
    assert And(a, b).__eq__(Or(a, b)) is NotImplemented
    assert Exists("q", a).__eq__(Forall("q", a)) is NotImplemented
    assert a.__eq__("a") is NotImplemented
    for i, f in enumerate(NODES):
        for j, g in enumerate(NODES):
            assert (f == g) == (i == j), (f, g)


def test_equal_trees_compare_and_hash_equal():
    text = "exists q . (a & ~q -> b) <-> forall r . (r | a)"
    f, g = parse(text), parse(text)
    assert f is not g
    assert f == g and not (f != g)
    assert hash(f) == hash(g)
    assert {f: 1}[g] == 1
    assert len({f, g, parse("a | b")}) == 2
    assert Top() == TOP and hash(Top()) == hash(TOP)
    assert And(a, Not(b)) != And(a, Not(a))
    assert Exists("q", a) != Exists("r", a)


@pytest.mark.parametrize("node", NODES, ids=lambda f: type(f).__name__)
def test_nodes_are_immutable(node):
    for name in ("name", "operand", "left", "right", "var", "body", "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, a)
        with pytest.raises(AttributeError):
            delattr(node, name)


def test_node_fields_after_failed_assignment():
    f = And(a, b)
    with pytest.raises(AttributeError):
        f.left = b
    assert f.left is a and f.right is b


def test_keyword_construction():
    assert And(left=a, right=b) == And(a, b)
    assert Or(a, right=b) == Or(a, b)
    assert Not(operand=a) == Not(a)
    assert Atom(name="a") == a
    assert Exists(var="q", body=a) == Exists("q", a)
    assert Forall(body=a, var="q") == Forall("q", a)
    with pytest.raises(TypeError):
        And(a)
    with pytest.raises(TypeError):
        Atom("a", "b")
    with pytest.raises(TypeError):
        Top(a)


def test_positional_patterns():
    match parse("exists q . a & ~q"):
        case Exists(var, And(Atom(name), Not(operand))):
            assert (var, name, operand) == ("q", "a", Atom("q"))
        case _:
            pytest.fail("the node's fields did not match positionally")
    match CheckReport(True):
        case CheckReport(verdict, failures):
            assert verdict is True and failures == ()


def test_node_str_and_repr():
    f = parse("exists q . (a & ~q -> b) | forall r . (r <-> a)")
    assert str(f) == "exists q . (a & ~q -> b) | (forall r . r <-> a)"
    assert repr(f) == f"<{f}>"
    assert repr(And(a, b)) == "<a & b>"
    assert repr(TOP) == "<true>" and repr(BOT) == "<false>"
    assert repr(Not(And(a, b))) == "<~(a & b)>"


@pytest.mark.parametrize("node", NODES, ids=lambda f: type(f).__name__)
def test_nodes_copy_and_pickle(node):
    for clone in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert clone == node and type(clone) is type(node)
        assert hash(clone) == hash(node)


def test_solution_problem_equality_ignores_free():
    f = parse("(a -> p) & (p -> b)")
    first, second = SolutionProblem(f, ["p"]), SolutionProblem(f, ("p",))
    assert first.free == ("a", "b", "p")
    assert first == second and hash(first) == hash(second)
    assert SolutionProblem(f, ["p"], ["t"]) != first
    assert SolutionProblem(f, ["p"], forbidden=["b", "a", "b"]).forbidden == ("a", "b")
    assert repr(SolutionProblem(parse("p & a"), ["p"], ["t"], ["a"])) == (
        "SolutionProblem(formula=<p & a>, unknowns=('p',), "
        "parameters=('t',), forbidden=('a',))"
    )
    with pytest.raises(ValueError):
        SolutionProblem(f, ["p", "p"])
    with pytest.raises(ValueError):
        SolutionProblem(f, ["p"], ["a"])
    with pytest.raises(AttributeError):
        first.formula = TOP
    with pytest.raises(AttributeError):
        del first.unknowns
    clone = pickle.loads(pickle.dumps(first))
    assert clone == first and clone.free == first.free


def test_solution_record():
    sol = Solution([TOP, And(a, Not(a))], SolutionKind.PARTICULAR)
    assert sol.components == (TOP, And(a, Not(a)))
    assert sol == Solution((TOP, And(a, Not(a))), SolutionKind.PARTICULAR)
    assert sol != Solution((TOP, And(a, Not(a))), SolutionKind.REPRODUCTIVE)
    same = Solution(components=(TOP, And(a, Not(a))), kind=SolutionKind.PARTICULAR)
    assert hash(sol) == hash(same)
    assert repr(sol) == (
        "Solution(components=(<true>, <a & ~a>), "
        "kind=<SolutionKind.PARTICULAR: 'particular'>)"
    )
    with pytest.raises(AttributeError):
        sol.kind = SolutionKind.REPRODUCTIVE
    assert pickle.loads(pickle.dumps(sol)) == sol


def test_check_report_validates_its_verdict():
    failure = CheckFailure("components", "not valid", {"a": True})
    with pytest.raises(ValueError):
        CheckReport(True, (failure,))
    with pytest.raises(ValueError):
        CheckReport(False)
    report = CheckReport(False, (failure,))
    assert report == CheckReport(verdict=False, failures=(failure,))
    assert CheckReport(True) == CheckReport(True, ())
    assert hash(CheckReport(True)) == hash(CheckReport(True, ()))
    assert repr(CheckReport(True)) == "CheckReport(verdict=True, failures=())"
    assert repr(failure) == (
        "CheckFailure(subject='components', reason='not valid', valuation={'a': True})"
    )
    assert CheckFailure("x", "y").valuation is None
    assert hash(CheckFailure("x", "y")) == hash(CheckFailure("x", "y", None))
    with pytest.raises(TypeError):
        hash(failure)  # the valuation is a dict
    with pytest.raises(AttributeError):
        report.verdict = True
    assert pickle.loads(pickle.dumps(report)) == report


def test_truth_table_validates_basis_and_bits():
    with pytest.raises(ValueError):
        TruthTable(("b", "a"), (False,) * 4)
    with pytest.raises(ValueError):
        TruthTable(("a", "a"), (False,) * 4)
    with pytest.raises(ValueError):
        TruthTable(("a",), (False,) * 4)
    table = TruthTable(("a", "b"), (False, True, True, False))
    assert table == TruthTable(basis=("a", "b"), bits=(False, True, True, False))
    assert hash(table) == hash(TruthTable.from_int(6, "ba"))
    assert {table: 1}[TruthTable.from_int(6, "ab")] == 1
    assert repr(TruthTable(("a",), (False, True))) == (
        "TruthTable(basis=('a',), bits=(False, True))"
    )
    with pytest.raises(AttributeError):
        table.bits = ()
    assert pickle.loads(pickle.dumps(table)) == table


def test_problem_file_record():
    pf = parse_problem_file("unknowns: p\nformula: p | a\n")
    assert pf == parse_problem_file("unknowns:   p\nformula: p|a\n")
    assert pf != parse_problem_file("unknowns: p\nformula: p | b\n")
    assert repr(pf) == (
        "ProblemFile(problem=SolutionProblem(formula=<p | a>, unknowns=('p',), "
        "parameters=None, forbidden=None), per_forbid={})"
    )
    assert pf == ProblemFile(problem=pf.problem, per_forbid={})
    with pytest.raises(TypeError):
        hash(pf)  # a mutable record


_P = SolutionProblem(parse("p"), ["p"])


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: parse_problem_file("unknowns: p\nforbid(p): a\nforbid(p): b\nformula: p\n"),
            (ProblemFileError, "line 3: duplicate key 'forbid(p)'"),
        ),
        (
            lambda: check_particular(_P, [TOP, BOT]),
            (CheckReport, "component count differs from unknown count"),
        ),
        (
            lambda: check_parametric(_P, [TOP], ["a"]),
            (ValueError, "parametric check needs a problem with parameters"),
        ),
        (
            lambda: check_reproductive(_P, [TOP], ["a"]),
            (ValueError, "reproductive check needs a problem with parameters"),
        ),
        (
            lambda: SolutionProblem(parse("p"), ["p"], ["t"], forbidden=["t"]),
            (ValueError, "forbidden atoms must not be parameters"),
        ),
        (
            lambda: solve_restricted(_P, [["a"], ["b"]]),
            (ValueError, "one forbidden set per unknown is required"),
        ),
        (lambda: solve_restricted(_P), (ValueError, "a forbidden atom set is required")),
    ],
)
def test_refusals_name_their_cause(call, expected):
    # An input the API refuses raises its own type with its own message;
    # a candidate with the wrong number of components fails its check.
    try:
        report = call()
    except Exception as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert not report.verdict
        assert (type(report), report.failures[0].reason) == expected
