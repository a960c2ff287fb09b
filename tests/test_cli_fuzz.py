"""Drawn input through every CLI command, run in process by ``cli.run``.

Problem files and formula texts are drawn from the grammar, and some
files are byte mutations of drawn ones.  Every run must end in exit 0,
1 or 2, print an ``error:`` line and nothing on stdout at exit 2, and let
no exception out of ``cli.run``.  Each answer ``solve`` prints at exit 0
is checked with the benchmark's own evaluator, whose masks do not come
from the package's semantic kernel.
"""

import contextlib
import io
import os
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from boolsolve.cli import parse_problem_file, run

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from evaluator import Space, mentioned_atoms  # noqa: E402

BASE = ("a", "b", "c")
UNKNOWNS = ("p", "q")
PARAMETERS = ("t", "u")
# Formulas may name unknowns, parameters and base atoms alike, so some
# files are refused for a parameter that is not fresh.
NAMES = BASE + UNKNOWNS + PARAMETERS

SOLVE_OPTIONS = (
    [],
    ["--method", "succ-elim"],
    ["--method", "second-order"],
    ["--method", "second-order", "--reproductive"],
    ["--method", "witnesses"],
    ["--method=witnesses", "--reproductive"],
    ["--reproductive"],
    ["--meth", "second-order"],
)


def formulas(names=NAMES):
    """Formula text over ``names``, fully parenthesised."""

    def extend(inner):
        return st.one_of(
            inner.map("~{}".format),
            st.tuples(inner, st.sampled_from(("&", "|", "->", "<->")), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(st.sampled_from(("exists", "forall")), st.sampled_from(names), inner).map(
                lambda t: f"({t[0]} {t[1]} . {t[2]})"
            ),
        )

    return st.recursive(st.sampled_from(names + ("true", "false")), extend, max_leaves=8)


FORMULAS = formulas()
BASE_FORMULAS = formulas(BASE)


def _names(draw, pool, min_size=0):
    names = st.lists(st.sampled_from(pool), min_size=min_size, max_size=len(pool), unique=True)
    return " ".join(draw(names))


@st.composite
def problem_files(draw):
    """A problem file's text: its lines in any order, each optional key
    present or not.  Half the formulas place each unknown x between
    bounds, ``((A & B) -> x) & (x -> (A | C))`` over the base atoms, so
    that they are solvable."""
    unknowns = draw(st.lists(st.sampled_from(UNKNOWNS), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        formula = draw(FORMULAS)
    else:
        bounds = []
        for x in unknowns:
            a, b, c = (draw(BASE_FORMULAS) for _ in range(3))
            bounds.append(f"(({a} & {b}) -> {x}) & ({x} -> ({a} | {c}))")
        formula = " & ".join(bounds)
    lines = [f"unknowns: {' '.join(unknowns)}", f"formula: {formula}"]
    if draw(st.booleans()):
        lines.append(f"parameters: {' '.join(PARAMETERS[: len(unknowns)])}")
    if draw(st.booleans()):
        lines.append(f"forbid: {_names(draw, BASE)}")
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"forbid({draw(st.sampled_from(unknowns))}): {_names(draw, BASE, 1)}")
    if draw(st.integers(0, 3)) == 0:
        lines.append("# a comment")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def file_bytes(draw):
    """A drawn problem file's bytes; about one file in four has one to
    three bytes inserted, replaced or deleted."""
    data = bytearray(draw(problem_files()).encode("utf-8"))
    for _ in range(max(0, draw(st.integers(-8, 3)))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("insert", "replace", "delete")))
        byte = draw(st.integers(0, 255))
        if kind == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if kind == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        assert "error: " in err.getvalue(), argv
    return code, out.getvalue()


def _check_solution(text, printed, reproductive):
    """``printed`` solves the problem of ``text``: each component avoids
    the atoms forbidden to it, the formula with the components
    substituted is valid, and a reproductive solution over declared
    parameters leaves every solution where it is.  A file with
    ``forbid(p):`` lines is solved particularly."""
    pf = parse_problem_file(text)
    sp = pf.problem
    lines = printed.splitlines()
    assert [line.partition(" := ")[0] for line in lines] == list(sp.unknowns)
    bodies = [line.partition(" := ")[2] for line in lines]
    forbidden = set(sp.forbidden or ())
    mentioned = set()
    for p, body in zip(sp.unknowns, bodies):
        atoms = mentioned_atoms(body)
        assert not atoms & (forbidden | set(pf.per_forbid.get(p, ()))), (p, body)
        assert not atoms & set(sp.unknowns), (p, body)
        mentioned |= atoms
    params = tuple(sp.parameters or ()) if reproductive and not pf.per_forbid else ()
    base = set(sp.free) - set(sp.unknowns)
    space = Space(sorted(base | mentioned | set(params)))
    comps = [space.text(body, space.masks) for body in bodies]
    composed = space.tree(sp.formula, space.env(dict(zip(sp.unknowns, comps))))
    assert composed == space.full, "substituted formula is not valid"
    if params:
        identity = {p: space.masks[t] for p, t in zip(sp.unknowns, params)}
        fixed = space.tree(sp.formula, space.env(identity))
        for b in forbidden & set(space.basis):
            fixed = space.forall(fixed, b)
        for comp, t in zip(comps, params):
            assert not fixed & (comp ^ space.masks[t]), "a solution is not reproduced"


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "problem.sp")


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    database=None,
    # The explain phase traces the failing example for minutes.
    phases=(Phase.generate, Phase.shrink),
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    file_bytes(),
    st.sampled_from(SOLVE_OPTIONS),
    st.lists(FORMULAS, min_size=1, max_size=2),
    FORMULAS,
    st.data(),
)
def test_every_command_ends_in_an_exit_code(
    problem_path, data_bytes, options, components, formula, data
):
    with open(problem_path, "wb") as handle:
        handle.write(data_bytes)
    code, printed = _run(["solve", *options, problem_path])
    if code == 0:
        reproductive = "--reproductive" in options or not {"second-order", "witnesses"} & set(options)
        _check_solution(data_bytes.decode("utf-8"), printed, reproductive)
    _run(["exists", problem_path])
    _run(["precondition", problem_path])
    _run(["check", "--with", "; ".join(components), problem_path])
    _run(["enumerate", "--basis", "a b", *data.draw(st.sampled_from(([], ["--bits"]))), problem_path])
    _run(["eliminate", "--vars", _names(data.draw, NAMES), formula])
    _run(["project", "--keep", _names(data.draw, NAMES), formula])
