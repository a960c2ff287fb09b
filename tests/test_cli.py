import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boolsolve.solve
from boolsolve import cli
from boolsolve import (
    BoolsolveError,
    SolutionProblem,
    check_particular,
    equivalent,
    free_atoms,
    is_valid,
    parse,
    substitute,
)
from boolsolve.cli import parse_problem_file, run, ProblemFileError
from boolsolve.syntax import RESERVED
import cli_reference
from genutil import tree_nodes

SRC = Path(__file__).resolve().parent.parent / "src"

EXAMPLE_FILE = """\
# background theory implies a chain through the unknowns
unknowns: p1 p2
formula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))
"""

UNSOLVABLE_FILE = """\
unknowns: p1 p2
formula: (p1 -> p2) & (a -> p2) & (p2 -> b)
"""


@pytest.fixture
def example_path(tmp_path):
    path = tmp_path / "example.sp"
    path.write_text(EXAMPLE_FILE)
    return str(path)


@pytest.fixture
def unsolvable_path(tmp_path):
    path = tmp_path / "unsolvable.sp"
    path.write_text(UNSOLVABLE_FILE)
    return str(path)


def test_parse_problem_file():
    sp = parse_problem_file(EXAMPLE_FILE).problem
    assert sp.unknowns == ("p1", "p2")
    assert sp.parameters is None
    assert sp.formula == parse("(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))")


def test_parse_problem_file_full():
    pf = parse_problem_file(
        "unknowns: p\nparameters: t\nforbid: b\nforbid(p): b\nformula: b -> p\n"
    )
    assert pf.problem.parameters == ("t",)
    assert pf.problem.forbidden == ("b",)
    assert pf.per_forbid == {"p": ("b",)}


def test_parse_problem_file_errors():
    with pytest.raises(ProblemFileError):
        parse_problem_file("formula: a\n")
    with pytest.raises(ProblemFileError):
        parse_problem_file("unknowns: p\n")
    with pytest.raises(ProblemFileError):
        parse_problem_file("unknowns: p\nunknowns: q\nformula: p\n")
    with pytest.raises(ProblemFileError):
        parse_problem_file("unknowns: p\nwhat: x\nformula: p\n")
    with pytest.raises(ProblemFileError):
        parse_problem_file("unknowns: p\nforbid(q): b\nformula: p\n")


def test_exists_command(example_path, unsolvable_path, capsys):
    assert run(["exists", example_path]) == 0
    assert capsys.readouterr().out == "solvable\n"
    assert run(["exists", unsolvable_path]) == 1
    assert capsys.readouterr().out == "not solvable\n"


def test_exists_on_nested_binders(tmp_path, capsys):
    # exists q . forall r . ... nests two binders, so the kernel walks
    # the innermost body once, two positions wider than the basis.
    path = tmp_path / "nested.sp"
    path.write_text("unknowns: p\nformula: exists q . forall r . (a -> p) & (p -> a | q | r)\n")
    assert run(["exists", str(path)]) == 0
    assert capsys.readouterr().out == "solvable\n"
    path.write_text("unknowns: p\nformula: forall q . exists r . (p <-> q) & (r | a)\n")
    assert run(["exists", str(path)]) == 1
    assert capsys.readouterr().out == "not solvable\n"


def test_solve_then_check_pipe(example_path, capsys):
    for extra in ([], ["--method", "second-order"], ["--method", "witnesses"],
                  ["--method", "second-order", "--reproductive"]):
        assert run(["solve", *extra, example_path]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert [line.split(" := ")[0] for line in lines] == ["p1", "p2"]
        components = "; ".join(line.split(" := ", 1)[1] for line in lines)
        assert run(["check", "--with", components, example_path]) == 0
        assert capsys.readouterr().out == "valid solution\n"


def test_solve_unsolvable(unsolvable_path, capsys):
    assert run(["solve", unsolvable_path]) == 1
    assert capsys.readouterr().out.startswith("no solution")


def test_solve_deterministic(example_path, capsys):
    assert run(["solve", example_path]) == 0
    first = capsys.readouterr().out
    assert run(["solve", example_path]) == 0
    assert capsys.readouterr().out == first


_HASH_SEED_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from boolsolve.cli import run
for argv in json.loads(sys.argv[2]):
    print("exit", run(argv), flush=True)
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # One process sees one hash seed, so string sets iterate in one
    # order there; two seeds in two processes must print the same bytes.
    example = tmp_path / "example.sp"
    example.write_text(EXAMPLE_FILE)
    capture = tmp_path / "capture.sp"
    capture.write_text("unknowns: p\nformula: (p <-> a) & (exists a . (a | p))\n")
    commands = [
        ["solve", str(example)],
        ["check", "--with", "a", str(capture)],
        ["enumerate", "--basis", "a b", str(example)],
        ["project", "--keep", "a", "a & b"],
        ["eliminate", "--vars", "p", "exists q . forall r . (p -> a | q & r) & (b -> p)"],
    ]
    outputs = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-B", "-c", _HASH_SEED_PROBE, str(SRC), json.dumps(commands)],
            capture_output=True,
            text=True,
            check=False,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert [line for line in outputs[0].splitlines() if line.startswith("exit")] == [
        "exit 0", "exit 0", "exit 0", "exit 1", "exit 0"
    ]


def test_generated_parameters_avoid_binder_names(tmp_path, capsys):
    # t_1 occurs only as a binder, yet a fresh parameter must skip it.
    path = tmp_path / "binder.sp"
    path.write_text("unknowns: p\nformula: (a -> p) & (exists t_1 . t_1)\n")
    assert run(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "p := a | t_2\n"


def test_check_rejects_non_solution(example_path, capsys):
    assert run(["check", "--with", "b; a", example_path]) == 1
    assert capsys.readouterr().out.startswith("not a solution")
    assert run(["check", "--with", "a", example_path]) == 2


def test_eliminate_command(capsys):
    code = run(["eliminate", "--vars", "p1 p2", "(p1->p2)&(a->p2)&(p2->b)"])
    assert code == 0
    assert capsys.readouterr().out == "~a | b\n"


def test_precondition_command(unsolvable_path, capsys):
    assert run(["precondition", unsolvable_path]) == 0
    assert capsys.readouterr().out == "~a | b\n"


def test_precondition_honours_forbid(tmp_path, capsys):
    # With forbid: b the answer is exists p forall b F; the unrestricted
    # exists p F is true.
    path = tmp_path / "forbid.sp"
    path.write_text("unknowns: p\nforbid: b\nformula: a -> (p <-> b)\n")
    assert run(["precondition", str(path)]) == 0
    assert capsys.readouterr().out == "~a\n"
    assert run(["exists", str(path)]) == 1
    capsys.readouterr()
    path.write_text("unknowns: p\nforbid(p): b\nformula: a -> (p <-> b)\n")
    assert run(["precondition", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_enumerate_command(example_path, capsys):
    assert run(["enumerate", "--basis", "a b", example_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24
    sp = SolutionProblem(
        parse("(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))"), ("p1", "p2")
    )
    for line in lines:
        components = [parse(part) for part in line.split("; ")]
        assert check_particular(sp, components).verdict


def test_enumerate_bits(example_path, capsys):
    assert run(["enumerate", "--basis", "a b", "--bits", example_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "basis: a b"
    assert all(set(line) <= set("01; ") for line in lines[1:])
    assert len(lines) == 25


def test_enumerate_empty_exit_code(unsolvable_path, capsys):
    assert run(["enumerate", "--basis", "a b", unsolvable_path]) == 1
    assert capsys.readouterr().out == ""


def test_project_command(capsys):
    assert run(["project", "--keep", "a", "a | (b & ~b)"]) == 0
    out = capsys.readouterr().out.strip()
    assert equivalent(parse(out), parse("a"))

    assert run(["project", "--keep", "a", "a & b"]) == 1
    assert capsys.readouterr().out == (
        "not independent: depends on a dropped atom (b): value differs between "
        "{'a': True, 'b': False} and {'a': True, 'b': True}\n"
    )


def test_project_drops_20_atoms(capsys):
    # One mask decides projection, so a parity of 20 dropped atoms is
    # answered at once; Shannon expansion grew fourfold per two atoms.
    xs = " <-> ".join(f"x{i}" for i in range(20))
    start = time.perf_counter()
    assert run(["project", "--keep", "a b", f"((a -> b) & ({xs})) | ((a -> b) & ~({xs}))"]) == 0
    assert capsys.readouterr().out == "~a | b\n"
    assert run(["project", "--keep", "a b", f"(a -> b) & (({xs}) | b)"]) == 1
    assert capsys.readouterr().out.startswith("not independent: depends on a dropped atom (x0, ")
    assert time.perf_counter() - start < 2


def test_solve_25_atom_ring(tmp_path, capsys):
    # The two-level cover recurses on half-width cofactors, so its
    # memory and time stay close to one mask's; keeping every cofactor
    # at full width took 5.8 s and 584 MB here.
    n = 24
    ring = " & ".join(f"(a{i} | ~a{(i + 1) % n} | p)" for i in range(n))
    path = tmp_path / "ring.sp"
    path.write_text(f"unknowns: p\nformula: {ring}\n")
    names = sorted(f"a{i}" for i in range(n))
    expected = f"p := ({' | '.join(names)}) & ({' | '.join('~' + a for a in names)})\n"
    start = time.perf_counter()
    assert run(["solve", "--method", "second-order", str(path)]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == expected


def test_solve_restricted_file(tmp_path, capsys):
    path = tmp_path / "restricted.sp"
    path.write_text("unknowns: p\nforbid: b\nformula: b -> p\n")
    assert run(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "b" not in out.split(" := ", 1)[1]

    path.write_text("unknowns: p\nforbid: b\nformula: p <-> b\n")
    assert run(["solve", str(path)]) == 1
    assert run(["exists", str(path)]) == 1


def test_solve_per_component_file(tmp_path, capsys):
    path = tmp_path / "defeq.sp"
    path.write_text(
        "unknowns: p q\n"
        "parameters: t1 t2\n"
        "forbid(p): b\n"
        "forbid(q): a\n"
        "formula: (a & (b <-> p)) <-> (b & (a <-> q))\n"
    )
    assert run(["solve", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = dict(line.split(" := ", 1) for line in lines)
    assert equivalent(parse(values["p"]), parse("a"))
    assert equivalent(parse(values["q"]), parse("b"))


def test_per_component_restrictions_are_exact(tmp_path, capsys):
    # A tautology over a third atom must not change the answer.
    path = tmp_path / "defeq.sp"
    for extra in ("", " & (c | ~c)"):
        path.write_text(
            "unknowns: p1 p2\nforbid(p1): b\nforbid(p2): a\n"
            f"formula: (p2 <-> ((b & (p1 <-> a)) <-> b)){extra}\n"
        )
        assert run(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        components = "; ".join(line.split(" := ", 1)[1] for line in lines)
        assert run(["check", "--with", components, str(path)]) == 0
        assert capsys.readouterr().out == "valid solution\n"
        assert run(["exists", str(path)]) == 0
        assert capsys.readouterr().out == "solvable\n"


def test_per_component_restrictions_keep_forbid(tmp_path, capsys):
    # forbid: still applies to p when forbid(p): names other atoms.
    path = tmp_path / "both.sp"
    path.write_text(
        "unknowns: p\nforbid: b\nforbid(p): c\nformula: (b -> p) & (p -> a | b)\n"
    )
    assert run(["solve", str(path)]) == 1
    assert capsys.readouterr().out.startswith("no solution: ")
    assert run(["exists", str(path)]) == 1
    assert capsys.readouterr().out == "not solvable\n"


def test_per_component_restriction_validation(tmp_path, capsys):
    path = tmp_path / "bad.sp"
    for text, atom in (
        ("unknowns: p q\nforbid(p): q\nformula: p <-> q\n", "q"),
        ("unknowns: p\nparameters: t\nforbid(p): t\nformula: p | a\n", "t"),
    ):
        path.write_text(text)
        for command in ("solve", "exists"):
            assert run([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: forbid(p): {atom} must not be an unknown or a parameter\n"
            )


def test_forbidden_parameter_refused_by_every_command(tmp_path, capsys):
    # The file is refused when it is read, whatever the command.
    path = tmp_path / "bad.sp"
    path.write_text("unknowns: p\nparameters: t\nforbid: t\nformula: p\n")
    for command in (["solve"], ["exists"], ["enumerate", "--basis", "a"],
                    ["precondition"], ["check", "--with", "t"]):
        assert run([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: forbid: t must not be an unknown or a parameter\n"


def test_empty_unknowns_refused_by_every_command(tmp_path, capsys):
    path = tmp_path / "empty.sp"
    path.write_text("unknowns:\nformula: a | ~a\n")
    for command in (["solve"], ["exists"], ["enumerate", "--basis", "a"],
                    ["precondition"], ["check", "--with", "a"]):
        assert run([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'unknowns:' line names no unknown\n"


def test_non_ascii_identifier_refused_by_every_command(tmp_path, capsys):
    # formulas follow the identifier rule of the unknowns: and forbid: lines
    path = tmp_path / "accent.sp"
    path.write_text("unknowns: p\nformula: p <-> é\n")
    for command in (["solve"], ["exists"], ["enumerate", "--basis", "a"],
                    ["precondition"], ["check", "--with", "true"]):
        assert run([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2:16: unexpected character 'é'\n"
    path.write_text("unknowns: p\nforbid: é\nformula: p\n")
    assert run(["exists", str(path)]) == 2
    assert capsys.readouterr().err == "error: invalid identifier 'é' in forbid\n"
    for command in (["eliminate", "--vars", "p"], ["project", "--keep", "p"]):
        assert run([*command, "p <-> é"]) == 2
        assert capsys.readouterr().err == "error: 1:7: unexpected character 'é'\n"


def test_formula_error_points_into_the_file(tmp_path, capsys):
    # A formula's syntax error is reported at its line and column in the
    # problem file, past blank and comment lines, the key and its blanks.
    path = tmp_path / "open.sp"
    path.write_text("unknowns: p\n\n# a note\n  formula:\t (a -> p # unclosed\n")
    assert run(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4:20: expected ')', found 'end of input'\n"
    path.write_text("unknowns: p\n\n\nformula: (a -> p\n")
    assert run(["exists", str(path)]) == 2
    assert capsys.readouterr().err == "error: 4:17: expected ')', found 'end of input'\n"
    path.write_text("formula: p & B\nunknowns: p\n")
    assert run(["exists", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 1:14: invalid identifier 'B': identifiers start with a lowercase letter\n"
    )


_RESERVED_NAME_CASES = (
    # (problem file or None, command, the refused list as the error names it)
    ("unknowns: {w}\nformula: a | ~a\n", ["solve"], "unknowns"),
    ("unknowns: p\nparameters: {w}\nformula: p <-> a\n", ["solve"], "parameters"),
    ("unknowns: p\nforbid: {w}\nformula: p | a\n", ["exists"], "forbid"),
    ("unknowns: p\nforbid(p): {w}\nformula: p | a\n", ["exists"], "forbid(p)"),
    ("unknowns: p\nforbid({w}): a\nformula: p | a\n", ["exists"], None),
    (None, ["eliminate", "--vars", "p {w}", "p & a"], "--vars"),
    (None, ["project", "--keep", "a {w}", "a & b"], "--keep"),
    ("unknowns: p\nformula: p <-> a\n", ["enumerate", "--basis", "a {w}"], "--basis"),
)


@pytest.mark.parametrize("word", sorted(RESERVED))
@pytest.mark.parametrize(
    "text, command, context",
    _RESERVED_NAME_CASES,
    ids=[context or "forbid-key" for _, _, context in _RESERVED_NAME_CASES],
)
def test_reserved_word_refused_in_name_lists(tmp_path, capsys, word, text, command, context):
    # A reserved word used as a name would print as a constant or a
    # quantifier, so every name list refuses it as an input error.
    argv = [part.format(w=word) for part in command]
    if text is not None:
        path = tmp_path / "reserved.sp"
        path.write_text(text.format(w=word))
        argv.append(str(path))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if context is None:
        expected = f"error: line 2: invalid unknown in 'forbid({word})'\n"
    else:
        expected = f"error: reserved word {word!r} in {context}\n"
    assert captured.err == expected


def test_per_component_file_refuses_reproductive(tmp_path, capsys):
    path = tmp_path / "per.sp"
    path.write_text("unknowns: p q\nforbid(p): b\nformula: (a -> p) & (q <-> b)\n")
    for extra in (["--reproductive"], ["--method", "second-order", "--reproductive"]):
        assert run(["solve", *extra, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: per-component restrictions yield particular solutions\n"
        )
    # Without the flag every method prints the particular solution.
    for extra in ([], ["--method", "second-order"], ["--method", "witnesses"]):
        assert run(["solve", *extra, str(path)]) == 0
        assert capsys.readouterr().out == "p := a\nq := b\n"


def test_restricted_search_undecided_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "defeq.sp"
    path.write_text(
        "unknowns: p q\nforbid(p): b\nforbid(q): a\n"
        "formula: (a & (b <-> p)) <-> (b & (a <-> q))\n"
    )
    monkeypatch.setattr(boolsolve.solve, "_SEARCH_BUDGET", 1)
    for command in ("solve", "exists"):
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: restricted search undecided after 1 ")


def test_usage_errors(example_path, capsys):
    assert run(["solve", "--method", "bogus", example_path]) == 2
    assert run(["nonsense"]) == 2
    assert run(["solve", "/nonexistent/file.sp"]) == 2
    assert run(["solve", "--method", "witnesses", "--reproductive", example_path]) == 2
    assert run(["solve", "--reorder", example_path]) == 2
    capsys.readouterr()


def test_dispatch_exit_codes(example_path, capsys):
    assert run([]) == 2
    assert "usage: boolsolve [-h]" in capsys.readouterr().err
    assert run(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: boolsolve [-h]")
    assert run(["solve", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: boolsolve solve [-h]")
    assert run(["frob"]) == 2
    assert "invalid choice: 'frob'" in capsys.readouterr().err
    # an unrecognised option is reported by the command's own parser
    assert run(["solve", "--bogus", example_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: boolsolve solve [-h]")
    assert err.endswith("boolsolve solve: error: unrecognized arguments: --bogus\n")


# The forms argparse reads alike on every supported Python: options
# before or after the positional, --opt=value, --, repeats, unique
# abbreviations and -h anywhere.
ARGV_ACCEPTED = [
    ["solve", "f"],
    ["solve", "--method", "second-order", "f"],
    ["solve", "f", "--method", "witnesses"],
    ["solve", "--method=witnesses", "f"],
    ["solve", "--meth", "second-order", "--rep", "f"],
    ["solve", "--meth=second-order", "f", "--reproductive"],
    ["solve", "--method", "witnesses", "--reproductive", "--method", "second-order", "f"],
    ["solve", "--reproductive", "--reproductive", "f"],
    ["solve", "--", "f"],
    ["solve", "--method", "witnesses", "--", "f"],
    ["solve", "f", "--"],
    ["exists", "f"],
    ["exists", "--", "-f"],
    ["check", "--with", "a & b; a", "f"],
    ["check", "f", "--with=a"],
    ["check", "--w", "a", "--with", "b", "f"],
    ["check", "--with=", "f"],
    ["eliminate", "--vars", "p1 p2", "p1 & a"],
    ["eliminate", "p1 & a", "--vars=p1"],
    ["eliminate", "--v", "p", "--", "-p"],
    ["precondition", "f"],
    ["enumerate", "--basis", "a b", "--bits", "f"],
    ["enumerate", "f", "--bi", "--ba=a"],
    ["enumerate", "--basis", "a", "f"],
    ["project", "--keep", "a", "a | b"],
    ["project", "--k", "a", "--keep", "b", "a | b"],
]
ARGV_HELP = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "frob"],
    ["--bogus", "-h"],
    ["solve", "-h"],
    ["solve", "f", "-h"],
    ["solve", "--method", "witnesses", "--h"],
    ["exists", "--help"],
    ["check", "-h", "f"],
    ["eliminate", "--vars", "p", "-h"],
    ["precondition", "-h"],
    ["enumerate", "--he"],
    ["project", "f", "g", "-h"],
]
ARGV_REJECTED = [
    [],
    ["frob"],
    ["frob", "-h"],
    ["--bogus"],
    ["--bogus", "solve", "f"],
    ["solve"],
    ["solve", "f", "g"],
    ["solve", "--bogus", "f"],
    ["solve", "f", "--bogus"],
    ["solve", "--method", "bogus", "f"],
    ["solve", "--method=bogus", "f"],
    ["solve", "--method", "bogus", "-h"],
    ["solve", "f", "--method"],
    ["solve", "--method", "--reproductive", "f"],
    ["solve", "--reproductive=yes", "f"],
    ["exists"],
    ["exists", "f", "g"],
    ["exists", "--method", "witnesses", "f"],
    ["check", "f"],
    ["check", "--with"],
    ["check", "f", "--with"],
    ["eliminate", "p"],
    ["eliminate", "--vars", "p"],
    ["eliminate", "--vars", "p", "a", "b"],
    ["precondition"],
    ["precondition", "f", "--keep", "a"],
    ["enumerate", "--b", "a", "f"],
    ["enumerate", "-h", "--b=a", "f"],
    ["enumerate", "--basis", "a"],
    ["enumerate", "f"],
    ["enumerate", "--bits", "--basis"],
    ["project", "--keep", "a"],
    ["project", "a | b"],
    ["project", "--keep", "a", "a", "b"],
]


def test_argv_corpus_covers_every_command():
    for corpus in (ARGV_ACCEPTED, ARGV_HELP, ARGV_REJECTED):
        assert {a[0] for a in corpus if a} >= set(cli._COMMANDS)


def _read(argv):
    """The exit code of ``cli._read_argv(argv)`` (0 on success or
    ``-h``, 2 on a usage error) and, on success, its handler and fields."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            handler, args = cli._read_argv(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None
    fields = vars(args).copy()
    fields.pop("func", None)  # argparse's reading also holds the handler
    return 0, (handler, fields)


def _reference_read(argv):
    """``cli_reference.read(argv)`` in the form of ``_read``."""
    code, namespace = cli_reference.read(argv)
    if namespace is None:
        return code, None
    fields = vars(namespace).copy()
    return code, (fields.pop("func"), fields)


@pytest.mark.parametrize(
    "argv, code",
    [(a, 0) for a in ARGV_ACCEPTED + ARGV_HELP] + [(a, 2) for a in ARGV_REJECTED],
)
def test_argv_reader_matches_argparse(argv, code):
    expected = _reference_read(argv)
    assert expected[0] == code
    assert (expected[1] is None) == (argv in ARGV_HELP + ARGV_REJECTED)
    assert _read(argv) == expected


# The option names in full.  The argv of ARGV_ACCEPTED in the exact form
# are those whose every token that starts with "-" is one of these,
# alone or joined to a value by "=".
FULL_OPTION_NAMES = {
    "--method", "--reproductive", "--with", "--vars", "--basis", "--bits", "--keep"
}


def _names_options_in_full(argv):
    return all(a.partition("=")[0] in FULL_OPTION_NAMES for a in argv[1:] if a[:1] == "-")


def test_shortcut_reads_only_the_exact_form():
    exact = [a for a in ARGV_ACCEPTED if _names_options_in_full(a)]
    assert len(exact) == 16
    for argv in exact:
        read = cli._read_exact(argv)
        assert read is not None, argv
        handler, args = read
        assert (0, (handler, vars(args))) == _reference_read(argv), argv
    for argv in ARGV_ACCEPTED + ARGV_HELP + ARGV_REJECTED:
        if argv not in exact:
            assert cli._read_exact(argv) is None, argv


# Tokens that make the reading of argv differ: commands, options in full
# and abbreviated, joined values, "--", forms of -h, negative numbers,
# texts with a space and the empty text.
FUZZ_TOKENS = [
    "solve", "exists", "check", "eliminate", "precondition", "enumerate", "project",
    "frob", "f", "g", "a", "x y", "", "-", "--", "-h", "-hh", "-h=x", "--help", "--he",
    "-1", "-.5", "--bogus", "--method", "--meth", "--method=witnesses", "--method=bogus",
    "succ-elim", "second-order", "witnesses", "bogus", "--reproductive", "--rep",
    "--reproductive=yes", "--with", "--w", "--with=a", "--with=", "--vars", "--v=p",
    "--basis", "--ba", "--b", "--b=a", "--bits", "--bi", "--keep", "--k=a",
]


def test_argv_reader_matches_argparse_on_random_argv():
    rng = random.Random(2301)
    commands = list(cli._COMMANDS)
    for _ in range(2000):
        argv = [rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 6))]
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(commands)
        assert _read(argv) == _reference_read(argv), argv


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    # exit code 1 means "not solvable", so a file that is not UTF-8 must
    # end in exit code 2 with a message, not a traceback
    path = tmp_path / "binary.sp"
    path.write_bytes(b"\xff\xfe bad")
    for command in ("exists", "solve"):
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec")


_LOADER_CORPUS = [
    b"unknowns: p1 p2\nformula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))\n",
    b"unknowns: p1 p2\r\nformula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))\r\n",
    b"unknowns: p1 p2\rformula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))\r",
    b"unknowns: p\r\r\nformula: p & a\n\r",
    "\ufeffunknowns: p\nformula: p & a\n".encode(),
    b"unknowns: p\nformula: p & \xff a\n",
    b"unknowns: p\xc3\nformula: p\n",
    b"unknowns: p\nformula: p & a\x00\n",
    b"unknowns: p\x00q\nformula: p & q\n",
    b"\x00",
    b"",
    b"unknowns:\tp1\t p2 \t\nparameters:\tt1  t2\nformula:\tp1 & p2 | a\t\n",
    b"# header\n\n   \nunknowns: p # the unknown\n\n# F\nformula: p -> a # note\n\n",
    b"unknowns: p q\nforbid: b\nforbid( q ):\ta b\nformula: (a & b) -> p & q\n",
    b"unknowns: p\nforbid(p: a\nformula: p\n",
    b"unknowns: p\nforbid(true): a\nformula: p\n",
    b"unknowns: p\nforbid(q): a\nformula: p\n",
    b"unknowns: p\nunknowns: q\nformula: p\n",
    b"unknowns: p\nformula p\n",
    b"unknowns: p\nsolution: q\nformula: p\n",
    b"unknowns: p exists\nformula: p\n",
    b"unknowns: p Q\nformula: p\n",
    b"unknowns: p\nparameters: t true\nformula: p\n",
    b"unknowns: p\nparameters: a\nformula: p & a\n",
    b"unknowns: p\nforbid: p\nformula: p\n",
    b"unknowns:\nformula: p\n",
    b"formula: p\n",
    b"unknowns: p\n",
    b"unknowns: p\nformula: p -> -> a\n",
    b"unknowns: p\r\n\r\n  formula :\t(p & a # open\r\n",
    b"unknowns: p\rformula: p )\r",
    "unknowns: p\n\u00a0formula:\u3000p <-> \u00e9\n".encode(),
    b"unknowns: p\nformula: exists q . q & p\n",
] + [
    f"unknowns: p{sep}q\nformula: p & q | a\n".encode()
    for sep in ("\f", "\v", "\x1c", "\x1f", "\x85", "\u00a0", "\u2028", "\u3000", "\t")
] + [
    f"unknowns: p\nforbid: a{sep}b\nformula: p & a\n".encode()
    for sep in ("\f", "\v", "\x1c", "\u00a0", "\u2028")
]


def _loaded(load, arg):
    """What ``load`` makes of ``arg``: its result, or its error."""
    try:
        return load(arg)
    except BoolsolveError as exc:
        return type(exc).__name__, str(exc)


def test_loader_matches_text_mode_reference(tmp_path):
    # One unbuffered read, partitioned header lines and one regex per name
    # list give the problem, or the error text, that text mode, split
    # lines and a test per name gave.
    paths = [str(tmp_path / "missing.sp"), str(tmp_path)]
    for i, data in enumerate(_LOADER_CORPUS):
        path = tmp_path / f"corpus{i}.sp"
        path.write_bytes(data)
        paths.append(str(path))
    loaded = 0
    for path in paths:
        got = _loaded(lambda p: cli._load(p)[0], path)
        assert got == _loaded(cli_reference.load, path), (path, got)
        if isinstance(got, cli.ProblemFile):
            loaded += 1
            assert got.problem.free == free_atoms(got.problem.formula)
    assert loaded == 13


def test_name_lists_match_per_name_reference():
    rng = random.Random(2802)
    pieces = ["p", "q1", "a_B", "true", "forall", "trueish", "Q", "1a", "é", "p-q",
              " ", "\t", "\f", "\v", "\x1c", "\x1f", "\u00a0", "\u2028", "\u3000", ""]
    values = ["", " ", "p", " p q ", "p\u00a0q", "p true", "p\u200bq"]
    values += ["".join(rng.choices(pieces, k=rng.randint(1, 6))) for _ in range(3000)]
    for value in values:
        assert _loaded(lambda v: cli._idents(v, "unknowns"), value) == _loaded(
            lambda v: cli_reference.idents(v, "unknowns"), value
        ), repr(value)


def test_syntax_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.sp"
    path.write_text("unknowns: p\nformula: p -> -> a\n")
    assert run(["solve", str(path)]) == 2
    capsys.readouterr()


RESTRICTED_FILE = """\
unknowns: p
forbid: b
formula: (a & b) -> p
"""


def test_check_honours_forbid(tmp_path, capsys):
    path = tmp_path / "forbid.sp"
    path.write_text(RESTRICTED_FILE)
    assert run(["check", "--with", "b", str(path)]) == 1
    assert capsys.readouterr().out == (
        "not a solution: component p depends on forbidden atom b\n"
    )
    # mentioning b without depending on it is allowed
    assert run(["check", "--with", "a | b & ~b", str(path)]) == 0
    assert capsys.readouterr().out == "valid solution\n"

    path.write_text("unknowns: p q\nforbid(q): a\nformula: (a & b) -> p & q\n")
    assert run(["check", "--with", "a; b", str(path)]) == 0
    capsys.readouterr()
    assert run(["check", "--with", "b; a", str(path)]) == 1
    assert capsys.readouterr().out == (
        "not a solution: component q depends on forbidden atom a\n"
    )


def test_enumerate_honours_forbid(tmp_path, capsys):
    path = tmp_path / "forbid.sp"
    path.write_text(RESTRICTED_FILE)
    assert run(["enumerate", "--basis", "a b", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert equivalent(parse(lines[0]), parse("a"))
    assert equivalent(parse(lines[1]), parse("true"))

    path.write_text("unknowns: p\nforbid(p): a b\nformula: (a & b) -> p\n")
    assert run(["enumerate", "--basis", "a b", "--bits", str(path)]) == 0
    assert capsys.readouterr().out == "basis: a b\n1111\n"


def test_deep_formula_exit_code(tmp_path, capsys):
    # 1,201 atoms: every command reads the parser's atoms and stops at
    # the width cap before any walk.
    path = tmp_path / "deep.sp"
    clauses = " & ".join(f"(a{i} | p)" for i in range(1200))
    path.write_text(f"unknowns: p\nformula: {clauses}\n")
    cap = "error: 1201 atoms exceed the truth-table cap of 26 atoms (8 MB per mask)\n"
    for command in ("exists", "solve", "precondition"):
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", cap), command


def test_deep_cnf_over_few_atoms_exit_code(tmp_path, capsys):
    # A CNF of 1,200 clauses over 11 atoms is a left-nested & chain 1,200
    # deep: within the width cap, too deep for the recursive walkers.
    path = tmp_path / "cnf.sp"
    atoms = [f"a{i}" for i in range(10)]
    clauses = " & ".join(
        f"({atoms[i % 10]} | ~{atoms[(i * 7 + 3) % 10]} | p)" for i in range(1200)
    )
    path.write_text(f"unknowns: p\nformula: {clauses}\n")
    for command in ("exists", "precondition", "solve"):
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: formula nested too deeply\n")


def test_solve_prints_all_lines_or_none(tmp_path, capsys):
    # q's cover of 1,024 cubes is too deep to print; p's line, rendered
    # before it, must not reach stdout either.
    parity = " <-> ".join(f"a{i}" for i in range(11))
    path = tmp_path / "parity.sp"
    path.write_text(f"unknowns: p q\nformula: (p <-> b) & (q <-> ({parity}))\n")
    for method in ("succ-elim", "second-order", "witnesses"):
        assert run(["solve", "--method", method, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: formula nested too deeply\n"


def _chain_file(tmp_path, n):
    # The paper's running example grown to n unknowns.
    unknowns = [f"p{i}" for i in range(1, n + 1)]
    links = zip(["a", *unknowns], [*unknowns, "b"])
    formula = "(a -> b) -> (" + " & ".join(f"({x} -> {y})" for x, y in links) + ")"
    path = tmp_path / f"chain{n}.sp"
    path.write_text(f"unknowns: {' '.join(unknowns)}\nformula: {formula}\n")
    return path, unknowns, formula


def test_chain_output_stays_polynomial(tmp_path, capsys):
    # Syntactic substitution of whole components grows the output about
    # tenfold per unknown; printing each component from its exact
    # function keeps it quadratic in n.
    for n in (8, 16):
        path, unknowns, formula = _chain_file(tmp_path, n)
        f = parse(formula)
        total = 0
        for extra in ([], ["--method", "second-order"],
                      ["--method", "second-order", "--reproductive"],
                      ["--method", "witnesses"]):
            assert run(["solve", *extra, str(path)]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert [line.split(" := ")[0] for line in lines] == unknowns
            components = [parse(line.split(" := ", 1)[1]) for line in lines]
            assert is_valid(substitute(f, unknowns, components))
            total += sum(tree_nodes(c) for c in components)
        assert total <= 16 * n * n


def test_width_cap_exit_code(tmp_path, capsys):
    # The chain over 28 unknowns spans 30 atoms, past the truth-table
    # cap: every solving command, and precondition, whose mask spans the
    # unknowns too, refuses it before building a mask.
    path, _, _ = _chain_file(tmp_path, 28)
    for command in (["exists"], ["solve"], ["solve", "--method", "second-order"],
                    ["precondition"]):
        assert run([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 30 atoms exceed the truth-table cap of 26 atoms (8 MB per mask)\n"
        )


def test_problem_validation_exit_code(tmp_path, capsys):
    # A problem the solvers reject is an input error, not a traceback.
    # The file is checked once when it is read, so no command answers it.
    for text, message in (
        ("unknowns: p p\nformula: p\n", "unknowns must be distinct"),
        ("unknowns: p\nparameters: t t\nformula: p | a\n",
         "parameters must be distinct"),
        ("unknowns: p\nforbid: p\nformula: p | a\n",
         "forbid: p must not be an unknown or a parameter"),
        ("unknowns: p\nparameters: t\nforbid: t\nformula: p | a\n",
         "forbid: t must not be an unknown or a parameter"),
    ):
        path = tmp_path / "bad.sp"
        path.write_text(text)
        for command in (["solve"], ["exists"], ["check", "--with", "a"],
                        ["precondition"], ["enumerate", "--basis", "a"]):
            assert run([*command, str(path)]) == 2, (text, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_clause_bounds_stay_clauses(tmp_path, capsys):
    # The upper bound of p is a conjunction of m clauses, whose sum of
    # products has 2^m cubes; each method prints it as the m clauses.
    m = 10
    clauses = [f"(x{i} | y{i} | ~p)" for i in range(m)]
    path = tmp_path / "clauses.sp"
    path.write_text(f"unknowns: p\nformula: {' & '.join(clauses)}\n")
    f = parse(" & ".join(clauses))
    for extra in ([], ["--method", "second-order"], ["--method", "witnesses"]):
        assert run(["solve", *extra, str(path)]) == 0
        name, text = capsys.readouterr().out.strip().split(" := ")
        assert name == "p"
        component = parse(text)
        assert is_valid(substitute(f, ["p"], [component]))
        assert tree_nodes(component) <= 8 * m


CHAIN_SECOND_ORDER_GOLDEN = {
    (2, False): "p1 := a & b\np2 := a & b\n",
    (2, True): (
        "p1 := a & b | (a | b) & t_1\n"
        "p2 := (a | t_1) & b | (a | b) & t_2\n"
    ),
    (3, False): "p1 := a & b\np2 := a & b\np3 := a & b\n",
    (3, True): (
        "p1 := a & b | (a | b) & t_1\n"
        "p2 := (a | t_1) & b | (a | b) & t_2\n"
        "p3 := (a | t_1 | t_2) & b | (a | b) & t_3\n"
    ),
    (4, False): "p1 := a & b\np2 := a & b\np3 := a & b\np4 := a & b\n",
    (4, True): (
        "p1 := a & b | (a | b) & t_1\n"
        "p2 := (a | t_1) & b | (a | b) & t_2\n"
        "p3 := (a | t_1 | t_2) & b | (a | b) & t_3\n"
        "p4 := (a | t_1 | t_2 | t_3) & b | (a | b) & t_4\n"
    ),
}


CHAIN_WITNESSES_GOLDEN = {
    2: "p1 := a | b\np2 := a | b\n",
    3: "p1 := a | b\np2 := a | b\np3 := a | b\n",
    4: "p1 := a | b\np2 := a | b\np3 := a | b\np4 := a | b\n",
}


@pytest.mark.parametrize("n, reproductive", sorted(CHAIN_SECOND_ORDER_GOLDEN))
def test_second_order_chain_golden(tmp_path, capsys, n, reproductive):
    # Exact output of both second-order strategies on the chain problem,
    # and of the witnesses method, which prints the upper ends of the
    # intervals whose lower ends the interval strategy prints.
    path, _, _ = _chain_file(tmp_path, n)
    extra = ["--reproductive"] if reproductive else []
    assert run(["solve", "--method", "second-order", *extra, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == CHAIN_SECOND_ORDER_GOLDEN[n, reproductive]
    assert captured.err == ""
    if not reproductive:
        assert run(["solve", "--method", "witnesses", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == CHAIN_WITNESSES_GOLDEN[n]
        assert captured.err == ""


def test_enumerate_basis_errors_exit_2(tmp_path, capsys):
    # A basis naming an unknown, or one past the oracle's cost guard, is
    # an input error, not a traceback.
    path = tmp_path / "basis.sp"
    path.write_text("unknowns: p\nparameters: t\nformula: p <-> a\n")
    assert run(["enumerate", "--basis", "p", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis atoms must not be unknowns\n"
    assert run(["enumerate", "--basis", "a b c d", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: basis of 4 atoms with 1 unknowns exceeds the oracle's cost guard of "
        "3 basis atoms and 2 unknowns (the Python API lifts it with allow_large=True)\n"
    )


def test_enumerate_empty_basis(tmp_path, capsys):
    path = tmp_path / "empty.sp"
    path.write_text("unknowns: p\nformula: p | a\n")
    assert run(["enumerate", "--basis", "", str(path)]) == 0
    assert capsys.readouterr().out == "true\n"


def test_check_refuses_components_mentioning_an_unknown(tmp_path, capsys):
    path = tmp_path / "imp.sp"
    path.write_text("unknowns: p q\nformula: p -> q\n")
    for components in ("p; true", "q; q", "false; p | ~p"):
        assert run(["check", "--with", components, str(path)]) == 1
        assert capsys.readouterr().out == "not a solution: components mention an unknown\n"
    assert run(["check", "--with", "false; true", str(path)]) == 0
    assert capsys.readouterr().out == "valid solution\n"


def test_solve_prints_the_definiens_of_a_defined_unknown(tmp_path, capsys):
    # When the solution interval of an unknown holds one member, the
    # reproductive component is that member, free of the parameter.
    for formula, component in (("p <-> a & b", "a & b"), ("p", "true")):
        path = tmp_path / "defined.sp"
        path.write_text(f"unknowns: p\nformula: {formula}\n")
        for extra in ([], ["--method", "second-order", "--reproductive"]):
            assert run(["solve", *extra, str(path)]) == 0
            captured = capsys.readouterr()
            assert captured.out == f"p := {component}\n"
            assert captured.err == ""


def test_cli_reads_a_quantifier_free_file_with_no_free_atom_walk(tmp_path, capsys, monkeypatch):
    # The parser hands over the free atoms of a formula with no
    # quantifier, so no name walk (free_atoms, all_names: each one
    # _scan) reads the formula, with declared parameters, with generated
    # ones and for exists.  A formula with a quantifier is walked once.
    import importlib

    import boolsolve.formula

    text = "(a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))"
    quantified = f"exists q . q & ({text})"
    walked = []
    original = boolsolve.formula._scan

    def spy(f):
        if f in (parse(text), parse(quantified)):
            walked.append(f)
        return original(f)

    for name in ("boolsolve", *(f"boolsolve.{m}" for m in (
        "cli", "elimination", "formula", "oracle", "semantics", "solve", "syntax"
    ))):
        module = importlib.import_module(name)
        if getattr(module, "_scan", None) is original:
            monkeypatch.setattr(module, "_scan", spy)
    declared = tmp_path / "declared.sp"
    declared.write_text(f"unknowns: p1 p2\nparameters: t1 t2\nformula: {text}\n")
    plain = tmp_path / "plain.sp"
    plain.write_text(f"unknowns: p1 p2\nformula: {text}\n")
    bound = tmp_path / "bound.sp"
    bound.write_text(f"unknowns: p1 p2\nparameters: t1 t2\nformula: {quantified}\n")
    for argv, walks in ((["solve", str(declared)], 0), (["solve", str(plain)], 0),
                        (["solve", "--method", "second-order", str(plain)], 0),
                        (["exists", str(declared)], 0), (["exists", str(bound)], 1)):
        walked.clear()
        assert run(argv) == 0
        capsys.readouterr()
        assert len(walked) == walks, argv


def test_commands_agree_when_the_formula_binds_a_base_atom(tmp_path, capsys):
    # The formula binds a, which the answer p := a mentions.  Substitution
    # renames the bound a apart, so the answer is checked and enumerated
    # as the solvers read it.
    path = tmp_path / "cap.sp"
    path.write_text("unknowns: p\nformula: (p <-> a) & (exists a . (a | p))\n")
    for argv, out in (
        (["exists", str(path)], "solvable\n"),
        (["solve", str(path)], "p := a\n"),
        (["check", "--with", "a", str(path)], "valid solution\n"),
        (["enumerate", "--basis", "a", str(path)], "a\n"),
    ):
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, ""), argv
