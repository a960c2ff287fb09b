"""The command-line parser the CLI had before it read argv from its own
command table: argparse, one sub-parser per command; and the problem-file
loader it had before it read a file with one unbuffered read.

``read`` runs the parser the way the CLI ran it (a named command straight
to its own sub-parser, anything else to the top-level parser) and returns
the exit code argparse ends with and the fields it read, so the
differential tests can hold ``boolsolve.cli``'s reader to the same argv.

``load`` reads a file in text mode, splits each header line with
``split``, checks each name of a list on its own and parses the formula
with ``parse``, so the problem finds its free atoms by walking the
formula; a syntax error in the formula is placed at its line and column
in the file.  ``boolsolve.cli._load`` must give an equal
``ProblemFile``, or raise an error of the same type with the same text.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
from typing import Sequence

from boolsolve import ParseError, SolutionProblem, parse
from boolsolve.cli import (
    ProblemFile,
    ProblemFileError,
    _cmd_check,
    _cmd_eliminate,
    _cmd_enumerate,
    _cmd_exists,
    _cmd_precondition,
    _cmd_project,
    _cmd_solve,
)
from boolsolve.syntax import IDENTIFIER, RESERVED


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's sub-parser, by name."""
    parser = argparse.ArgumentParser(
        prog="boolsolve",
        description="Solve Boolean equations over propositional formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a solution of a problem file")
    p_solve.add_argument(
        "--method",
        choices=["succ-elim", "second-order", "witnesses"],
        default="succ-elim",
    )
    p_solve.add_argument("--reproductive", action="store_true")
    p_solve.add_argument("file")
    p_solve.set_defaults(func=_cmd_solve)

    p_exists = sub.add_parser("exists", help="test solvability")
    p_exists.add_argument("file")
    p_exists.set_defaults(func=_cmd_exists)

    p_check = sub.add_parser("check", help="verify a candidate solution")
    p_check.add_argument(
        "--with", dest="with_", required=True, metavar="COMPONENTS",
        help="semicolon-separated component formulas",
    )
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_elim = sub.add_parser("eliminate", help="eliminate atoms from a formula")
    p_elim.add_argument("--vars", required=True, help="atoms to eliminate")
    p_elim.add_argument("formula")
    p_elim.set_defaults(func=_cmd_eliminate)

    p_pre = sub.add_parser(
        "precondition", help="weakest antecedent making the problem solvable"
    )
    p_pre.add_argument("file")
    p_pre.set_defaults(func=_cmd_precondition)

    p_enum = sub.add_parser("enumerate", help="list all basis-function solutions")
    p_enum.add_argument("--basis", required=True, help="basis atoms")
    p_enum.add_argument("--bits", action="store_true", help="print truth-table bits")
    p_enum.add_argument("file")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_proj = sub.add_parser("project", help="restrict a formula to a vocabulary")
    p_proj.add_argument("--keep", required=True, help="atoms to keep")
    p_proj.add_argument("formula")
    p_proj.set_defaults(func=_cmd_project)

    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def read(argv: Sequence[str]) -> tuple[int, argparse.Namespace | None]:
    """The exit code (0 on success or ``-h``, 2 on a usage error) and,
    on success, the namespace with the command's ``func``."""
    command = _COMMANDS.get(argv[0]) if argv else None
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if command is None:
                return 0, _PARSER.parse_args(argv)
            return 0, command.parse_args(argv[1:])
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None


_IDENT = re.compile(IDENTIFIER)
_FORBID_KEY = re.compile(r"forbid\(([^)]*)\)$")


def idents(value: str, context: str) -> tuple[str, ...]:
    """The names of a whitespace-separated list; a reserved word, which
    would print as a constant or a quantifier, is refused."""
    names = value.split()
    for name in names:
        if not _IDENT.fullmatch(name):
            raise ProblemFileError(f"invalid identifier {name!r} in {context}")
        if name in RESERVED:
            raise ProblemFileError(f"reserved word {name!r} in {context}")
    return tuple(names)


def parse_problem_file(text: str) -> ProblemFile:
    seen: dict[str, str] = {}
    per_forbid: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFileError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        match = _FORBID_KEY.match(key)
        if match:
            unknown = match.group(1).strip()
            if not _IDENT.fullmatch(unknown) or unknown in RESERVED:
                raise ProblemFileError(f"line {lineno}: invalid unknown in {key!r}")
            if unknown in per_forbid:
                raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
            per_forbid[unknown] = idents(value, key)
            continue
        if key not in ("unknowns", "parameters", "forbid", "formula"):
            raise ProblemFileError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
        if key == "formula":
            formula_at = lineno, re.match(r"\s*formula\s*:\s*", raw).end()
    if "unknowns" not in seen:
        raise ProblemFileError("missing 'unknowns:' line")
    if "formula" not in seen:
        raise ProblemFileError("missing 'formula:' line")
    unknowns = idents(seen["unknowns"], "unknowns")
    if not unknowns:
        raise ProblemFileError("'unknowns:' line names no unknown")
    parameters = idents(seen["parameters"], "parameters") if "parameters" in seen else None
    forbid = idents(seen["forbid"], "forbid") if "forbid" in seen else None
    restrictions = {"forbid": forbid or ()}
    for unknown, atoms in per_forbid.items():
        if unknown not in unknowns:
            raise ProblemFileError(f"forbid({unknown}): {unknown} is not an unknown")
        restrictions[f"forbid({unknown})"] = atoms
    reserved = set(unknowns) | set(parameters or ())
    for key, atoms in restrictions.items():
        clash = sorted(set(atoms) & reserved)
        if clash:
            raise ProblemFileError(
                f"{key}: {', '.join(clash)} must not be an unknown or a parameter"
            )
    try:
        formula = parse(seen["formula"])
    except ParseError as exc:
        line, start = formula_at
        raise ParseError(exc.message, line, start + exc.col) from None
    try:
        problem = SolutionProblem(formula, unknowns, parameters, forbid)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    return ProblemFile(problem, per_forbid)


def load(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_problem_file(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
