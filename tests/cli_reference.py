"""The command-line parser the CLI had before it read argv from its own
command table: argparse, one sub-parser per command.

``read`` runs it the way the CLI ran it (a named command straight to its
own sub-parser, anything else to the top-level parser) and returns the
exit code argparse ends with and the fields it read, so the differential
tests can hold ``boolsolve.cli``'s reader to the same argv.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from typing import Sequence

from boolsolve.cli import (
    _cmd_check,
    _cmd_eliminate,
    _cmd_enumerate,
    _cmd_exists,
    _cmd_precondition,
    _cmd_project,
    _cmd_solve,
)


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
