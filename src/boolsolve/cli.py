"""Batch command-line front end.

Problem files are line-oriented ``key: value`` with ``#`` comments:

    unknowns: p1 p2
    parameters: t1 t2        # optional
    forbid: b                # optional, applies to every component
    forbid(p1): b            # optional, per-component restriction
    formula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))

Exit codes: 0 success/true, 1 no solution/false, 2 usage or input error,
or a restricted search that stopped undecided at its budget.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .elimination import (
    NotIndependent,
    depends_on,
    project_vocabulary,
    weakest_precondition,
)
from .formula import BoolsolveError, Formula, Record, all_names, fresh_name
from .semantics import truth_table
from .solve import (
    NoSolution,
    Solution,
    SolutionProblem,
    Strategy,
    exists_solution,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
)
from .syntax import IDENTIFIER, RESERVED, parse

_IDENT = re.compile(IDENTIFIER)
_FORBID_KEY = re.compile(r"forbid\(([^)]*)\)$")


class ProblemFileError(BoolsolveError):
    pass


class ProblemFile(Record):
    """A problem file's keys, and the problem they state with the
    declared parameters and the atoms of ``forbid:``."""

    __slots__ = __match_args__ = (
        "unknowns", "parameters", "forbid", "per_forbid", "formula", "problem"
    )
    unknowns: tuple[str, ...]
    parameters: tuple[str, ...] | None
    forbid: tuple[str, ...] | None
    per_forbid: dict[str, tuple[str, ...]]
    formula: Formula
    problem: SolutionProblem

    def __init__(
        self,
        unknowns: tuple[str, ...],
        parameters: tuple[str, ...] | None,
        forbid: tuple[str, ...] | None,
        per_forbid: dict[str, tuple[str, ...]],
        formula: Formula,
        problem: SolutionProblem,
    ) -> None:
        object.__setattr__(self, "unknowns", unknowns)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "forbid", forbid)
        object.__setattr__(self, "per_forbid", per_forbid)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "problem", problem)


def _idents(value: str, context: str) -> tuple[str, ...]:
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
            per_forbid[unknown] = _idents(value, key)
            continue
        if key not in ("unknowns", "parameters", "forbid", "formula"):
            raise ProblemFileError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
    if "unknowns" not in seen:
        raise ProblemFileError("missing 'unknowns:' line")
    if "formula" not in seen:
        raise ProblemFileError("missing 'formula:' line")
    unknowns = _idents(seen["unknowns"], "unknowns")
    if not unknowns:
        raise ProblemFileError("'unknowns:' line names no unknown")
    parameters = (
        _idents(seen["parameters"], "parameters") if "parameters" in seen else None
    )
    forbid = _idents(seen["forbid"], "forbid") if "forbid" in seen else None
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
    formula = parse(seen["formula"])
    # the solvers' own checks, whatever the command
    problem = _problem(formula, unknowns, parameters, forbid)
    return ProblemFile(unknowns, parameters, forbid, per_forbid, formula, problem)


def _load(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_problem_file(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc


def _fresh_parameters(pf: ProblemFile) -> tuple[str, ...]:
    used = set(all_names(pf.formula)) | set(pf.unknowns) | set(pf.forbid or ())
    out = []
    for _ in pf.unknowns:
        name = fresh_name("t", used)
        used.add(name)
        out.append(name)
    return tuple(out)


def _restriction_violation(pf: ProblemFile, components: Sequence[Formula]) -> str | None:
    """How the first component that depends on an atom forbidden to it
    by ``forbid:`` or ``forbid(p):`` breaks the restriction, or None."""
    for p, c in zip(pf.unknowns, components):
        forbidden = sorted(set(pf.forbid or ()) | set(pf.per_forbid.get(p, ())))
        if depends_on(forbidden, c):
            b = next(b for b in forbidden if depends_on([b], c))
            return f"component {p} depends on forbidden atom {b}"
    return None


def _problem(
    formula: Formula,
    unknowns: Sequence[str],
    parameters: Sequence[str] | None,
    forbidden: Sequence[str] | None,
) -> SolutionProblem:
    """A file's problem; one the solvers reject is an input error."""
    try:
        return SolutionProblem(formula, unknowns, parameters, forbidden)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None


def _per_unknown(pf: ProblemFile) -> list[tuple[str, ...]] | None:
    """Each unknown's ``forbid(p):`` atoms, or None when the file has no
    such line; the solvers add the atoms of ``forbid:`` to every set."""
    if not pf.per_forbid:
        return None
    return [pf.per_forbid.get(p, ()) for p in pf.unknowns]


def _print_solution(unknowns: tuple[str, ...], sol: Solution) -> None:
    # Every line is rendered first, so a component too deep to print
    # leaves no partial answer on stdout.
    lines = [f"{name} := {component}" for name, component in zip(unknowns, sol.components)]
    print("\n".join(lines))


def _cmd_exists(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    # With forbid: or forbid(p): this is solvability of the restricted problem.
    if exists_solution(pf.problem, _per_unknown(pf)):
        print("solvable")
        return 0
    print("not solvable")
    return 1


def _cmd_solve(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    per_unknown = _per_unknown(pf)
    if args.reproductive and args.method == "witnesses":
        print("error: the witnesses method yields particular solutions", file=sys.stderr)
        return 2
    if args.reproductive and per_unknown:
        print("error: per-component restrictions yield particular solutions", file=sys.stderr)
        return 2
    # Per-component restrictions give a particular solution.
    needs_params = (args.method == "succ-elim" or args.reproductive) and not per_unknown
    sp = pf.problem
    if pf.parameters is None and needs_params:
        sp = _problem(pf.formula, pf.unknowns, _fresh_parameters(pf), pf.forbid)
    if pf.forbid or per_unknown:
        sol = solve_restricted(sp, per_unknown)
        _print_solution(pf.unknowns, sol)
        return 0
    if args.method == "succ-elim":
        sol = solve_succ_elim(sp)
    elif args.method == "second-order":
        strategy = Strategy.REPRODUCTIVE if args.reproductive else Strategy.INTERVAL
        sol = solve_on_second_order(sp, strategy)
    else:
        sol = solve_by_witnesses(sp)
    _print_solution(pf.unknowns, sol)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .oracle import check_particular  # loaded only by the commands that use it

    pf = _load(args.file)
    texts = [part.strip() for part in args.with_.split(";")]
    if len(texts) != len(pf.unknowns):
        print(
            f"error: expected {len(pf.unknowns)} components, got {len(texts)}",
            file=sys.stderr,
        )
        return 2
    components = [parse(text) for text in texts]
    report = check_particular(pf.problem, components)
    if not report.verdict:
        failure = report.failures[0]
        detail = f" at {failure.valuation}" if failure.valuation else ""
        print(f"not a solution: {failure.reason}{detail}")
        return 1
    violation = _restriction_violation(pf, components)
    if violation is not None:
        print(f"not a solution: {violation}")
        return 1
    print("valid solution")
    return 0


def _cmd_eliminate(args: argparse.Namespace) -> int:
    names = _idents(args.vars, "--vars")
    print(weakest_precondition(names, parse(args.formula)))
    return 0


def _cmd_precondition(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    print(weakest_precondition(pf.unknowns, pf.formula))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .oracle import enumerate_solutions  # loaded only by the commands that use it

    pf = _load(args.file)
    basis = _idents(args.basis, "--basis")
    solutions = [
        sol
        for sol in enumerate_solutions(pf.problem, basis)
        if _restriction_violation(pf, sol.components) is None
    ]
    if args.bits:
        print(f"basis: {' '.join(sorted(set(basis)))}")
        for sol in solutions:
            print(
                "; ".join(
                    truth_table(g, sorted(set(basis))).bit_string()
                    for g in sol.components
                )
            )
    else:
        for sol in solutions:
            print("; ".join(str(g) for g in sol.components))
    return 0 if solutions else 1


def _cmd_project(args: argparse.Namespace) -> int:
    keep = _idents(args.keep, "--keep")
    try:
        print(project_vocabulary(parse(args.formula), keep))
    except NotIndependent as exc:
        print(f"not independent: {exc}")
        return 1
    return 0


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


def run(argv: list[str]) -> int:
    # A named command goes straight to its own parser, which argparse
    # would otherwise reach only after a second pass over argv.
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except NoSolution as exc:
        print(f"no solution: {exc}")
        return 1
    except NotIndependent as exc:
        print(f"not independent: {exc}")
        return 1
    except BoolsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
