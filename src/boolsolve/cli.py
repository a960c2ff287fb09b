"""Batch command-line front end.

Problem files are line-oriented ``key: value`` with ``#`` comments:

    unknowns: p1 p2
    parameters: t1 t2        # optional
    forbid: b                # optional, applies to every component
    forbid(p1): b            # optional, per-component restriction
    formula: (a -> b) -> ((p1 -> p2) & (a -> p2) & (p2 -> b))

Exit codes: 0 success/true, 1 no solution/false, 2 usage or input error,
or a restricted search that stopped undecided at its budget.

A problem file is read once, unbuffered, and decoded as UTF-8.  Its
formula is walked once, by the parser, which hands the solvers the free
atoms of a formula with no quantifier.

One table, ``_COMMANDS``, lists each command's handler, options and
positional.  An argv in the exact form that scripts send (each option
named in full, see ``_read_exact``) is read from it directly; argparse,
with parsers built from the same table, reads every other argv and
prints ``-h`` help and usage errors.  Only the second loads argparse.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from .elimination import (
    NotIndependent,
    depends_on,
    project_vocabulary,
    weakest_precondition,
)
from .formula import AtomSet, BoolsolveError, Formula, Record, all_names, free_atoms, fresh_name
from .semantics import truth_table
from .solve import (
    NoSolution,
    Solution,
    SolutionProblem,
    Strategy,
    exists_solution,
    precondition,
    solve_by_witnesses,
    solve_on_second_order,
    solve_restricted,
    solve_succ_elim,
)
from .syntax import IDENTIFIER, RESERVED, ParseError, _parse, parse

_IDENT = re.compile(IDENTIFIER)
_FORBID_KEY = re.compile(r"forbid\(([^)]*)\)$")
# A name list _idents accepts: identifiers, none of them reserved.
_NAME = rf"(?!(?:{'|'.join(sorted(RESERVED))})(?![A-Za-z0-9_])){IDENTIFIER}"
_NAMES = re.compile(rf"\s*(?:{_NAME}(?:\s+{_NAME})*)?\s*")


class ProblemFileError(BoolsolveError):
    pass


class ProblemFile(Record):
    """A problem file's problem, which holds its unknowns, formula,
    declared parameters and the atoms of ``forbid:``, and each unknown's
    ``forbid(p):`` atoms."""

    __slots__ = __match_args__ = ("problem", "per_forbid")
    problem: SolutionProblem
    per_forbid: dict[str, tuple[str, ...]]

    def __init__(self, problem: SolutionProblem, per_forbid: dict[str, tuple[str, ...]]) -> None:
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "per_forbid", per_forbid)


def _idents(value: str, context: str) -> tuple[str, ...]:
    """The names of a whitespace-separated list; a reserved word, which
    would print as a constant or a quantifier, is refused."""
    names = value.split()
    if not _NAMES.fullmatch(value):
        bad = next(name for name in names if not _IDENT.fullmatch(name) or name in RESERVED)
        kind = "reserved word" if bad in RESERVED else "invalid identifier"
        raise ProblemFileError(f"{kind} {bad!r} in {context}")
    return tuple(names)


def parse_problem_file(text: str) -> ProblemFile:
    return _read_problem(text)[0]


def _read_problem(text: str) -> tuple[ProblemFile, AtomSet | None]:
    """The file's problem, and its formula's names when the parser hands
    them over: the free atoms of a formula with no quantifier."""
    seen: dict[str, str] = {}
    per_forbid: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ProblemFileError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        value = value.strip()
        match = key[:7] == "forbid(" and _FORBID_KEY.match(key)
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
    try:
        formula, names = _parse(seen["formula"])
    except ParseError as exc:
        raise _in_file(exc, text) from None
    # the solvers' own checks, whatever the command
    problem = _problem(formula, unknowns, parameters, forbid, names)
    return ProblemFile(problem, per_forbid), names


def _in_file(exc: ParseError, text: str) -> ParseError:
    """``exc``, found in the one-line value of ``formula:``, placed at its
    line and column in the problem file ``text``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, colon, value = raw.partition("#")[0].partition(":")
        if colon and key.strip() == "formula":
            break
    start = len(key) + 1 + len(value) - len(value.lstrip())
    return ParseError(exc.message, lineno, start + exc.col)


def _load(path: str) -> tuple[ProblemFile, AtomSet | None]:
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return _read_problem(text)


def _fresh_parameters(sp: SolutionProblem, names: AtomSet | None) -> tuple[str, ...]:
    """One parameter per unknown, apart from the formula's ``names``."""
    used = set(all_names(sp.formula) if names is None else names)
    used |= set(sp.unknowns) | set(sp.forbidden or ())
    out = []
    for _ in sp.unknowns:
        name = fresh_name("t", used)
        used.add(name)
        out.append(name)
    return tuple(out)


def _restriction_violation(pf: ProblemFile, components: Sequence[Formula]) -> str | None:
    """How the first component that depends on an atom forbidden to it
    by ``forbid:`` or ``forbid(p):`` breaks the restriction, or None."""
    sp = pf.problem
    for p, c in zip(sp.unknowns, components):
        mentioned = free_atoms(c)  # c depends on no other atom
        for b in sorted(set(sp.forbidden or ()) | set(pf.per_forbid.get(p, ()))):
            if b in mentioned and depends_on([b], c):
                return f"component {p} depends on forbidden atom {b}"
    return None


def _problem(
    formula: Formula,
    unknowns: Sequence[str],
    parameters: Sequence[str] | None,
    forbidden: Sequence[str] | None,
    free: AtomSet | None,
) -> SolutionProblem:
    """A file's problem; one the solvers reject is an input error."""
    try:
        return SolutionProblem(formula, unknowns, parameters, forbidden, _free=free)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None


def _per_unknown(pf: ProblemFile) -> list[tuple[str, ...]] | None:
    """Each unknown's ``forbid(p):`` atoms, or None when the file has no
    such line; the solvers add the atoms of ``forbid:`` to every set."""
    if not pf.per_forbid:
        return None
    return [pf.per_forbid.get(p, ()) for p in pf.problem.unknowns]


def _print_solution(unknowns: tuple[str, ...], sol: Solution) -> None:
    # Every line is rendered first, so a component too deep to print
    # leaves no partial answer on stdout.
    lines = [f"{name} := {component}" for name, component in zip(unknowns, sol.components)]
    print("\n".join(lines))


def _cmd_exists(args: SimpleNamespace) -> int:
    pf, _ = _load(args.file)
    # With forbid: or forbid(p): this is solvability of the restricted problem.
    if exists_solution(pf.problem, _per_unknown(pf)):
        print("solvable")
        return 0
    print("not solvable")
    return 1


def _cmd_solve(args: SimpleNamespace) -> int:
    pf, names = _load(args.file)
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
    if sp.parameters is None and needs_params:
        parameters = _fresh_parameters(sp, names)
        sp = _problem(sp.formula, sp.unknowns, parameters, sp.forbidden, sp.free)
    if sp.forbidden or per_unknown:
        sol = solve_restricted(sp, per_unknown)
        _print_solution(sp.unknowns, sol)
        return 0
    if args.method == "succ-elim":
        sol = solve_succ_elim(sp)
    elif args.method == "second-order":
        strategy = Strategy.REPRODUCTIVE if args.reproductive else Strategy.INTERVAL
        sol = solve_on_second_order(sp, strategy)
    else:
        sol = solve_by_witnesses(sp)
    _print_solution(sp.unknowns, sol)
    return 0


def _cmd_check(args: SimpleNamespace) -> int:
    from .oracle import check_particular  # loaded only by the commands that use it

    pf, _ = _load(args.file)
    texts = [part.strip() for part in args.with_.split(";")]
    if len(texts) != len(pf.problem.unknowns):
        print(
            f"error: expected {len(pf.problem.unknowns)} components, got {len(texts)}",
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


def _cmd_eliminate(args: SimpleNamespace) -> int:
    names = _idents(args.vars, "--vars")
    print(weakest_precondition(names, parse(args.formula)))
    return 0


def _cmd_precondition(args: SimpleNamespace) -> int:
    pf, _ = _load(args.file)
    if pf.per_forbid:
        print("error: precondition does not take per-component restrictions", file=sys.stderr)
        return 2
    print(precondition(pf.problem))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .oracle import enumerate_solutions  # loaded only by the commands that use it

    pf, _ = _load(args.file)
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


def _cmd_project(args: SimpleNamespace) -> int:
    keep = _idents(args.keep, "--keep")
    print(project_vocabulary(parse(args.formula), keep))
    return 0


_Handler = Callable[[SimpleNamespace], int]

# Each command's handler, help, positional argument and that argument's
# help, and its options: each option's name and the keywords that
# argparse's add_argument takes for it.
_COMMANDS = {
    "solve": (
        _cmd_solve, "compute a solution of a problem file", "file", "problem file",
        {
            "--method": {
                "help": "succ-elim (the default), second-order or witnesses",
                "choices": ("succ-elim", "second-order", "witnesses"),
                "default": "succ-elim",
            },
            "--reproductive": {
                "help": "the reproductive strategy of second-order", "action": "store_true"
            },
        },
    ),
    "exists": (_cmd_exists, "test solvability", "file", "problem file", {}),
    "check": (
        _cmd_check, "verify a candidate solution", "file", "problem file",
        {
            "--with": {
                "help": "semicolon-separated component formulas",
                "dest": "with_", "required": True, "metavar": "COMPONENTS",
            },
        },
    ),
    "eliminate": (
        _cmd_eliminate, "eliminate atoms from a formula", "formula", "formula text",
        {"--vars": {"help": "atoms to eliminate", "required": True}},
    ),
    "precondition": (
        _cmd_precondition, "weakest antecedent making the problem solvable",
        "file", "problem file", {},
    ),
    "enumerate": (
        _cmd_enumerate, "list all basis-function solutions", "file", "problem file",
        {
            "--basis": {"help": "basis atoms", "required": True},
            "--bits": {"help": "print truth-table bits", "action": "store_true"},
        },
    ),
    "project": (
        _cmd_project, "restrict a formula to a vocabulary", "formula", "formula text",
        {"--keep": {"help": "atoms to keep", "required": True}},
    ),
}


def _read_exact(argv: Sequence[str]) -> tuple[_Handler, SimpleNamespace] | None:
    """The handler and fields of ``argv`` when it is in the exact form,
    else None.

    In the exact form a command comes first, then its one positional and
    its options in any order, each option named in full: a flag alone,
    any other option with its value after it or joined to it by ``=``.
    No value starts with ``-``, each is one of its option's choices if
    it has any, and every required option is there.  argparse reads such
    argv alike on every Python, to the same fields.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    handler, _, positional, _, options = command
    fields: dict[str, object] = {}
    i, n = 1, len(argv)
    while i < n:
        arg = argv[i]
        i += 1
        if arg[:1] != "-":
            if positional in fields:
                return None
            fields[positional] = arg
            continue
        name, eq, value = arg.partition("=")
        option = options.get(name)
        if option is None:
            return None
        dest = option.get("dest", name[2:])
        if option.get("action"):  # a flag
            if eq:
                return None
            fields[dest] = True
            continue
        if not eq:
            if i == n:
                return None
            value = argv[i]
            i += 1
        if value[:1] == "-" or value not in option.get("choices", (value,)):
            return None
        fields[dest] = value
    if positional not in fields:
        return None
    for name, option in options.items():
        dest = option.get("dest", name[2:])
        if dest not in fields:
            if option.get("required"):
                return None
            fields[dest] = False if option.get("action") else option.get("default")
    return handler, SimpleNamespace(**fields)


def _read_argv(argv: Sequence[str]) -> tuple[_Handler, SimpleNamespace]:
    """The handler and fields that ``argv`` names.

    argparse reads every argv that is not in the exact form; it prints
    the help of ``-h`` and the text of a usage error, and raises
    ``SystemExit``.  A named command goes straight to its own parser,
    which argparse would otherwise reach only after a second pass.
    """
    read = _read_exact(argv)
    if read is not None:
        return read
    import argparse  # loaded only by argv outside the exact form

    parser = argparse.ArgumentParser(
        prog="boolsolve",
        description="Solve Boolean equations over propositional formulas",
        epilog="'boolsolve <command> -h' shows a command's options.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, about, positional, positional_help, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=about, description=about)
        for option, keywords in options.items():
            sub.add_argument(option, **keywords)
        sub.add_argument(positional, help=positional_help)
        sub.set_defaults(func=handler)
    command = commands.choices.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    return args.func, args


def run(argv: list[str]) -> int:
    try:
        handler, args = _read_argv(argv)
    except SystemExit as exc:  # argparse's -h or usage error
        return 0 if exc.code in (0, None) else 2
    try:
        return handler(args)
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
