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


def _cmd_exists(args: SimpleNamespace) -> int:
    pf = _load(args.file)
    # With forbid: or forbid(p): this is solvability of the restricted problem.
    if exists_solution(pf.problem, _per_unknown(pf)):
        print("solvable")
        return 0
    print("not solvable")
    return 1


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_check(args: SimpleNamespace) -> int:
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


def _cmd_eliminate(args: SimpleNamespace) -> int:
    names = _idents(args.vars, "--vars")
    print(weakest_precondition(names, parse(args.formula)))
    return 0


def _cmd_precondition(args: SimpleNamespace) -> int:
    pf = _load(args.file)
    print(weakest_precondition(pf.unknowns, pf.formula))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
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


def _cmd_project(args: SimpleNamespace) -> int:
    keep = _idents(args.keep, "--keep")
    try:
        print(project_vocabulary(parse(args.formula), keep))
    except NotIndependent as exc:
        print(f"not independent: {exc}")
        return 1
    return 0


class _Option:
    """An option of a command: a flag, or an option that takes a value,
    one of ``choices`` when there are any."""

    __slots__ = ("name", "help", "dest", "flag", "choices", "default", "required", "metavar")

    def __init__(
        self,
        name: str,
        help: str,
        *,
        dest: str | None = None,
        flag: bool = False,
        choices: tuple[str, ...] = (),
        default: str | None = None,
        required: bool = False,
        metavar: str | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.dest = dest or name[2:]
        self.flag = flag
        self.choices = choices
        self.default = False if flag else default
        self.required = required
        self.metavar = metavar or self.dest.upper()

    def usage(self) -> str:
        if self.flag:
            text = self.name
        elif self.choices:
            text = f"{self.name} {{{','.join(self.choices)}}}"
        else:
            text = f"{self.name} {self.metavar}"
        return text if self.required else f"[{text}]"


_HELP = _Option("-h/--help", "show this help message and exit", dest="help", flag=True)
_TOP_LOOKUP = {"-h": _HELP, "--help": _HELP}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


class _Command:
    """A command: its handler, its help, its options and its one
    positional argument, with that argument's help."""

    __slots__ = ("name", "handler", "help", "options", "positional", "positional_help", "lookup")

    def __init__(
        self,
        name: str,
        handler: Callable[[SimpleNamespace], int],
        help: str,
        options: tuple[_Option, ...],
        positional: str,
        positional_help: str,
    ) -> None:
        self.name = name
        self.handler = handler
        self.help = help
        self.options = options
        self.positional = positional
        self.positional_help = positional_help
        self.lookup = {**_TOP_LOOKUP, **{o.name: o for o in options}}


_COMMANDS = {
    command.name: command
    for command in (
        _Command(
            "solve", _cmd_solve, "compute a solution of a problem file",
            (
                _Option(
                    "--method", "succ-elim (the default), second-order or witnesses",
                    choices=("succ-elim", "second-order", "witnesses"), default="succ-elim",
                ),
                _Option("--reproductive", "the reproductive strategy of second-order", flag=True),
            ),
            "file", "problem file",
        ),
        _Command("exists", _cmd_exists, "test solvability", (), "file", "problem file"),
        _Command(
            "check", _cmd_check, "verify a candidate solution",
            (
                _Option(
                    "--with", "semicolon-separated component formulas",
                    dest="with_", required=True, metavar="COMPONENTS",
                ),
            ),
            "file", "problem file",
        ),
        _Command(
            "eliminate", _cmd_eliminate, "eliminate atoms from a formula",
            (_Option("--vars", "atoms to eliminate", required=True),),
            "formula", "formula text",
        ),
        _Command(
            "precondition", _cmd_precondition,
            "weakest antecedent making the problem solvable", (), "file", "problem file",
        ),
        _Command(
            "enumerate", _cmd_enumerate, "list all basis-function solutions",
            (
                _Option("--basis", "basis atoms", required=True),
                _Option("--bits", "print truth-table bits", flag=True),
            ),
            "file", "problem file",
        ),
        _Command(
            "project", _cmd_project, "restrict a formula to a vocabulary",
            (_Option("--keep", "atoms to keep", required=True),),
            "formula", "formula text",
        ),
    )
}


class _ArgvExit(Exception):
    """The end of reading argv without a command to run: ``-h`` (exit 0,
    the help on stdout) or a usage error (exit 2, on stderr)."""

    def __init__(self, code: int, text: str) -> None:
        super().__init__(text)
        self.code = code
        self.text = text


def _usage(command: _Command | None) -> str:
    if command is None:
        return f"usage: boolsolve [-h] {{{','.join(_COMMANDS)}}} ..."
    options = [o.usage() for o in command.options]
    return " ".join(["usage: boolsolve", command.name, "[-h]", *options, command.positional])


def _help(command: _Command | None) -> str:
    if command is None:
        about = "Solve Boolean equations over propositional formulas"
        rows = [(name, c.help) for name, c in _COMMANDS.items()]
        after = "\n'boolsolve <command> -h' shows a command's options.\n"
    else:
        about = command.help
        rows = [(command.positional, command.positional_help)]
        for o in command.options:
            rows.append((o.name if o.flag else f"{o.name} {o.metavar}", o.help))
        after = ""
    rows.append(("-h, --help", _HELP.help))
    width = max(len(left) for left, _ in rows)
    lines = "".join(f"  {left:<{width}}  {right}\n" for left, right in rows)
    return f"{_usage(command)}\n\n{about}\n\n{lines}{after}"


def _error(command: _Command | None, message: str) -> _ArgvExit:
    prog = "boolsolve" if command is None else f"boolsolve {command.name}"
    return _ArgvExit(2, f"{_usage(command)}\n{prog}: error: {message}\n")


def _classify(
    command: _Command | None, arg: str
) -> tuple[_Option | None, str | None] | None:
    """How ``arg``, before any ``--``, reads by the rules of Python's
    argparse: None for a positional, else the option it names (None if
    no option) and the value given with ``=``.  A long option may be
    abbreviated to a unique prefix, and ``-h`` may be repeated (``-hh``);
    a negative number or a text with a space is a positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    lookup = _TOP_LOOKUP if command is None else command.lookup
    if arg in lookup:
        return lookup[arg], None
    name, eq, value = arg.partition("=")
    if eq and name in lookup:
        return lookup[name], value
    if arg[1] == "-":
        matches = [n for n in lookup if n.startswith(name)]
        if len(matches) > 1:
            raise _error(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return lookup[matches[0]], value if eq else None
    elif arg[1] == "h":
        return _HELP, arg[2:] if arg[1:].strip("h") else None
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _read_command(
    command: _Command, argv: Sequence[str]
) -> tuple[SimpleNamespace, list[str]]:
    """``command``'s fields read from ``argv``, and the arguments that
    name nothing.

    Options and the positional come in any order, and the last of a
    repeated option wins.  Every argument after the first ``--`` is
    positional; the ``--`` itself names nothing unless it comes before
    the positional or right after it.  An ambiguous abbreviation is an
    error before anything else is read.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(command, arg) for arg in argv[:end]]
    fields: dict[str, object] = {o.dest: o.default for o in command.options}
    seen: set[_Option] = set()
    extras: list[str] = []
    at = -1  # the positional's index in argv
    i = 0
    while i < len(argv):
        j, arg = i, argv[i]
        i += 1
        kind = kinds[j] if j < end else None
        if j == end:
            if 0 <= at < end - 1:
                extras.append(arg)
        elif kind is None:
            if at < 0:
                fields[command.positional] = arg
                at = j
            else:
                extras.append(arg)
        elif kind[0] is None:
            extras.append(arg)
        else:
            option, value = kind
            if option.flag and value is not None:
                raise _error(command, f"argument {option.name}: ignored explicit argument {value!r}")
            if option is _HELP:
                raise _ArgvExit(0, _help(command))
            if option.flag:
                value = True
            elif value is None:
                if i >= end or kinds[i] is not None:
                    raise _error(command, f"argument {option.name}: expected one argument")
                value = argv[i]
                i += 1
            if option.choices and value not in option.choices:
                choices = ", ".join(map(repr, option.choices))
                raise _error(
                    command,
                    f"argument {option.name}: invalid choice: {value!r} (choose from {choices})",
                )
            fields[option.dest] = value
            seen.add(option)
    missing = [o.name for o in command.options if o.required and o not in seen]
    if at < 0:
        missing.append(command.positional)
    if missing:
        raise _error(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**fields), extras


def _read_argv(argv: Sequence[str]) -> tuple[_Command, SimpleNamespace]:
    """The command that ``argv`` names first, and its fields.

    Before the command only ``-h`` is an option; the command's own
    options come after it.  Raises ``_ArgvExit`` for ``-h`` and for a
    usage error.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, extras = _read_command(command, argv[1:])
        if extras:
            raise _error(command, f"unrecognized arguments: {' '.join(extras)}")
        return command, args
    extras = []
    for i, arg in enumerate(argv):
        kind = None if arg == "--" else _classify(None, arg)
        if kind is None:
            command = _COMMANDS.get(arg)
            if command is None:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _error(None, f"argument command: invalid choice: {arg!r} (choose from {choices})")
            # an option before the command names nothing, so this ends in an error
            extras += _read_command(command, argv[i + 1 :])[1]
            raise _error(None, f"unrecognized arguments: {' '.join(extras)}")
        option, value = kind
        if option is None:
            extras.append(arg)
        elif value is not None:
            raise _error(None, f"argument {option.name}: ignored explicit argument {value!r}")
        else:
            raise _ArgvExit(0, _help(None))
    raise _error(None, "the following arguments are required: command")


def run(argv: list[str]) -> int:
    try:
        command, args = _read_argv(argv)
    except _ArgvExit as stop:
        print(stop.text, end="", file=sys.stderr if stop.code else sys.stdout)
        return stop.code
    try:
        return command.handler(args)
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
