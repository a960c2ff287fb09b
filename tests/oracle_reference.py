"""Literal-substitution reference for the oracle's parameterised checks.

The oracle composes truth tables and tests capture syntactically.  These
checks read the definitions literally instead: they substitute canonical
basis formulas with ``substitute``, check each instance with
``check_particular`` and compare formulas by their truth tables.  Their
particular solutions are enumerated the same way, so no verdict here
goes through the oracle's table path.  Slow, and meant for tests only.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from boolsolve import (
    BoolsolveError,
    CheckFailure,
    CheckReport,
    Formula,
    FunctionSpace,
    SolutionProblem,
    check_particular,
    equivalent,
    free_atoms,
    is_substitutible,
    is_valid,
    substitute,
    truth_table,
)

_MENTIONS_UNKNOWN = CheckReport(
    False, (CheckFailure("components", "components mention an unknown"),)
)


def _label(formulas: Sequence[Formula]) -> str:
    return "(" + ", ".join(str(g) for g in formulas) + ")"


def _mentions_unknown(sp: SolutionProblem, sol: Sequence[Formula]) -> bool:
    return any(set(free_atoms(g)) & set(sp.unknowns) for g in sol)


def particular_solutions(sp: SolutionProblem, space: FunctionSpace) -> list[list[Formula]]:
    """Every tuple of basis formulas that substitutes into F and makes it
    valid."""
    return [
        list(hs)
        for hs in product(space.formulas, repeat=len(sp.unknowns))
        if is_substitutible(hs, sp.unknowns, sp.formula)
        and is_valid(substitute(sp.formula, sp.unknowns, hs))
    ]


def instantiation_failures(
    sp: SolutionProblem, sol: Sequence[Formula], space: FunctionSpace, limit: int = 5
) -> list[CheckFailure]:
    failures: list[CheckFailure] = []
    params = sp.parameters or ()
    for ts in product(space.formulas, repeat=len(params)):
        label = "instantiation T = " + _label(ts)
        try:
            inst = [substitute(g, params, list(ts)) for g in sol]
            report = check_particular(sp, inst)
        except BoolsolveError as exc:
            failures.append(CheckFailure(label, str(exc)))
        else:
            if not report.verdict:
                first = report.failures[0]
                failures.append(CheckFailure(label, first.reason, first.valuation))
        if len(failures) >= limit:
            return failures
    return failures


def check_parametric(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return _MENTIONS_UNKNOWN
    failures = instantiation_failures(sp, sol, FunctionSpace(basis))
    return CheckReport(not failures, tuple(failures))


def check_reproductive(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return _MENTIONS_UNKNOWN
    space = FunctionSpace(basis)
    failures = instantiation_failures(sp, sol, space)
    params = sp.parameters or ()
    for h in particular_solutions(sp, space):
        label = "solution H = " + _label(h)
        try:
            reproduced = [substitute(g, params, h) for g in sol]
        except BoolsolveError as exc:
            failures.append(CheckFailure(label, str(exc)))
            continue
        for i, (r, original) in enumerate(zip(reproduced, h)):
            if not equivalent(r, original):
                failures.append(CheckFailure(label, f"component {i + 1} is not reproduced"))
                break
    return CheckReport(not failures, tuple(failures))


def check_general(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return _MENTIONS_UNKNOWN
    space = FunctionSpace(basis)
    failures = instantiation_failures(sp, sol, space)
    params = sp.parameters or ()
    images = []
    for ts in product(space.formulas, repeat=len(params)):
        try:
            images.append([substitute(g, params, list(ts)) for g in sol])
        except BoolsolveError:
            continue
    solutions = particular_solutions(sp, space)
    # equal truth tables over every atom involved, as ``equivalent`` tests
    names = sorted({a for fs in images + solutions for g in fs for a in free_atoms(g)})

    def key(formulas: Sequence[Formula]) -> tuple[int, ...]:
        return tuple(truth_table(g, names).as_int() for g in formulas)

    reachable = {key(image) for image in images}
    for h in solutions:
        if key(h) not in reachable:
            failures.append(
                CheckFailure("solution H = " + _label(h), "not reachable by any parameter instantiation")
            )
    return CheckReport(not failures, tuple(failures))
