"""References for the oracle's enumeration and parameterised checks.

Two references, both slow and meant for tests only.

The substitution reference reads the definitions as stated: it
substitutes canonical basis formulas with ``substitute`` into
``clean_variant(·, basis)`` of F and of each component, so no binder
meets a basis atom, checks each instance with ``check_particular`` and
compares formulas by their truth tables.  Its particular solutions are
enumerated the same way, so no verdict there goes through the oracle's
table path.

The per-tuple reference (the ``tuple_`` functions) reads the
quantifiers over tuples of basis functions literally, where the oracle
decides them per basis valuation.  On the oracle's truth tables, it
loops over every tuple to enumerate the solutions, to check every
instantiation and to collect the instantiations' images for
reachability.  It tests a candidate for unknowns by its own name scan.
Its reports must equal the oracle's exactly.

``nested_solution_tables`` enumerates the allowed tables by nested
generators, one per unknown, each prepending its table to every tail
the next one yields.  The oracle's enumeration must yield the same
sequence.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from boolsolve import (
    CheckFailure,
    CheckReport,
    Formula,
    FunctionSpace,
    Solution,
    SolutionKind,
    SolutionProblem,
    check_particular,
    clean_variant,
    equivalent,
    free_atoms,
    is_valid,
    truth_table,
)
from boolsolve import oracle
from boolsolve.semantics import decode_valuation, formula_mask
from formula_reference import substitute

MENTIONS_UNKNOWN = CheckReport(
    False, (CheckFailure("components", "components mention an unknown"),)
)


def _label(formulas: Sequence[Formula]) -> str:
    return "(" + ", ".join(str(g) for g in formulas) + ")"


def _mentions_unknown(sp: SolutionProblem, sol: Sequence[Formula]) -> bool:
    return any(set(free_atoms(g)) & set(sp.unknowns) for g in sol)


def _substituted(
    g: Formula, names: Sequence[str], space: FunctionSpace, values: Sequence[Formula]
) -> Formula:
    """``g`` with the basis formulas ``values`` put for ``names``, its
    binders renamed apart from the basis first."""
    return substitute(clean_variant(g, space.basis), names, values)


def particular_solutions(sp: SolutionProblem, space: FunctionSpace) -> list[list[Formula]]:
    """Every tuple of basis formulas that makes F valid."""
    return [
        list(hs)
        for hs in product(space.formulas, repeat=len(sp.unknowns))
        if is_valid(_substituted(sp.formula, sp.unknowns, space, hs))
    ]


def instantiation_failures(
    sp: SolutionProblem, sol: Sequence[Formula], space: FunctionSpace, limit: int = 5
) -> list[CheckFailure]:
    failures: list[CheckFailure] = []
    params = sp.parameters or ()
    for ts in product(space.formulas, repeat=len(params)):
        report = check_particular(sp, [_substituted(g, params, space, ts) for g in sol])
        if not report.verdict:
            first = report.failures[0]
            label = "instantiation T = " + _label(ts)
            failures.append(CheckFailure(label, first.reason, first.valuation))
        if len(failures) >= limit:
            return failures
    return failures


def check_parametric(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return MENTIONS_UNKNOWN
    failures = instantiation_failures(sp, sol, FunctionSpace(basis))
    return CheckReport(not failures, tuple(failures))


def check_reproductive(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return MENTIONS_UNKNOWN
    space = FunctionSpace(basis)
    failures = instantiation_failures(sp, sol, space)
    params = sp.parameters or ()
    for h in particular_solutions(sp, space):
        reproduced = [_substituted(g, params, space, h) for g in sol]
        for i, (r, original) in enumerate(zip(reproduced, h)):
            if not equivalent(r, original):
                label = "solution H = " + _label(h)
                failures.append(CheckFailure(label, f"component {i + 1} is not reproduced"))
                break
    return CheckReport(not failures, tuple(failures))


def check_general(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    if _mentions_unknown(sp, sol):
        return MENTIONS_UNKNOWN
    space = FunctionSpace(basis)
    failures = instantiation_failures(sp, sol, space)
    params = sp.parameters or ()
    images = [
        [_substituted(g, params, space, ts) for g in sol]
        for ts in product(space.formulas, repeat=len(params))
    ]
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


# -- per-tuple reference ------------------------------------------------------


def _rows(eval_names: Sequence[str], names: Sequence[str], basis: Sequence[str]) -> list[tuple[int, int]]:
    """Per valuation w of ``eval_names``: w as a row over ``names``, and
    its basis valuation."""
    out = []
    for w in range(1 << len(eval_names)):
        row = 0
        for k, a in enumerate(eval_names):
            if (w >> k) & 1:
                row |= 1 << names.index(a)
        basis_idx = 0
        for k, b in enumerate(basis):
            if (w >> eval_names.index(b)) & 1:
                basis_idx |= 1 << k
        out.append((row, basis_idx))
    return out


class _TupleLoops:
    """Tables over the eval rows of the oracle's composer, and F checked
    on one tuple of them at a time."""

    def __init__(self, sp: SolutionProblem, space: FunctionSpace, composer) -> None:
        self.space = space
        self.eval_names = composer.eval_names
        names = tuple(sorted(set(self.eval_names) | set(sp.unknowns)))
        self.fmask = formula_mask(sp.formula, names)
        self.unknown_positions = [names.index(p) for p in sp.unknowns]
        self.rows = _rows(self.eval_names, names, space.basis)

    def extend(self, table: int) -> int:
        """Broadcast a basis-function table to one over the eval rows."""
        return sum(1 << w for w, (_, b) in enumerate(self.rows) if (table >> b) & 1)

    def failing_row(self, eval_tables: Sequence[int]) -> int | None:
        """The first eval row falsifying F with the unknowns' values read
        off ``eval_tables``, or None."""
        for w, (row, _) in enumerate(self.rows):
            for table, pos in zip(eval_tables, self.unknown_positions):
                if (table >> w) & 1:
                    row |= 1 << pos
            if not (self.fmask >> row) & 1:
                return w
        return None

    def solution_tables(self) -> Iterator[tuple[int, ...]]:
        for tables in product(self.space.tables, repeat=len(self.unknown_positions)):
            if self.failing_row([self.extend(t) for t in tables]) is None:
                yield tables


class _TupleChecker(_TupleLoops):
    """The oracle checker's labels, with the components instantiated one
    tuple of parameter tables at a time."""

    def __init__(self, sp: SolutionProblem, sol: Sequence[Formula], checker) -> None:
        super().__init__(sp, checker.space, checker.composer)
        self.checker = checker
        self.params = sp.parameters
        comp_names = tuple(sorted(set(self.eval_names) | set(self.params)))
        self.comp_masks = [formula_mask(g, comp_names) for g in sol]
        self.param_positions = [comp_names.index(t) for t in self.params]
        self.comp_rows = [row for row, _ in _rows(self.eval_names, comp_names, self.space.basis)]

    def instantiated_tables(self, t_tables: Sequence[int]) -> list[int]:
        out = []
        for mask in self.comp_masks:
            table = 0
            for w, comp_row in enumerate(self.comp_rows):
                row = comp_row
                for t, pos in zip(t_tables, self.param_positions):
                    if (t >> self.rows[w][1]) & 1:
                        row |= 1 << pos
                if (mask >> row) & 1:
                    table |= 1 << w
            out.append(table)
        return out

    def instantiation_failures(self, images: set | None = None, limit: int = 5) -> list[CheckFailure]:
        """As the oracle lists them; given ``images``, every tuple adds its
        instantiated tables there, including the tuples after the stop."""
        failures: list[CheckFailure] = []
        for t_tables in product(self.space.tables, repeat=len(self.params)):
            inst = self.instantiated_tables(t_tables)
            if images is not None:
                images.add(tuple(inst))
            if len(failures) >= limit:
                continue
            bad = self.failing_row(inst)
            if bad is None:
                continue
            failures.append(
                CheckFailure(
                    f"instantiation T = {self.checker.tuple_label(t_tables)}",
                    "instantiated components do not solve the problem",
                    decode_valuation(bad, self.eval_names),
                )
            )
            if len(failures) >= limit and images is None:
                break
        return failures


def nested_solution_tables(composer) -> Iterator[tuple[int, ...]]:
    """The oracle's enumeration order on ``composer.allowed``, by nested
    generators: each level narrows the allowed value tuples to those
    agreeing with its table and prepends its table to every tail the
    next level yields."""
    allowed = composer.allowed
    if not all(allowed):
        return
    n = composer.n_unknowns
    every = (1 << (1 << n)) - 1
    sides = []
    for j in range(n):
        ones = oracle._bits(v for v in range(1 << n) if (v >> j) & 1)
        sides.append((every ^ ones, ones))
    betas = range(len(allowed) - 1, -1, -1)

    def extend(j: int, rest: list[int]) -> Iterator[tuple[int, ...]]:
        if j == n:
            yield ()
            return
        zero, one = sides[j]
        options = [
            [x << b for x, side in ((0, zero), (1, one)) if rest[b] & side] for b in betas
        ]
        for t in map(sum, product(*options)):
            narrowed = [r & sides[j][(t >> b) & 1] for b, r in enumerate(rest)]
            for tail in extend(j + 1, narrowed):
                yield (t,) + tail

    yield from extend(0, allowed)


def tuple_enumerate_solutions(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> list[Solution]:
    basis_t = oracle._basis(sp, basis, allow_large, parameters=False)
    space = FunctionSpace(basis_t)
    loops = _TupleLoops(sp, space, oracle._Composer(sp, basis_t))
    return [
        Solution([space.formula(t) for t in tables], SolutionKind.PARTICULAR)
        for tables in loops.solution_tables()
    ]


def tuple_any_enumerated_solution(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> bool:
    return bool(tuple_enumerate_solutions(sp, basis, allow_large))


def _tuple_checker(kind, sp, sol, basis) -> _TupleChecker | CheckReport:
    """The reference's own unknown-mention test, then the loops over the
    oracle checker's tables and labels."""
    if _mentions_unknown(sp, sol):
        return MENTIONS_UNKNOWN
    checker = oracle._checker(kind, sp, sol, basis, allow_large=True)
    if isinstance(checker, CheckReport):
        raise AssertionError(f"the oracle refused a candidate the reference accepts: {checker}")
    return _TupleChecker(sp, sol, checker)


def tuple_check_parametric(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    loops = _tuple_checker("parametric", sp, sol, basis)
    if isinstance(loops, CheckReport):
        return loops
    failures = loops.instantiation_failures()
    return CheckReport(not failures, tuple(failures))


def tuple_check_reproductive(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    loops = _tuple_checker("reproductive", sp, sol, basis)
    if isinstance(loops, CheckReport):
        return loops
    failures = loops.instantiation_failures()
    for h_tables in loops.solution_tables():
        reproduced = loops.instantiated_tables(h_tables)
        reason = next(
            (
                f"component {i + 1} is not reproduced"
                for i, h in enumerate(h_tables)
                if reproduced[i] != loops.extend(h)
            ),
            None,
        )
        if reason is not None:
            failures.append(CheckFailure(f"solution H = {loops.checker.tuple_label(h_tables)}", reason))
    return CheckReport(not failures, tuple(failures))


def tuple_check_general(
    sp: SolutionProblem, sol: Sequence[Formula], basis: Sequence[str]
) -> CheckReport:
    loops = _tuple_checker("general", sp, sol, basis)
    if isinstance(loops, CheckReport):
        return loops
    images: set[tuple[int, ...]] = set()
    failures = loops.instantiation_failures(images)
    for h_tables in loops.solution_tables():
        if tuple(loops.extend(h) for h in h_tables) not in images:
            failures.append(
                CheckFailure(
                    f"solution H = {loops.checker.tuple_label(h_tables)}",
                    "not reachable by any parameter instantiation",
                )
            )
    return CheckReport(not failures, tuple(failures))
