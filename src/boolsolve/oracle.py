"""Brute-force ground truth over a finite function basis.

Candidate solution components range over every Boolean function of the
basis atoms, represented canonically as full-DNF formulas.  The checks
mirror the solution-type definitions exactly: particular (substitutible
and valid), reproductive (every parameter instantiation solves, and
every enumerated solution is reproduced) and general (every enumerated
solution is reachable by some instantiation).  The basis must not meet
the unknowns, nor, for these checks, the parameters.

Every check composes truth tables.  ``formula_mask`` evaluates
quantifiers exactly, so composing tables gives the table of the literal
substitution whenever that substitution is capture-free.  The capture
test is syntactic and made once per call with ``free_binders``: a
canonical basis formula mentions every basis atom unless it is
constant, so a tuple of basis functions is refused exactly when literal
substitution would raise ``NotSubstitutible``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

from .formula import (
    AtomSet,
    BoolsolveError,
    Formula,
    NotSubstitutible,
    free_atoms,
    free_binders,
    is_substitutible,
    substitute,
)
from .semantics import (
    TruthTable,
    atom_patterns,
    decode_valuation,
    falsifying_valuation,
    formula_from_table,
    formula_mask,
)
from .solve import Solution, SolutionKind, SolutionProblem

MAX_BASIS = 3
MAX_UNKNOWNS = 2

_NO_ATOMS: frozenset[str] = frozenset()


class TooLarge(BoolsolveError):
    pass


class FunctionSpace:
    """All Boolean functions over a basis, in table-bits integer order.

    Tables are plain ints (bit i = value at valuation i); truth tables
    and canonical formulas are materialized on demand.
    """

    def __init__(self, basis: Sequence[str]):
        self.basis: AtomSet = tuple(sorted(set(basis)))
        self.tables: range = range(1 << (1 << len(self.basis)))
        self._formulas: dict[int, Formula] = {}
        self._basis_atoms = frozenset(self.basis)

    def __len__(self) -> int:
        return len(self.tables)

    @property
    def functions(self) -> list[TruthTable]:
        return [TruthTable.from_int(t, self.basis) for t in self.tables]

    def formula(self, table: int) -> Formula:
        if table not in self._formulas:
            self._formulas[table] = formula_from_table(
                TruthTable.from_int(table, self.basis)
            )
        return self._formulas[table]

    def free_atoms(self, table: int) -> frozenset[str]:
        """Free atoms of ``formula(table)``: a full DNF mentions every
        basis atom, and the constants mention none."""
        if table == 0 or table == self.tables[-1]:
            return _NO_ATOMS
        return self._basis_atoms

    @property
    def formulas(self) -> list[Formula]:
        return [self.formula(t) for t in self.tables]


@dataclass(frozen=True)
class CheckFailure:
    subject: str
    reason: str
    valuation: dict[str, bool] | None = None


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    failures: tuple[CheckFailure, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.verdict != (not self.failures):
            raise ValueError("verdict must match emptiness of failures")


def _guard(basis: Sequence[str], unknowns: Sequence[str], allow_large: bool) -> None:
    if allow_large:
        return
    if len(set(basis)) > MAX_BASIS or len(unknowns) > MAX_UNKNOWNS:
        raise TooLarge(
            f"basis of {len(set(basis))} atoms with {len(unknowns)} unknowns "
            f"exceeds the cost guard ({MAX_BASIS} atoms, {MAX_UNKNOWNS} unknowns); "
            "pass allow_large=True to override"
        )


def _basis(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool, parameters: bool
) -> AtomSet:
    """The basis sorted and deduplicated, after the cost guard.  It must
    not meet the unknowns, nor, with ``parameters``, the parameters."""
    basis_t = tuple(sorted(set(basis)))
    if set(basis_t) & set(sp.unknowns):
        raise ValueError("basis atoms must not be unknowns")
    if parameters and set(basis_t) & set(sp.parameters or ()):
        raise ValueError("basis atoms must not be parameters")
    _guard(basis_t, sp.unknowns, allow_large)
    return basis_t


class _Composer:
    """Row bookkeeping for evaluating F[p := candidate functions] on tables."""

    def __init__(self, sp: SolutionProblem, basis: AtomSet, extra: Sequence[str] = ()):
        binders = free_binders(sp.formula)
        # the binders above each unknown's free occurrences in F: literal
        # substitution refuses a component that mentions one of them
        self.capturing = [binders.get(p, _NO_ATOMS) for p in sp.unknowns]
        eval_names = (set(binders) - set(sp.unknowns)) | set(basis)
        eval_names |= set(extra)
        self.eval_names: AtomSet = tuple(sorted(eval_names))
        self.all_names: AtomSet = tuple(sorted(eval_names | set(sp.unknowns)))
        self.formula_mask = formula_mask(sp.formula, self.all_names)
        positions = {a: i for i, a in enumerate(self.all_names)}
        self.unknown_positions = [positions[p] for p in sp.unknowns]
        eval_positions = [positions[a] for a in self.eval_names]
        basis_in_eval = [self.eval_names.index(b) for b in basis]
        self.rows: list[tuple[int, int]] = []  # (scattered base row, basis index)
        for w in range(1 << len(self.eval_names)):
            row = 0
            for k, pos in enumerate(eval_positions):
                if (w >> k) & 1:
                    row |= 1 << pos
            basis_idx = 0
            for k, src in enumerate(basis_in_eval):
                if (w >> src) & 1:
                    basis_idx |= 1 << k
            self.rows.append((row, basis_idx))

    def failing_valuation(self, tables: Sequence[int]) -> int | None:
        """Index (over eval_names) of a valuation falsifying
        F[candidates], or None when all pass."""
        fmask = self.formula_mask
        upos = self.unknown_positions
        for w, (row, basis_idx) in enumerate(self.rows):
            for j, pos in enumerate(upos):
                if (tables[j] >> basis_idx) & 1:
                    row |= 1 << pos
            if not (fmask >> row) & 1:
                return w
        return None


def _solution_tables(space: FunctionSpace, composer: _Composer) -> Iterator[tuple[int, ...]]:
    """Tuples of basis tables that substitute into F without capture and
    make it valid."""
    captured = [i for i, c in enumerate(composer.capturing) if c & set(space.basis)]
    for tables in product(space.tables, repeat=len(composer.capturing)):
        if any(space.free_atoms(tables[i]) for i in captured):
            continue
        if composer.failing_valuation(tables) is None:
            yield tables


def enumerate_solutions(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> list[Solution]:
    """Every tuple of basis functions that is a particular solution, as
    canonical full-DNF formulas, in enumeration order."""
    basis_t = _basis(sp, basis, allow_large, parameters=False)
    space = FunctionSpace(basis_t)
    out = []
    for tables in _solution_tables(space, _Composer(sp, basis_t)):
        out.append(
            Solution([space.formula(t) for t in tables], SolutionKind.PARTICULAR)
        )
    return out


def any_enumerated_solution(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> bool:
    """Early-exiting nonemptiness test for ``enumerate_solutions``."""
    basis_t = _basis(sp, basis, allow_large, parameters=False)
    space = FunctionSpace(basis_t)
    return next(_solution_tables(space, _Composer(sp, basis_t)), None) is not None


def check_particular(sp: SolutionProblem, sol: Sequence[Formula]) -> CheckReport:
    """Substitutibility plus validity of the substituted formula."""

    def failed(reason: str, valuation: dict[str, bool] | None = None) -> CheckReport:
        label = "(" + ", ".join(str(g) for g in sol) + ")"
        return CheckReport(False, (CheckFailure(label, reason, valuation),))

    if len(sol) != len(sp.unknowns):
        return failed("component count differs from unknown count")
    if not is_substitutible(sol, sp.unknowns, sp.formula):
        return failed("NotSubstitutible")
    counterexample = falsifying_valuation(substitute(sp.formula, sp.unknowns, sol))
    if counterexample is not None:
        return failed("substituted formula falsified", counterexample)
    return CheckReport(True)


class _ReproductiveChecker:
    """Shared table machinery for the parametric, reproductive and
    general checks."""

    def __init__(self, sp: SolutionProblem, sol: Sequence[Formula], basis: AtomSet):
        self.params = sp.parameters
        self.comp_binders = [free_binders(g) for g in sol]
        # per component, the parameters under a quantifier that binds a
        # basis atom: a non-constant basis function put there is captured
        self.captured_params = [
            [j for j, t in enumerate(self.params) if binders.get(t, _NO_ATOMS) & set(basis)]
            for binders in self.comp_binders
        ]
        extra: set[str] = set()
        for binders in self.comp_binders:
            extra |= set(binders) - set(self.params)
        self.composer = _Composer(sp, basis, extra=tuple(extra))
        self.space = FunctionSpace(basis)
        eval_names = self.composer.eval_names
        comp_names = tuple(sorted(set(eval_names) | set(self.params)))
        patterns = atom_patterns(comp_names)
        self.comp_masks = [formula_mask(g, comp_names, patterns) for g in sol]
        positions = {a: i for i, a in enumerate(comp_names)}
        self.param_positions = [positions[t] for t in self.params]
        eval_positions = [positions[a] for a in eval_names]
        self.comp_rows: list[int] = []
        for w in range(1 << len(eval_names)):
            row = 0
            for k, pos in enumerate(eval_positions):
                if (w >> k) & 1:
                    row |= 1 << pos
            self.comp_rows.append(row)

    def component_capture(self, t_tables: Sequence[int]) -> str | None:
        """Why literal substitution of the basis functions for the
        parameters is refused in the components (a quantifier there binds
        an atom of the function), or None.  The reason is the message of
        the ``NotSubstitutible`` that ``substitute`` raises."""
        for captured in self.captured_params:
            for j in captured:
                if self.space.free_atoms(t_tables[j]):
                    detail = f"replacing {self.params[j]} by {self.space.formula(t_tables[j])}"
                    return str(NotSubstitutible(1, j, detail))
        return None

    def instance_captured(self, t_tables: Sequence[int]) -> bool:
        """True when some instantiated component mentions an atom bound
        above its unknown's free occurrences in F."""
        for binders, capturing in zip(self.comp_binders, self.composer.capturing):
            if not capturing:
                continue
            free = set(binders)
            for j, t in enumerate(self.params):
                if t in free:
                    free.discard(t)
                    free |= self.space.free_atoms(t_tables[j])
            if free & capturing:
                return True
        return False

    def instantiated_tables(self, t_tables: Sequence[int]) -> list[int]:
        """Tables over eval_names of each component with the parameters
        replaced by the given basis functions."""
        out = []
        basis_rows = self.composer.rows
        ppos = self.param_positions
        for mask in self.comp_masks:
            table = 0
            for w, comp_row in enumerate(self.comp_rows):
                basis_idx = basis_rows[w][1]
                row = comp_row
                for j, pos in enumerate(ppos):
                    if (t_tables[j] >> basis_idx) & 1:
                        row |= 1 << pos
                if (mask >> row) & 1:
                    table |= 1 << w
            out.append(table)
        return out

    def check_solution_tables(self, inst_tables: Sequence[int]) -> int | None:
        """Falsifying eval_names valuation index of F[instantiation]."""
        fmask = self.composer.formula_mask
        upos = self.composer.unknown_positions
        for w, (row, _) in enumerate(self.composer.rows):
            for j, pos in enumerate(upos):
                if (inst_tables[j] >> w) & 1:
                    row |= 1 << pos
            if not (fmask >> row) & 1:
                return w
        return None

    def extend_basis_table(self, table: int) -> int:
        """Broadcast a basis-function table to one over eval_names."""
        out = 0
        for w, (_, basis_idx) in enumerate(self.composer.rows):
            if (table >> basis_idx) & 1:
                out |= 1 << w
        return out

    def tuple_label(self, tables: Sequence[int]) -> str:
        return "(" + ", ".join(str(self.space.formula(t)) for t in tables) + ")"


def _checker(
    kind: str,
    sp: SolutionProblem,
    sol: Sequence[Formula],
    basis: Sequence[str],
    allow_large: bool,
) -> _ReproductiveChecker | CheckReport:
    """The checker for a parameterised candidate, or the failed report
    when a component mentions an unknown."""
    if sp.parameters is None:
        raise ValueError(f"{kind} check needs a problem with parameters")
    basis_t = _basis(sp, basis, allow_large, parameters=True)
    unknowns = set(sp.unknowns)
    if any(set(free_atoms(g)) & unknowns for g in sol):
        return CheckReport(
            False, (CheckFailure("components", "components mention an unknown"),)
        )
    return _ReproductiveChecker(sp, sol, basis_t)


def _instantiation_failures(
    checker: _ReproductiveChecker,
    images: set[tuple[int, ...]] | None = None,
    limit: int = 5,
) -> list[CheckFailure]:
    """Failures of the all-instantiations clause: every tuple of basis
    functions substituted for the parameters must solve the problem.

    Checking stops at ``limit`` failures.  Given ``images``, every tuple
    that substitutes into the components adds its instantiated tables
    there, including the tuples after the stop.
    """
    failures: list[CheckFailure] = []
    for t_tables in product(checker.space.tables, repeat=len(checker.params)):
        reason = checker.component_capture(t_tables)
        inst = None if reason else checker.instantiated_tables(t_tables)
        if inst is not None and images is not None:
            images.add(tuple(inst))
        if len(failures) >= limit:
            continue
        if reason is None and checker.instance_captured(t_tables):
            reason = "NotSubstitutible"
        valuation = None
        if reason is None:
            bad = checker.check_solution_tables(inst)
            if bad is None:
                continue
            reason = "instantiated components do not solve the problem"
            valuation = decode_valuation(bad, checker.composer.eval_names)
        subject = f"instantiation T = {checker.tuple_label(t_tables)}"
        failures.append(CheckFailure(subject, reason, valuation))
        if len(failures) >= limit and images is None:
            break
    return failures


def check_parametric(
    sp: SolutionProblem,
    sol: Sequence[Formula],
    basis: Sequence[str],
    allow_large: bool = False,
) -> CheckReport:
    """Parametric-solution check: every instantiation of the parameters
    with basis functions must be a particular solution."""
    checker = _checker("parametric", sp, sol, basis, allow_large)
    if isinstance(checker, CheckReport):
        return checker
    failures = _instantiation_failures(checker)
    return CheckReport(not failures, tuple(failures))


def check_reproductive(
    sp: SolutionProblem,
    sol: Sequence[Formula],
    basis: Sequence[str],
    allow_large: bool = False,
) -> CheckReport:
    """Reproductive-solution check against the basis function space.

    Clause (a): every instantiation of the parameters with basis
    functions is a particular solution.  Clause (b): for every
    enumerated particular solution H, substituting H for the parameters
    reproduces H up to equivalence.
    """
    checker = _checker("reproductive", sp, sol, basis, allow_large)
    if isinstance(checker, CheckReport):
        return checker
    failures = _instantiation_failures(checker)
    for h_tables in _solution_tables(checker.space, checker.composer):
        reason = checker.component_capture(h_tables)
        if reason is None:
            reproduced = checker.instantiated_tables(h_tables)
            reason = next(
                (
                    f"component {i + 1} is not reproduced"
                    for i, h in enumerate(h_tables)
                    if reproduced[i] != checker.extend_basis_table(h)
                ),
                None,
            )
        if reason is not None:
            subject = f"solution H = {checker.tuple_label(h_tables)}"
            failures.append(CheckFailure(subject, reason))
    return CheckReport(not failures, tuple(failures))


def check_general(
    sp: SolutionProblem,
    sol: Sequence[Formula],
    basis: Sequence[str],
    allow_large: bool = False,
) -> CheckReport:
    """General-solution check against the basis function space.

    Clause (a) as for the reproductive check; clause (b'): every
    enumerated particular solution equals some instantiation of the
    candidate with basis functions.
    """
    checker = _checker("general", sp, sol, basis, allow_large)
    if isinstance(checker, CheckReport):
        return checker
    images: set[tuple[int, ...]] = set()
    failures = _instantiation_failures(checker, images)
    for h_tables in _solution_tables(checker.space, checker.composer):
        extended = tuple(checker.extend_basis_table(h) for h in h_tables)
        if extended not in images:
            failures.append(
                CheckFailure(
                    f"solution H = {checker.tuple_label(h_tables)}",
                    "not reachable by any parameter instantiation",
                )
            )
    return CheckReport(not failures, tuple(failures))
