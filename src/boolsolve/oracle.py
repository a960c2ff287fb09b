"""Brute-force ground truth over a finite function basis.

Candidate solution components range over every Boolean function of the
basis atoms, represented canonically as full-DNF formulas.  The checks
mirror the solution-type definitions exactly: particular (the
substituted formula is valid), reproductive (every parameter instantiation solves, and
every enumerated solution is reproduced) and general (every enumerated
solution is reachable by some instantiation).  The basis must not meet
the unknowns, nor, for these checks, the parameters.

Substitution is read up to renaming of bound atoms: F[p := G] replaces
p in F with every binder of F that would capture an atom of G renamed
apart, as ``substitute`` does.  The solvers read it so too: their masks
never see binder names.  ``check_particular`` tests the validity of
``substitute``'s result; the other checks compose truth tables, and
``formula_mask`` evaluates quantifiers exactly, so composing tables
gives the table of that substitution.

The quantifiers over tuples of basis functions are decided per basis
valuation.  A row of F[H] sees the tuple H only through its values at
the row's basis valuation, so the tuples are the independent choices of
one value tuple per basis valuation.  Enumeration picks an allowed
value tuple at each basis valuation; the all-instantiations clause
tests F at every row for every parameter value tuple.  A solution
takes an allowed value tuple at every basis valuation, so every
solution is reproduced when no allowed value tuple is mismatched at
any basis valuation, and every solution is reachable when each basis
valuation's allowed tuples are reachable there.  The loops over tuples
of basis functions and over the enumerated solutions run only once a
clause is known to fail, to list its first five failures.

The parameterised checks learn a candidate's names from its table
walk: its components are evaluated over F's other free atoms, the
basis and the parameters, and an atom outside those raises there.
Only then are the components scanned for their free atoms, to report
a mentioned unknown or to evaluate them over their other atoms too.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import Iterable, Iterator, Sequence

from .formula import (
    BOT,
    TOP,
    AtomSet,
    BoolsolveError,
    Formula,
    Or,
    Record,
    free_atoms,
    substitute,
)
from .semantics import (
    BudgetExceeded,
    TruthTable,
    UnboundAtom,
    atom_patterns,
    decode_valuation,
    falsifying_valuation,
    formula_mask,
    minterm,
)
from .solve import Solution, SolutionKind, SolutionProblem

MAX_BASIS = 3
MAX_UNKNOWNS = 2


class TooLarge(BoolsolveError):
    pass


class BasisError(BoolsolveError, ValueError):
    """A basis that meets the unknowns or, for the parameterised checks,
    the parameters."""


class FunctionSpace:
    """All Boolean functions over a basis, in table-bits integer order.

    Tables are plain ints (bit i = value at valuation i); truth tables
    and canonical formulas are materialized on demand.
    """

    def __init__(self, basis: Sequence[str]):
        self.basis: AtomSet = tuple(sorted(set(basis)))
        self.tables: range = range(1 << (1 << len(self.basis)))
        self._formulas: dict[int, Formula] = {}
        self._minterms: list[Formula] = []  # made on first use

    def __len__(self) -> int:
        return len(self.tables)

    @property
    def functions(self) -> list[TruthTable]:
        return [TruthTable.from_int(t, self.basis) for t in self.tables]

    def formula(self, table: int) -> Formula:
        """The full DNF of ``table``, equal to what ``formula_from_table``
        builds, from minterms made once per space.  A full DNF is a
        left-nested disjunction, so it is the DNF of ``table`` without
        its last minterm or'ed with that minterm, and shares that part."""
        f = self._formulas.get(table)
        if f is None:
            if table == 0:
                f = BOT
            elif table == self.tables[-1]:
                f = TOP
            else:
                if not self._minterms:
                    self._minterms = [
                        minterm(i, self.basis) for i in range(1 << len(self.basis))
                    ]
                last = table.bit_length() - 1
                f = self._minterms[last]
                rest = table ^ (1 << last)
                if rest:
                    f = Or(self.formula(rest), f)
            self._formulas[table] = f
        return f

    @property
    def formulas(self) -> list[Formula]:
        return [self.formula(t) for t in self.tables]


class CheckFailure(Record):
    __slots__ = __match_args__ = ("subject", "reason", "valuation")
    subject: str
    reason: str
    valuation: dict[str, bool] | None

    def __init__(
        self, subject: str, reason: str, valuation: dict[str, bool] | None = None
    ) -> None:
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "valuation", valuation)


class CheckReport(Record):
    __slots__ = __match_args__ = ("verdict", "failures")
    verdict: bool
    failures: tuple[CheckFailure, ...]

    def __init__(self, verdict: bool, failures: tuple[CheckFailure, ...] = ()) -> None:
        if verdict != (not failures):
            raise ValueError("verdict must match emptiness of failures")
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "failures", failures)


_MENTIONS_UNKNOWN = CheckReport(
    False, (CheckFailure("components", "components mention an unknown"),)
)


def _guard(basis: Sequence[str], unknowns: Sequence[str], allow_large: bool) -> None:
    if allow_large:
        return
    if len(set(basis)) > MAX_BASIS or len(unknowns) > MAX_UNKNOWNS:
        raise TooLarge(
            f"basis of {len(set(basis))} atoms with {len(unknowns)} unknowns "
            f"exceeds the oracle's cost guard of {MAX_BASIS} basis atoms and "
            f"{MAX_UNKNOWNS} unknowns (the Python API lifts it with allow_large=True)"
        )


def _basis(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool, parameters: bool
) -> AtomSet:
    """The basis sorted and deduplicated, after the cost guard.  It must
    not meet the unknowns, nor, with ``parameters``, the parameters."""
    basis_t = tuple(sorted(set(basis)))
    if set(basis_t) & set(sp.unknowns):
        raise BasisError("basis atoms must not be unknowns")
    if parameters and set(basis_t) & set(sp.parameters or ()):
        raise BasisError("basis atoms must not be parameters")
    _guard(basis_t, sp.unknowns, allow_large)
    return basis_t


def _or_table(masks: Sequence[int]) -> list[int]:
    """For every index w below 2^len(masks), the OR of ``masks[k]`` over
    the bits k set in w: a valuation of some names, by position, mapped
    to its row over a wider list of names."""
    out = [0]
    for mask in masks:
        out += [r | mask for r in out]
    return out


def _bits(items: Iterable[int]) -> int:
    """The set of small ints ``items`` as a bitmask."""
    out = 0
    for i in items:
        out |= 1 << i
    return out


def _values_at(tables: Sequence[int], beta: int) -> int:
    """The value tuple of ``tables`` at basis valuation ``beta``: bit j
    is the value of table j."""
    out = 0
    for j, table in enumerate(tables):
        out |= ((table >> beta) & 1) << j
    return out


class _Composer:
    """Row bookkeeping for evaluating F[p := candidate functions] on tables.

    An eval row is a valuation of ``eval_names``; it sees the candidate
    functions only through their value tuple (bit j for unknown j) at
    its basis valuation ``beta[w]``.
    """

    def __init__(self, sp: SolutionProblem, basis: AtomSet, extra: Iterable[str] = ()):
        self.n_unknowns = len(sp.unknowns)
        eval_names = (set(sp.free) - set(sp.unknowns)) | set(basis) | set(extra)
        self.eval_names: AtomSet = tuple(sorted(eval_names))
        all_names = tuple(sorted(eval_names | set(sp.unknowns)))
        fmask = formula_mask(sp.formula, all_names)
        bit = {a: 1 << i for i, a in enumerate(all_names)}
        unknown_rows = _or_table([bit[p] for p in sp.unknowns])
        self.beta = _or_table(
            [1 << basis.index(a) if a in basis else 0 for a in self.eval_names]
        )
        # per eval row, the value tuples that make F true there
        self.true_values: list[int] = []
        for row in _or_table([bit[a] for a in self.eval_names]):
            self.true_values.append(
                _bits(v for v, u in enumerate(unknown_rows) if (fmask >> (row | u)) & 1)
            )
        # per basis valuation, the value tuples that make F true at every
        # eval row over it
        self.allowed = [(1 << len(unknown_rows)) - 1] * (1 << len(basis))
        for b, true in zip(self.beta, self.true_values):
            self.allowed[b] &= true


def _solution_tables(composer: _Composer) -> Iterator[tuple[int, ...]]:
    """Tuples of basis tables that make F valid, lazily and in the order
    of ``product(space.tables, repeat=len(unknowns))``.

    F[H] is valid exactly when H's value tuple is allowed at every basis
    valuation.  So table j takes, at each basis valuation, the values
    that some allowed tuple agreeing with the earlier tables there has,
    the highest basis valuation (the table's top bit) varying slowest.
    Each level hands the tables chosen so far down to the next, and the
    last level yields whole tuples, so a tuple passes through no Python
    frame.
    """
    allowed = composer.allowed
    n = composer.n_unknowns
    if not all(allowed):
        return iter(())
    if n == 0:
        return iter([()])
    every = (1 << (1 << n)) - 1
    # sides[j][x]: the value tuples in which unknown j has value x
    sides = []
    for j in range(n):
        ones = _bits(v for v in range(1 << n) if (v >> j) & 1)
        sides.append((every ^ ones, ones))
    betas = range(len(allowed) - 1, -1, -1)
    # bit_options[b][k]: a table's choices of bit b, for k = 1 (value 0
    # only), 2 (value 1 only) and 3 (both)
    bit_options = [((), (0,), (1 << b,), (0, 1 << b)) for b in range(len(allowed))]

    def extend(j: int, rest: list[int], prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # rest[b]: the value tuples allowed at b that agree with
        # ``prefix``, the tables 0..j-1
        side = zero, one = sides[j]
        options = [
            bit_options[b][(rest[b] & zero != 0) | (rest[b] & one != 0) << 1] for b in betas
        ]
        tables = map(sum, product(*options))
        if j == n - 1:
            return zip(*map(repeat, prefix), tables)
        return chain.from_iterable(
            extend(j + 1, [r & side[(t >> b) & 1] for b, r in enumerate(rest)], prefix + (t,))
            for t in tables
        )

    return extend(0, allowed, ())


def enumerate_solutions(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> list[Solution]:
    """Every tuple of basis functions that is a particular solution, as
    canonical full-DNF formulas, in enumeration order."""
    basis_t = _basis(sp, basis, allow_large, parameters=False)
    space = FunctionSpace(basis_t)
    out = []
    for tables in _solution_tables(_Composer(sp, basis_t)):
        out.append(
            Solution([space.formula(t) for t in tables], SolutionKind.PARTICULAR)
        )
    return out


def any_enumerated_solution(
    sp: SolutionProblem, basis: Sequence[str], allow_large: bool = False
) -> bool:
    """Early-exiting nonemptiness test for ``enumerate_solutions``."""
    basis_t = _basis(sp, basis, allow_large, parameters=False)
    return next(_solution_tables(_Composer(sp, basis_t)), None) is not None


def _mentions_unknown(sp: SolutionProblem, free: Iterable[Iterable[str]]) -> bool:
    """True when some component's free atoms in ``free`` meet the unknowns."""
    unknowns = set(sp.unknowns)
    return any(unknowns.intersection(atoms) for atoms in free)


def check_particular(sp: SolutionProblem, sol: Sequence[Formula]) -> CheckReport:
    """Components free of the unknowns, and validity of the substituted
    formula, whose capturing binders ``substitute`` renames apart."""

    def failed(reason: str, valuation: dict[str, bool] | None = None) -> CheckReport:
        label = "(" + ", ".join(str(g) for g in sol) + ")"
        return CheckReport(False, (CheckFailure(label, reason, valuation),))

    if len(sol) != len(sp.unknowns):
        return failed("component count differs from unknown count")
    free = [free_atoms(g) for g in sol]
    if _mentions_unknown(sp, free):
        return _MENTIONS_UNKNOWN
    counterexample = falsifying_valuation(substitute(sp.formula, sp.unknowns, sol))
    if counterexample is not None:
        return failed("substituted formula falsified", counterexample)
    return CheckReport(True)


class _ReproductiveChecker:
    """Shared table machinery for the parametric, reproductive and
    general checks.  Parameter value tuples are ints like the unknowns'
    ones, bit j for parameter j.  ``comp_masks`` are the components'
    tables over ``comp_names``, the composer's eval names and the
    parameters."""

    def __init__(
        self,
        sp: SolutionProblem,
        composer: _Composer,
        comp_names: AtomSet,
        comp_masks: Sequence[int],
        basis: AtomSet,
    ):
        self.params = sp.parameters
        self.composer = composer
        self.space = FunctionSpace(basis)
        self._texts: dict[int, str] = {}  # tuple_label's formula texts
        bit = {a: 1 << i for i, a in enumerate(comp_names)}
        param_rows = _or_table([bit[t] for t in self.params])
        # values[w][a]: the components' value tuple at eval row w when the
        # parameters take the value tuple a
        self.values: list[list[int]] = []
        for row in _or_table([bit[a] for a in composer.eval_names]):
            self.values.append(
                [
                    sum(((mask >> (row | pr)) & 1) << i for i, mask in enumerate(comp_masks))
                    for pr in param_rows
                ]
            )

    def instantiations_hold(self) -> bool:
        """The all-instantiations clause without a loop over tuples: F
        holds at every eval row for the components' values under every
        parameter value tuple."""
        return all(
            (true >> v) & 1
            for true, vs in zip(self.composer.true_values, self.values)
            for v in vs
        )

    def failing_row(self, t_tables: Sequence[int]) -> int | None:
        """The first eval row where F is false for the components
        instantiated with the parameter tables, or None."""
        composer = self.composer
        for w, (b, true, vs) in enumerate(
            zip(composer.beta, composer.true_values, self.values)
        ):
            if not (true >> vs[_values_at(t_tables, b)]) & 1:
                return w
        return None

    def mismatches(self) -> list[list[int]]:
        """Per basis valuation b and value tuple v, the components (bit i
        for component i) whose value with the parameters at v differs
        from v at some eval row over b.  Substituting a tuple H for the
        parameters reproduces component i exactly when no b has i in its
        set at H's value tuple."""
        out = [[0] * len(self.values[0]) for _ in self.composer.allowed]
        for b, vs in zip(self.composer.beta, self.values):
            for v, image in enumerate(vs):
                out[b][v] |= image ^ v
        return out

    def reachable(self) -> list[int]:
        """Per basis valuation b, the value tuples that the components
        take at every eval row over b for some parameter values."""
        common: dict[int, list[int]] = {}  # -1 where the rows over b differ
        for b, vs in zip(self.composer.beta, self.values):
            if b not in common:
                common[b] = list(vs)
            else:
                common[b] = [x if x == v else -1 for x, v in zip(common[b], vs)]
        return [
            _bits(v for v in common[b] if v >= 0) for b in range(len(self.composer.allowed))
        ]

    def every_solution(self, passing: Sequence[int]) -> bool:
        """True when ``passing[b]`` holds every value tuple allowed at
        each basis valuation b.  Every enumerated solution then takes a
        passing tuple at every b, so a clause that asks no more of it
        holds without enumerating; False leaves the clause to the loop
        over the solutions."""
        return all(not a & ~p for a, p in zip(self.composer.allowed, passing))

    def tuple_label(self, tables: Sequence[int]) -> str:
        for t in tables:
            if t not in self._texts:
                self._texts[t] = str(self.space.formula(t))
        return "(" + ", ".join(self._texts[t] for t in tables) + ")"


def _component_masks(sol: Sequence[Formula], names: AtomSet) -> list[int]:
    patterns = atom_patterns(names)
    return [formula_mask(g, names, patterns) for g in sol]


def _checker(
    kind: str,
    sp: SolutionProblem,
    sol: Sequence[Formula],
    basis: Sequence[str],
    allow_large: bool,
) -> _ReproductiveChecker | CheckReport:
    """The checker for a parameterised candidate, or the failed report
    when a component mentions an unknown.

    The components' tables are evaluated first, over F's free atoms
    other than the unknowns, the basis and the parameters, with no walk
    for names: a candidate over those atoms is walked once.  A free
    occurrence of any other atom raises ``UnboundAtom`` there, and only
    then, or when those atoms are too many for a table, are the
    components scanned for their free atoms.  The scan reports a
    mentioned unknown before F's table is built, or widens the names by
    the components' other atoms.
    """
    if sp.parameters is None:
        raise ValueError(f"{kind} check needs a problem with parameters")
    basis_t = _basis(sp, basis, allow_large, parameters=True)
    names = tuple(sorted(set(sp.free).difference(sp.unknowns).union(basis_t, sp.parameters)))
    try:
        comp_masks = _component_masks(sol, names)
    except (UnboundAtom, BudgetExceeded):
        comp_free = [free_atoms(g) for g in sol]
        if _mentions_unknown(sp, comp_free):
            return _MENTIONS_UNKNOWN
        extra = {a for atoms in comp_free for a in atoms} - set(sp.parameters)
        composer = _Composer(sp, basis_t, extra)
        names = tuple(sorted(set(composer.eval_names).union(sp.parameters)))
        comp_masks = _component_masks(sol, names)
    else:
        composer = _Composer(sp, basis_t)
    return _ReproductiveChecker(sp, composer, names, comp_masks, basis_t)


# A failing clause lists at most this many failures.
LISTED_FAILURES = 5


def _instantiation_failures(checker: _ReproductiveChecker) -> list[CheckFailure]:
    """Failures of the all-instantiations clause: every tuple of basis
    functions substituted for the parameters must solve the problem.

    The clause is decided per basis valuation; only when it fails are
    the tuples tried one by one, in enumeration order, to list the
    first ``LISTED_FAILURES`` failures.
    """
    if checker.instantiations_hold():
        return []
    failures: list[CheckFailure] = []
    for t_tables in product(checker.space.tables, repeat=len(checker.params)):
        bad = checker.failing_row(t_tables)
        if bad is None:
            continue
        failures.append(
            CheckFailure(
                f"instantiation T = {checker.tuple_label(t_tables)}",
                "instantiated components do not solve the problem",
                decode_valuation(bad, checker.composer.eval_names),
            )
        )
        if len(failures) == LISTED_FAILURES:
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
    reproduces H up to equivalence.  Clause (b) holds outright when no
    value tuple allowed at a basis valuation is mismatched there;
    otherwise the solutions are tried one by one to list the first
    ``LISTED_FAILURES`` failures.
    """
    checker = _checker("reproductive", sp, sol, basis, allow_large)
    if isinstance(checker, CheckReport):
        return checker
    failures = _instantiation_failures(checker)
    mismatches = checker.mismatches()
    matched = [_bits(v for v, bad in enumerate(per_v) if not bad) for per_v in mismatches]
    if checker.every_solution(matched):
        return CheckReport(not failures, tuple(failures))
    limit = len(failures) + LISTED_FAILURES
    for h_tables in _solution_tables(checker.composer):
        bad = 0
        for b, mismatch in enumerate(mismatches):
            bad |= mismatch[_values_at(h_tables, b)]
        if bad:  # name the first component not reproduced, counting from 1
            subject = f"solution H = {checker.tuple_label(h_tables)}"
            reason = f"component {(bad & -bad).bit_length()} is not reproduced"
            failures.append(CheckFailure(subject, reason))
            if len(failures) == limit:
                break
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
    candidate with basis functions.  The parameters take their values at
    each basis valuation independently, so H is reachable when every
    basis valuation has parameter values giving H's values there.
    Clause (b') holds outright when every value tuple allowed at a basis
    valuation is reachable there; otherwise the solutions are tried one
    by one to list the first ``LISTED_FAILURES`` failures.
    """
    checker = _checker("general", sp, sol, basis, allow_large)
    if isinstance(checker, CheckReport):
        return checker
    failures = _instantiation_failures(checker)
    reachable = checker.reachable()
    if checker.every_solution(reachable):
        return CheckReport(not failures, tuple(failures))
    limit = len(failures) + LISTED_FAILURES
    for h_tables in _solution_tables(checker.composer):
        if not all(
            (sets >> _values_at(h_tables, b)) & 1 for b, sets in enumerate(reachable)
        ):
            failures.append(
                CheckFailure(
                    f"solution H = {checker.tuple_label(h_tables)}",
                    "not reachable by any parameter instantiation",
                )
            )
            if len(failures) == limit:
                break
    return CheckReport(not failures, tuple(failures))
