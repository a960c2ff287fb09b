"""The benchmark's four workloads: inputs made from a seed, operations,
and the independent check of every answer.

Each workload builds a list of ``Op``: a call into boolsolve (the timed
part) and a check of its result against the definition of the answer,
computed with the benchmark's own evaluator (untimed).  A check raises
``CheckError`` on a wrong answer and otherwise returns the AST node
count of the formulas the operation printed or returned.

Why each workload exists:

* ``chain``: the paper's running example grown to n unknowns.  Output
  size grows exponentially in n, so formula rewriting, substitution,
  Shannon elimination and printing do the work; bitmask widths stay at
  five atoms or fewer.
* ``random``: small clause problems, one for each sign pattern of the
  unknown literals, through every CLI command that solves,
  decides or eliminates.  Each operation takes a millisecond or two, so
  parsing, renaming and CLI overhead weigh as much as rewriting; a
  kernel that only pays off on large outputs must cost nothing here.  A
  third of the problems forbid one base atom, which sends them through
  universal elimination and vocabulary projection.
* ``decide``: solvability over 14 base atoms, plus weakest
  preconditions at 7 atoms.  Building atom masks and evaluating wide
  bitmasks do the work; rewriting does almost none.  Wider problems
  are left out: at 15 to 18 atoms a call lasts 20 ms to 0.65 s, and the
  fastest time of so long a call follows the machine's slow spells.
* ``verify``: the brute-force oracle on 2-unknown problems.  Half of
  the checked problems carry quantifiers, which sends the oracle down
  its literal-substitution path; the rest take its truth-table path.
  No other workload runs the oracle.  The quantified problems have one
  base atom: at two, a check tries 256 instantiations and lasts about
  50 ms, and the fastest time of so long a call follows the machine's
  slow spells.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import types
from dataclasses import dataclass
from typing import Callable, Sequence

from boolsolve import cli, formula as F, oracle, parse
from boolsolve.solve import SolutionProblem

from evaluator import CheckError, Space, count_nodes, mentioned_atoms, tree_nodes

# Operation mixes.  Each pass runs every operation once, in the order
# the builders make them.
# n=5 is left out for the reason wide decide problems are: its calls
# last 0.8 to 2.2 s.
CHAIN_SIZES = (2, 3, 4)
CHAIN_METHODS = (
    ("--method", "succ-elim"),
    ("--method", "second-order"),
    ("--method", "second-order", "--reproductive"),
)
RANDOM_PROBLEMS = 64
RANDOM_UNKNOWNS = 3
RANDOM_METHODS = CHAIN_METHODS + (("--method", "witnesses"),)
DECIDE_ATOMS = (14,)
DECIDE_PER_SIZE = 16
DECIDE_PRECONDITIONS = 4
DECIDE_PRECONDITION_ATOMS = 7
VERIFY_TABLE_PROBLEMS = 16
VERIFY_TABLE_COUNT = 36
VERIFY_QUANTIFIED_PROBLEMS = 16


@dataclass
class Op:
    """One operation.  ``plant`` turns a result into one that is wrong
    by construction; the self-test needs the check to reject it."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    plant: Callable[[object], object] | None = None


@dataclass
class Problem:
    """A solution problem as written to its file, with the atom roles
    the checks need."""

    formula: str
    base: tuple[str, ...]
    unknowns: tuple[str, ...]
    parameters: tuple[str, ...]
    forbid: tuple[str, ...] = ()

    def file_text(self) -> str:
        lines = [f"unknowns: {' '.join(self.unknowns)}"]
        if self.parameters:
            lines.append(f"parameters: {' '.join(self.parameters)}")
        if self.forbid:
            lines.append(f"forbid: {' '.join(self.forbid)}")
        lines.append(f"formula: {self.formula}")
        return "\n".join(lines) + "\n"


NAME_POOL = tuple(c + d for c in "abcdfghjkmnrsuvwyz" for d in "0123456789")


def atom_names(rng: random.Random, *sizes: int) -> list[tuple[str, ...]]:
    """Distinct seeded two-character atom names, in groups of ``sizes``.

    The names are sorted before they are split, so every name of a group
    sorts before every name of the next.  The order of atoms decides the
    order of elimination and of the truth-table bits, and a fixed order
    of the roles (base atoms, unknowns, parameters) keeps the work of a
    pass the same from seed to seed.
    """
    names = iter(sorted(rng.sample(NAME_POOL, sum(sizes))))
    return [tuple(next(names) for _ in range(n)) for n in sizes]


def _cli(argv: Sequence[str]) -> Callable[[], tuple[int, str]]:
    argv = list(argv)

    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    return call


class ProblemFiles:
    """The problem files of a workload, kept as text until ``write``, so
    that set-up can time writing them apart from generating them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.texts: dict[str, str] = {}

    def add(self, name: str, problem: Problem) -> str:
        path = os.path.join(self.workdir, name)
        self.texts[path] = problem.file_text()
        return path

    def write(self) -> None:
        for path, text in self.texts.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)


# -- semantic reference values -----------------------------------------

def _assignments(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def _cofactor_masks(problem: Problem, space: Space) -> dict[tuple[int, ...], int]:
    """Mask of F(v, x) over the base atoms for every unknown vector x."""
    out = {}
    for x in _assignments(len(problem.unknowns)):
        env = space.env({p: space.const(b) for p, b in zip(problem.unknowns, x)})
        out[x] = space.text(problem.formula, env)
    return out


def _restricted(mask: int, problem: Problem, space: Space) -> int:
    for b in problem.forbid:
        mask = space.forall(mask, b)
    return mask


def reachable(problem: Problem, space: Space) -> int:
    """Mask of exists x F(v, x) over the base atoms."""
    reach = 0
    for mask in _cofactor_masks(problem, space).values():
        reach |= mask
    return reach


def solvable(problem: Problem) -> bool:
    """Whether for all v there is x with F(v, x), each x independent of
    the forbidden atoms: for all v' exists x for all b F(v', b, x)."""
    space = Space(problem.base)
    reach = 0
    for mask in _cofactor_masks(problem, space).values():
        reach |= _restricted(mask, problem, space)
    return reach == space.full


# -- checks ---------------------------------------------------------------

def _components(problem: Problem, result: object) -> list[str]:
    code, text = result
    if code != 0:
        raise CheckError(f"solve exited {code} on a solvable problem: {text.strip()}")
    lines = text.splitlines()
    if len(lines) != len(problem.unknowns):
        raise CheckError(f"expected {len(problem.unknowns)} components, got {len(lines)}")
    out = []
    for p, line in zip(problem.unknowns, lines):
        head, sep, body = line.partition(" := ")
        if head != p or not sep:
            raise CheckError(f"expected a line for {p}, got {line[:60]!r}")
        out.append(body)
    return out


def check_solve(problem: Problem, reproductive: bool, result: object) -> int:
    """A particular output G makes F true at every valuation; a
    reproductive output R over parameters t is a retraction onto the
    solutions: F(v, R(v, x)) for all x, and R(v, x) = x wherever
    F(v, x).  With forbidden atoms the outputs must not mention them and
    the solutions are those of for-all b F."""
    texts = _components(problem, result)
    for text in texts:
        touched = mentioned_atoms(text) & set(problem.forbid)
        if touched:
            raise CheckError(f"restricted output mentions {sorted(touched)}")
    params = problem.parameters if reproductive else ()
    space = Space(problem.base + params)
    comps = [space.text(t, space.masks) for t in texts]
    composed = space.text(problem.formula, space.env(dict(zip(problem.unknowns, comps))))
    if composed != space.full:
        raise CheckError("substituted formula is not valid")
    if reproductive:
        identity = space.env({p: space.masks[t] for p, t in zip(problem.unknowns, params)})
        fixed = _restricted(space.text(problem.formula, identity), problem, space)
        for comp, t in zip(comps, params):
            if fixed & (comp ^ space.masks[t]):
                raise CheckError("a solution is not reproduced")
    return sum(count_nodes(t) for t in texts)


def check_exists(problem: Problem, result: object) -> int:
    code, text = result
    expected = solvable(problem)
    want = (0, "solvable") if expected else (1, "not solvable")
    if (code, text.strip()) != want:
        raise CheckError(f"exists printed {text.strip()!r} (exit {code}), expected {want[1]!r}")
    return 0


def check_precondition(problem: Problem, result: object) -> int:
    """The printed precondition is equivalent to exists x F(v, x)."""
    code, text = result
    if code != 0:
        raise CheckError(f"precondition exited {code}")
    space = Space(problem.base)
    if space.text(text.strip(), space.masks) != reachable(problem, space):
        raise CheckError("precondition is not equivalent to exists x F")
    return count_nodes(text)


def check_project(formula: str, atoms: Sequence[str], keep: Sequence[str], result: object) -> int:
    """Projection of ``formula`` (over ``atoms``) onto ``keep`` answers
    "not independent" exactly when the formula depends on a dropped
    atom, and is otherwise equivalent to it."""
    code, text = result
    space = Space(tuple(atoms))
    mask = space.text(formula, space.masks)
    projected = mask
    for atom in space.basis:
        if atom not in keep:
            projected = space.exists(projected, atom)
    if projected != mask:
        if code != 1 or not text.startswith("not independent"):
            raise CheckError("projection of a dependent formula did not say so")
        return 0
    if code != 0 or not mentioned_atoms(text) <= set(keep):
        raise CheckError("projection failed or kept a dropped atom")
    if space.text(text.strip(), space.masks) != mask:
        raise CheckError("projection is not equivalent to the formula")
    return count_nodes(text)


# -- planted wrong outputs, wrong by construction --------------------------

def _negate_first_component(result: object) -> object:
    """Negating a component of a reproductive solution breaks R(v, x) = x
    at every solution x, and every solved problem has one."""
    code, text = result
    head, rest = text.split("\n", 1)
    name, _, body = head.partition(" := ")
    return code, f"{name} := ~({body})\n{rest}"


def _flip_solvable(result: object) -> object:
    code, _ = result
    return (1, "not solvable\n") if code == 0 else (0, "solvable\n")


def _negate_output(result: object) -> object:
    code, text = result
    return code, f"~({text.strip()})\n"


def _flip_projection(result: object) -> object:
    code, text = result
    return (1, "not independent\n") if code == 0 else (0, "true\n")


# -- input generators -------------------------------------------------------

def _literal(rng: random.Random, atom: str) -> str:
    return f"~{atom}" if rng.random() < 0.5 else atom


def clause_formula(rng: random.Random, atoms: Sequence[str], clauses: int, width: int = 3) -> str:
    return " & ".join(
        "(" + " | ".join(_literal(rng, a) for a in rng.sample(list(atoms), width)) + ")"
        for _ in range(clauses)
    )


def shaped_formula(rng: random.Random, base: Sequence[str], unknowns: Sequence[str],
                   signs: int) -> str:
    """Clauses (b | u | u') over the three pairs of unknowns, so every
    unknown occurs exactly twice and the problem is always solvable.
    The bits of ``signs`` give the unknown literals' signs and the seed
    the base literals'.  Each clause has base atoms of its own (a fourth
    base atom joins the first clause), so a base literal's sign only
    renames the problem, and a pass's outputs keep nearly the same size
    from seed to seed."""
    pairs = ((unknowns[0], unknowns[1]), (unknowns[0], unknowns[2]), (unknowns[1], unknowns[2]))
    groups = ([base[0], *base[3:]], [base[1]], [base[2]])
    clauses = []
    for c, ((x, y), atoms) in enumerate(zip(pairs, groups)):
        lits = [_literal(rng, a) for a in atoms]
        lits += [f"~{u}" if signs >> (2 * c + i) & 1 else u for i, u in enumerate((x, y))]
        clauses.append("(" + " | ".join(lits) + ")")
    return " & ".join(clauses)


def chain_formula(base: Sequence[str], unknowns: Sequence[str]) -> str:
    """The paper's running example (a->b) -> ((a->p1) & ... & (pn->b))."""
    a, b = base
    path = [a, *unknowns, b]
    steps = " & ".join(f"({x} -> {y})" for x, y in zip(path, path[1:]))
    return f"({a} -> {b}) -> ({steps})"


def wide_formula(rng: random.Random, base: Sequence[str], unknowns: Sequence[str]) -> str:
    """Clauses covering every base atom, each with one unknown literal,
    plus one clause over base atoms only, so verdicts vary."""
    atoms = list(base)
    rng.shuffle(atoms)
    clauses = []
    for i in range(0, len(atoms), 2):
        lits = [_literal(rng, a) for a in atoms[i:i + 2]]
        lits.append(_literal(rng, rng.choice(unknowns)))
        clauses.append("(" + " | ".join(lits) + ")")
    clauses.append("(" + " | ".join(_literal(rng, a) for a in rng.sample(atoms, 3)) + ")")
    return " & ".join(clauses)


def lower_bound_problem(base: Sequence[str], unknowns: Sequence[str], params: Sequence[str],
                        bound: Sequence[str], signs: int) -> tuple[Problem, list[str]]:
    """Quantified problem (lo_1 -> p_1) & (lo_2 -> p_2) over one base
    atom, with its reproductive solution p_i := lo_i | t_i.

    lo_i is written ``exists q . q & x | ~q & x``, that is x, for a
    literal x of the base atom whose sign is bit i of ``signs``.  Each
    unknown is then free at exactly one base valuation, so the problem
    has 4 solutions.  Each bound name occurs nowhere else, so
    substituting basis functions is never captured.
    """
    (a,) = base
    parts, candidate = [], []
    for i, (p, t, q) in enumerate(zip(unknowns, params, bound)):
        x = f"~{a}" if signs >> i & 1 else a
        lo = f"(exists {q} . {q} & {x} | ~{q} & {x})"
        parts.append(f"({lo} -> {p})")
        candidate.append(f"{lo} | {t}")
    return Problem(" & ".join(parts), tuple(base), tuple(unknowns), tuple(params)), candidate


# -- workloads ----------------------------------------------------------------

def build_chain(rng: random.Random, files: ProblemFiles) -> list[Op]:
    ops = []
    for n in CHAIN_SIZES:
        base, unknowns, params = atom_names(rng, 2, n, n)
        problem = Problem(chain_formula(base, unknowns), base, unknowns, params)
        path = files.add(f"chain{n}.sp", problem)
        for method in CHAIN_METHODS:
            reproductive = method[-1] != "second-order"
            ops.append(Op(
                f"chain n={n} {' '.join(method[1:])}",
                _cli(["solve", *method, path]),
                lambda r, pr=problem, rep=reproductive: check_solve(pr, rep, r),
                _negate_first_component if reproductive else None,
            ))
    return ops


def random_problems(rng: random.Random) -> list[Problem]:
    """Problem j takes unknown sign pattern j, 3 or 4 base atoms by
    turns, and forbids its first base atom when j mod 3 is 2."""
    out = []
    for j in range(RANDOM_PROBLEMS):
        base, unknowns, params = atom_names(rng, 3 + j % 2, RANDOM_UNKNOWNS, RANDOM_UNKNOWNS)
        forbid = (base[0],) if j % 3 == 2 else ()
        problem = Problem(shaped_formula(rng, base, unknowns, j), base, unknowns, params, forbid)
        if not solvable(problem):
            raise RuntimeError("random problem generator made an unsolvable problem")
        out.append(problem)
    return out


def _solve_is_reproductive(problem: Problem, method: Sequence[str]) -> bool:
    """Every problem file declares parameters.  The CLI then solves a
    restricted problem reproductively whatever the method, and an
    unrestricted one reproductively for succ-elim and --reproductive."""
    return bool(problem.forbid) or method[-1] in ("succ-elim", "--reproductive")


def build_random(rng: random.Random, files: ProblemFiles) -> list[Op]:
    ops = []
    for i, problem in enumerate(random_problems(rng)):
        path = files.add(f"random{i}.sp", problem)
        for method in RANDOM_METHODS:
            reproductive = _solve_is_reproductive(problem, method)
            ops.append(Op(
                f"random solve {' '.join(method[1:])}",
                _cli(["solve", *method, path]),
                lambda r, pr=problem, rep=reproductive: check_solve(pr, rep, r),
                _negate_first_component if reproductive else None,
            ))
        ops.append(Op("random exists", _cli(["exists", path]),
                      lambda r, pr=problem: check_exists(pr, r), _flip_solvable))
        ops.append(Op("random precondition", _cli(["precondition", path]),
                      lambda r, pr=problem: check_precondition(pr, r), _negate_output))
        if problem.forbid:
            ops.append(project_op(problem, dependent=i % 6 == 2))
    return ops


def project_op(problem: Problem, dependent: bool) -> Op:
    """Projection that drops the forbidden atom, on which F depends, or
    one that drops an atom of a tautology conjoined to F, on which the
    formula does not depend.  The two halves take the two outcomes of
    ``project_vocabulary``."""
    keep = tuple(a for a in problem.base + problem.unknowns if a not in problem.forbid)
    atoms = problem.base + problem.unknowns
    formula = problem.formula
    if not dependent:
        keep = atoms
        extra = problem.parameters[0]
        atoms += (extra,)
        formula = f"({formula}) & ({extra} | ~{extra})"
    return Op(
        f"random project {'dependent' if dependent else 'independent'}",
        _cli(["project", "--keep", " ".join(keep), formula]),
        lambda r: check_project(formula, atoms, keep, r),
        _flip_projection,
    )


def precondition_problem(rng: random.Random) -> Problem:
    """A problem whose precondition exists x F holds at exactly 7/8 of
    the base valuations.  The canonical precondition's size follows that
    share, so fixing it keeps the printed output nearly the same size
    from seed to seed."""
    for _ in range(1000):
        base, unknowns = atom_names(rng, DECIDE_PRECONDITION_ATOMS, 2)
        problem = Problem(wide_formula(rng, base, unknowns), base, unknowns, ())
        space = Space(base)
        if bin(reachable(problem, space)).count("1") * 8 == 7 << len(base):
            return problem
    raise RuntimeError("precondition generator missed its share of valuations")


def build_decide(rng: random.Random, files: ProblemFiles) -> list[Op]:
    ops = []
    for k in DECIDE_ATOMS:
        for j in range(DECIDE_PER_SIZE):
            base, unknowns = atom_names(rng, k, 2)
            problem = Problem(wide_formula(rng, base, unknowns), base, unknowns, ())
            path = files.add(f"decide{k}_{j}.sp", problem)
            ops.append(Op(f"decide exists k={k}", _cli(["exists", path]),
                          lambda r, pr=problem: check_exists(pr, r), _flip_solvable))
    for j in range(DECIDE_PRECONDITIONS):
        problem = precondition_problem(rng)
        path = files.add(f"pre{j}.sp", problem)
        ops.append(Op(f"decide precondition k={DECIDE_PRECONDITION_ATOMS}",
                      _cli(["precondition", path]),
                      lambda r, pr=problem: check_precondition(pr, r), _negate_output))
    return ops


# -- verify: the oracle against the benchmark's own brute force ------------

def _substituted(text: str, mapping: dict[str, str]) -> str:
    return re.sub(r"[a-z][A-Za-z0-9_]*", lambda m: mapping.get(m.group(), m.group()), text)


def _table_formula(space: Space, mask: int) -> str:
    """Full DNF over the space's basis with the given truth table."""
    terms = []
    for v in range(1 << len(space.basis)):
        if (mask >> v) & 1:
            lits = [a if (v >> j) & 1 else f"~{a}" for j, a in enumerate(space.basis)]
            terms.append("(" + " & ".join(lits) + ")")
    return " | ".join(terms) if terms else "false"


def solution_count(problem: Problem) -> int:
    """Number of tuples of basis functions solving the problem: the
    choices at each base valuation are independent."""
    cof = _cofactor_masks(problem, Space(problem.base))
    count = 1
    for v in range(1 << len(problem.base)):
        count *= sum((mask >> v) & 1 for mask in cof.values())
    return count


def reproductive_candidate(problem: Problem) -> list[str]:
    """Loewenheim's reproductive solution R_i = (F[t] & t_i) | (~F[t] & s_i)
    built from the least solution s at each base valuation."""
    space = Space(problem.base)
    cof = _cofactor_masks(problem, space)
    least = [0] * len(problem.unknowns)
    for v in range(1 << len(problem.base)):
        x = next(x for x in _assignments(len(problem.unknowns)) if (cof[x] >> v) & 1)
        for i, bit in enumerate(x):
            least[i] |= bit << v
    f_t = _substituted(problem.formula, dict(zip(problem.unknowns, problem.parameters)))
    return [
        f"({f_t}) & {t} | ~({f_t}) & ({_table_formula(space, s)})"
        for t, s in zip(problem.parameters, least)
    ]


def oracle_verdicts(problem: Problem, comps: Sequence[F.Formula]) -> tuple[bool, bool]:
    """(reproductive, general) by the pointwise definitions over base
    atoms v and parameter values x: every R(v, x) solves F at v;
    reproductive adds R(v, x) = x wherever F(v, x); general adds that
    every solution at v is R(v, x) for some x."""
    space = Space(problem.base + problem.parameters)
    masks = [space.tree(g, space.masks) for g in comps]
    solves = space.text(problem.formula, space.env(dict(zip(problem.unknowns, masks))))
    if solves != space.full:
        return False, False
    identity = space.env({p: space.masks[t] for p, t in zip(problem.unknowns, problem.parameters)})
    fixed = space.text(problem.formula, identity)
    reproductive = all(not (fixed & (m ^ space.masks[t])) for m, t in zip(masks, problem.parameters))
    general = True
    for x in _assignments(len(problem.unknowns)):
        env = space.env({p: space.const(b) for p, b in zip(problem.unknowns, x)})
        hit = space.full
        for m, b in zip(masks, x):
            hit &= m if b else space.full ^ m
        for t in problem.parameters:
            hit = space.exists(hit, t)
        if space.text(problem.formula, env) & ~hit:
            general = False
    return reproductive, general


def check_enumeration(problem: Problem, expected: int, result: object) -> int:
    """The enumerated tuples are distinct solutions, as many as the
    brute-force count."""
    if len(result) != expected:
        raise CheckError(f"enumerated {len(result)} solutions, brute force counts {expected}")
    space = Space(problem.base)
    cof = _cofactor_masks(problem, space)
    seen = set()
    memo: dict[int, tuple[int, int]] = {}  # components are shared between tuples
    nodes = 0
    for sol in result:
        tables = []
        for g in sol.components:
            if id(g) not in memo:
                memo[id(g)] = (space.tree(g, space.masks), tree_nodes(g))
            table, size = memo[id(g)]
            tables.append(table)
            nodes += size
        bad = 0
        for x, mask in cof.items():
            sel = space.full
            for table, bit in zip(tables, x):
                sel &= table if bit else space.full ^ table
            bad |= sel & ~mask
        if bad:
            raise CheckError("an enumerated tuple is not a solution")
        seen.add(tuple(tables))
    if len(seen) != len(result):
        raise CheckError("the enumeration repeats a solution")
    return nodes


def check_verdict(expected: bool, result: object) -> int:
    if result.verdict != expected:
        raise CheckError(f"oracle verdict {result.verdict}, brute force says {expected}")
    return 0


def _flip_verdict(result: object) -> object:
    return types.SimpleNamespace(verdict=not result.verdict)


def table_problem(rng: random.Random) -> tuple[Problem, list[str]]:
    """A quantifier-free 2-atom clause problem with a fixed solution
    count, and its Loewenheim reproductive candidate.  The fixed count
    keeps the oracle's work per problem nearly the same from seed to
    seed."""
    for _ in range(5000):
        base, unknowns, params = atom_names(rng, 2, 2, 2)
        problem = Problem(clause_formula(rng, base + unknowns, 3), base, unknowns, params)
        if solution_count(problem) == VERIFY_TABLE_COUNT:
            return problem, reproductive_candidate(problem)
    raise RuntimeError("verify problem generator missed its solution count")


def build_verify(rng: random.Random, files: ProblemFiles) -> list[Op]:
    """Half table-path problems, half quantified ones.  The quantified
    problems take their sign patterns, and every problem the component
    its planted candidate negates, in a fixed turn, so each pass has the
    same mix whatever the seed."""
    problems = [(False, table_problem(rng)) for _ in range(VERIFY_TABLE_PROBLEMS)]
    for j in range(VERIFY_QUANTIFIED_PROBLEMS):
        base, unknowns, params, bound = atom_names(rng, 1, 2, 2, 2)
        problems.append((True, lower_bound_problem(base, unknowns, params, bound, j % 4)))
    ops = []
    for j, (quantified, (problem, candidate)) in enumerate(problems):
        sp = SolutionProblem(parse(problem.formula), problem.unknowns, problem.parameters)
        basis = problem.base
        kind = "quantified" if quantified else "table"
        ops.append(Op(
            f"verify enumerate {kind}",
            lambda sp=sp, basis=basis: oracle.enumerate_solutions(sp, basis),
            lambda r, pr=problem: check_enumeration(pr, solution_count(pr), r),
            lambda r: r[:-1],
        ))
        good = [parse(t) for t in candidate]
        checks = [
            ("check_reproductive", oracle.check_reproductive, good),
            ("check_general", oracle.check_general, good),
        ]
        if quantified:
            # Planted only here: with planted table-path checks too, the
            # median latency falls between two classes of operation and
            # moves from run to run.
            wrong = list(good)
            wrong[j % 2] = F.Not(wrong[j % 2])
            checks.append(("check_reproductive planted", oracle.check_reproductive, wrong))
        for label, fn, comps in checks:
            expected = oracle_verdicts(problem, comps)[label == "check_general"]
            if expected != (comps is good):
                raise RuntimeError("reproductive candidate construction is wrong")
            ops.append(Op(
                f"verify {label} {kind}",
                lambda fn=fn, sp=sp, comps=comps, basis=basis: fn(sp, comps, basis),
                lambda r, e=expected: check_verdict(e, r),
                _flip_verdict,
            ))
    return ops


BUILDERS = {
    "chain": build_chain,
    "random": build_random,
    "decide": build_decide,
    "verify": build_verify,
}
