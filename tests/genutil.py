"""Deterministic random generators shared by the test modules."""

from __future__ import annotations

import random

from boolsolve import (
    BOT,
    TOP,
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SolutionProblem,
    exists_solution,
)

BIN_OPS = (And, Or, Implies, Iff)

# The default pool of quantifier binders, disjoint from the free atoms
# the tests draw.  Binders named like free atoms are sound as well, since
# substitution renames bound atoms apart; tests that want them pass a
# pool such as ("a", "b").
QUANT_POOL = ("q1", "q2")


def random_formula(
    rng: random.Random,
    atoms: tuple[str, ...],
    depth: int,
    quant_pool: tuple[str, ...] = (),
    quant_prob: float = 0.12,
) -> Formula:
    if depth <= 0 or rng.random() < 0.22:
        r = rng.random()
        if r < 0.06:
            return TOP
        if r < 0.12:
            return BOT
        return Atom(rng.choice(atoms))
    r = rng.random()
    if r < 0.2:
        return Not(random_formula(rng, atoms, depth - 1, quant_pool, quant_prob))
    if quant_pool and r < 0.2 + quant_prob:
        var = rng.choice(quant_pool)
        quantifier = Exists if rng.random() < 0.5 else Forall
        body = random_formula(
            rng, atoms + (var,), depth - 1, quant_pool, quant_prob
        )
        return quantifier(var, body)
    op = rng.choice(BIN_OPS)
    return op(
        random_formula(rng, atoms, depth - 1, quant_pool, quant_prob),
        random_formula(rng, atoms, depth - 1, quant_pool, quant_prob),
    )


def tree_nodes(f: Formula) -> int:
    """Number of nodes of the formula tree ``f``."""
    if isinstance(f, Not):
        return 1 + tree_nodes(f.operand)
    if isinstance(f, (And, Or, Implies, Iff)):
        return 1 + tree_nodes(f.left) + tree_nodes(f.right)
    if isinstance(f, (Exists, Forall)):
        return 1 + tree_nodes(f.body)
    return 1


def random_sp(
    rng: random.Random,
    n_unknowns: int,
    n_base: int,
    depth: int = 4,
    parameters: bool = False,
    quantifiers: bool = False,
) -> SolutionProblem:
    unknowns = ("p1", "p2")[:n_unknowns]
    base = ("a", "b")[:n_base]
    formula = random_formula(
        rng,
        unknowns + base,
        depth,
        quant_pool=QUANT_POOL if quantifiers else (),
    )
    params = ("t1", "t2")[:n_unknowns] if parameters else None
    return SolutionProblem(formula, unknowns, params)


def random_solvable_sp(
    rng: random.Random,
    n_unknowns: int,
    n_base: int,
    depth: int = 4,
    parameters: bool = False,
    quantifiers: bool = False,
    max_tries: int = 500,
) -> SolutionProblem:
    for _ in range(max_tries):
        sp = random_sp(rng, n_unknowns, n_base, depth, parameters, quantifiers)
        if exists_solution(sp):
            return sp
    raise AssertionError("no solvable problem found; generator is miscalibrated")


def timed_deep(fn, repeat: int = 3):
    """The least time of ``repeat`` calls of ``fn`` and its last result,
    run in a thread with room for a recursion thousands of nodes deep."""
    import sys
    import threading
    import time

    out = {}

    def run() -> None:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            out["result"] = fn()
            best = min(best, time.perf_counter() - start)
        out["seconds"] = best

    limit, size = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(100_000)
    threading.stack_size(256 * 1024 * 1024)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    return out["seconds"], out["result"]
