"""Independent bit-parallel evaluator for checking boolsolve's answers.

A formula's value under every valuation of an ordered atom basis is one
Python int: bit ``i`` is the value at valuation ``i``, and atom ``j`` of
the basis is true exactly at the indices with bit ``j`` set.  The masks
are built here by doubling and never come from ``boolsolve.semantics``,
so a fault in the package's semantic kernel cannot hide a fault in its
solvers.

Formulas arrive either as text (problem files written by the benchmark,
formulas printed by the CLI) or as ``boolsolve.formula`` trees (oracle
inputs and outputs).  Quantifier-free text is evaluated straight from
its tokens; text with quantifiers is read with ``boolsolve.parse``.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from boolsolve import formula as F
from boolsolve import parse

_TOKEN = re.compile(r"<->|->|[()~&|.]|[a-z][A-Za-z0-9_]*|\S")
_BINARY_PREC = {"<->": 1, "->": 2, "|": 3, "&": 4}
_OPERATORS = frozenset(("~", "&", "|", "->", "<->"))


class CheckError(Exception):
    """An answer of the program does not meet its definition."""


def atom_masks(basis: Sequence[str]) -> dict[str, int]:
    """Mask of each basis atom over all ``2**len(basis)`` valuations."""
    size = 1 << len(basis)
    out = {}
    for j, name in enumerate(basis):
        width = 1 << j
        mask = ((1 << width) - 1) << width  # one period: 2^j zeros, 2^j ones
        period = 2 * width
        while period < size:
            mask |= mask << period
            period *= 2
        out[name] = mask
    return out


def count_nodes(text: str) -> int:
    """AST node count of a printed formula: atoms, constants, operators
    and quantifiers (a quantifier's bound name is part of its node)."""
    nodes = 0
    binder = False
    for tok in _TOKEN.findall(text):
        if binder:
            binder = False
        elif tok in ("exists", "forall"):
            nodes += 1
            binder = True
        elif tok in _OPERATORS or tok[0].isalpha():
            nodes += 1
    return nodes


def mentioned_atoms(text: str) -> set[str]:
    """Every atom name in a printed formula, free or bound."""
    return {
        tok for tok in _TOKEN.findall(text)
        if tok[0].isalpha() and tok not in ("true", "false", "exists", "forall")
    }


def tree_nodes(f: F.Formula) -> int:
    """AST node count of a formula tree, shared subtrees counted per use."""
    sizes: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in sizes:
            stack.pop()
            continue
        kids = _children(g)
        pending = [k for k in kids if id(k) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(g)] = 1 + sum(sizes[id(k)] for k in kids)
    return sizes[id(f)]


def _children(g: F.Formula) -> tuple:
    if isinstance(g, F.Not):
        return (g.operand,)
    if isinstance(g, F.BINARY):
        return (g.left, g.right)
    if isinstance(g, F.QUANT):
        return (g.body,)
    return ()


class Space:
    """All valuations of one basis, with the masks to evaluate over it."""

    def __init__(self, basis: Sequence[str]):
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis atoms must be distinct")
        self.full = (1 << (1 << len(self.basis))) - 1
        self.masks = atom_masks(self.basis)

    def env(self, binding: Mapping[str, int] | None = None) -> dict[str, int]:
        """Atom masks, with ``binding`` overriding some atoms' values."""
        out = dict(self.masks)
        if binding:
            out.update(binding)
        return out

    def const(self, value: bool) -> int:
        return self.full if value else 0

    # -- quantifying atoms of the basis out of a mask -------------------
    def _cofactors(self, mask: int, atom: str) -> tuple[int, int]:
        """(atom false, atom true) cofactors, each spread over both halves."""
        width = 1 << self.basis.index(atom)
        pattern = self.masks[atom]
        low = mask & (self.full ^ pattern)
        high = mask & pattern
        return low | (low << width), high | (high >> width)

    def exists(self, mask: int, atom: str) -> int:
        low, high = self._cofactors(mask, atom)
        return low | high

    def forall(self, mask: int, atom: str) -> int:
        low, high = self._cofactors(mask, atom)
        return low & high

    # -- evaluation -------------------------------------------------------
    def text(self, text: str, env: Mapping[str, int]) -> int:
        """Mask of a formula given as text; atoms take values from ``env``."""
        if "exists" in text or "forall" in text:
            return self.tree(parse(text), env)
        return _TextEvaluator(self.full, env).run(text)

    def tree(self, f: F.Formula, env: Mapping[str, int]) -> int:
        """Mask of a formula tree; atoms take values from ``env``."""
        full = self.full
        memo: dict[int, int] = {}

        def walk(g: F.Formula, scope: Mapping[str, int]) -> int:
            # Subtrees are shared, so results are reused outside quantifiers.
            key = id(g)
            if scope is env and key in memo:
                return memo[key]
            if isinstance(g, F.Top):
                out = full
            elif isinstance(g, F.Bot):
                out = 0
            elif isinstance(g, F.Atom):
                if g.name not in scope:
                    raise CheckError(f"atom {g.name} outside the checked basis")
                out = scope[g.name]
            elif isinstance(g, F.Not):
                out = full ^ walk(g.operand, scope)
            elif isinstance(g, F.And):
                out = walk(g.left, scope) & walk(g.right, scope)
            elif isinstance(g, F.Or):
                out = walk(g.left, scope) | walk(g.right, scope)
            elif isinstance(g, F.Implies):
                out = (full ^ walk(g.left, scope)) | walk(g.right, scope)
            elif isinstance(g, F.Iff):
                out = full ^ walk(g.left, scope) ^ walk(g.right, scope)
            elif isinstance(g, F.QUANT):
                hi = walk(g.body, {**scope, g.var: full})
                lo = walk(g.body, {**scope, g.var: 0})
                out = hi | lo if isinstance(g, F.Exists) else hi & lo
            else:
                raise TypeError(f"not a formula: {g!r}")
            if scope is env:
                memo[key] = out
            return out

        return walk(f, env)


class _TextEvaluator:
    """Operator-precedence evaluation of quantifier-free formula text.

    ``<->`` is left-associative, ``->`` right-associative, ``|`` and
    ``&`` left-associative, ``~`` prefix; tighter operators bind first.
    """

    def __init__(self, full: int, env: Mapping[str, int]):
        self.full = full
        self.env = env

    def run(self, text: str) -> int:
        full = self.full
        env = self.env
        values: list[int] = []
        ops: list[str] = []
        expect_operand = True
        for tok in _TOKEN.findall(text):
            if expect_operand:
                if tok == "~" or tok == "(":
                    ops.append(tok)
                    continue
                if tok == "true":
                    values.append(full)
                elif tok == "false":
                    values.append(0)
                elif tok[0].isalpha():
                    if tok not in env:
                        raise CheckError(f"atom {tok} outside the checked basis")
                    values.append(env[tok])
                else:
                    raise CheckError(f"unexpected {tok!r} in printed formula")
                while ops and ops[-1] == "~":
                    ops.pop()
                    values.append(full ^ values.pop())
                expect_operand = False
            elif tok == ")":
                self._reduce(values, ops, 0)
                if not ops or ops.pop() != "(":
                    raise CheckError("unbalanced ')' in printed formula")
                while ops and ops[-1] == "~":
                    ops.pop()
                    values.append(full ^ values.pop())
            elif tok in _BINARY_PREC:
                prec = _BINARY_PREC[tok]
                # '->' is right-associative: only strictly tighter ops reduce.
                self._reduce(values, ops, prec + 1 if tok == "->" else prec)
                ops.append(tok)
                expect_operand = True
            else:
                raise CheckError(f"unexpected {tok!r} in printed formula")
        if expect_operand:
            raise CheckError("printed formula ends early")
        self._reduce(values, ops, 0)
        if ops or len(values) != 1:
            raise CheckError("malformed printed formula")
        return values[0]

    def _reduce(self, values: list[int], ops: list[str], min_prec: int) -> None:
        full = self.full
        while ops and ops[-1] in _BINARY_PREC and _BINARY_PREC[ops[-1]] >= min_prec:
            op = ops.pop()
            right = values.pop()
            left = values.pop()
            if op == "&":
                values.append(left & right)
            elif op == "|":
                values.append(left | right)
            elif op == "->":
                values.append((full ^ left) | right)
            else:
                values.append(full ^ left ^ right)
