"""Layer tracer for the benchmark's traced runs.

Every public function of the seven boolsolve modules is wrapped, in the
module that defines it and wherever another module (or the package
``__init__``) holds a reference to it, so calls between modules pass
through the wrapper too.  Only the outermost call of each function
records a span, so recursion inside ``simplify`` counts once.

A span is (function, start, end, parent span).  Spans stay in memory
and are written out by ``write``.  Self time is a span's duration minus
the time its child spans cover.  Node counts and bitmask widths are
taken on inputs and outputs at the same boundaries; the clock is paused
while they are counted, so counting adds no time to any span.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from boolsolve import formula as F

from evaluator import tree_nodes

MODULES = ("cli", "syntax", "formula", "semantics", "elimination", "solve", "oracle")
_ORACLE_CHECKS = ("check_particular", "check_parametric", "check_reproductive", "check_general")


def _quantified(f: F.Formula) -> bool:
    """``formula.has_quantifier``, which is itself traced once installed."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, F.QUANT):
            return True
        if isinstance(g, F.Not):
            stack.append(g.operand)
        elif isinstance(g, F.BINARY):
            stack.extend((g.left, g.right))
    return False


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._open: list[list] = []
        self._active: set = set()
        self._module_depth: Counter = Counter()
        self._paused = 0.0
        self.recording = True  # off during set-up rounds

    def now(self) -> float:
        return perf_counter() - self._paused

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        package = importlib.import_module("boolsolve")
        modules = {m: importlib.import_module(f"boolsolve.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, short, f"{short}.{attr}")
        for holder in [package, *modules.values()]:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(holder, attr, wrappers[obj])

    def _wrap(self, fn, module: str, name: str):
        name_id = len(self.names)
        self.names.append(name)
        probe = _PROBES.get(name)
        tagger = _TAGGERS.get(name)
        active = self._active
        depth = self._module_depth
        open_spans = self._open
        spans = self.spans

        def traced(*args, **kwargs):
            if fn in active or not self.recording:
                return fn(*args, **kwargs)
            key = name
            if tagger is not None:
                pause = perf_counter()
                key = tagger(self, module, args)
                self._paused += perf_counter() - pause
            active.add(fn)
            depth[module] += 1
            parent = open_spans[-1][3] if open_spans else -1
            index = len(spans)
            spans.append(None)
            span = [name_id, self.now(), 0.0, index]  # id, start, child time, index
            open_spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                open_spans.pop()
                active.discard(fn)
                depth[module] -= 1
                duration = end - span[1]
                spans[index] = (name_id, span[1], end, parent)
                self.self_s[key] += duration - span[2]
                self.calls[key] += 1
                if open_spans:
                    open_spans[-1][2] += duration
            if probe is not None:
                pause = perf_counter()
                probe(self, args, result)
                self._paused += perf_counter() - pause
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- output --------------------------------------------------------------
    def write(self, path: str) -> None:
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("span", "name", "start_s", "end_s", "parent"))
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                out.writerow((i, self.names[name_id], f"{start:.9f}", f"{end:.9f}", parent))


# -- probes: counts at the traced boundaries ----------------------------------

def _count_simplify(tracer: Tracer, args, result) -> None:
    tracer.counts["simplify_in_nodes"] += tree_nodes(args[0])
    tracer.counts["simplify_out_nodes"] += tree_nodes(result)


def _count_eliminated(tracer: Tracer, args, result) -> None:
    tracer.counts["eliminated_nodes"] += tree_nodes(result)


def _count_format(tracer: Tracer, args, result) -> None:
    tracer.counts["format_chars"] += len(result)


def _basis_width(tracer: Tracer, args, result) -> None:
    width = len(args[1]) if len(args) > 1 else len(args[0])
    tracer.maxima["max_basis_atoms"] = max(tracer.maxima["max_basis_atoms"], width)


def _count_enumerated(tracer: Tracer, args, result) -> None:
    tracer.counts["solutions_enumerated"] += len(result)


_PROBES = {
    "semantics.simplify": _count_simplify,
    "elimination.shannon_eliminate": _count_eliminated,
    "elimination.forall_eliminate": _count_eliminated,
    "syntax.format_formula": _count_format,
    "semantics.formula_mask": _basis_width,
    "semantics.atom_patterns": _basis_width,
    "oracle.enumerate_solutions": _count_enumerated,
}


def _oracle_path(tracer: Tracer, module: str, args) -> str:
    """Tag an oracle check with the path it takes: the oracle falls back
    to literal substitution when the formula or a component carries a
    quantifier.  Checks made from outside the oracle count as checks."""
    sp, components = args[0], args[1]
    slow = _quantified(sp.formula) or any(_quantified(g) for g in components)
    if tracer._module_depth[module] == 0:
        tracer.counts["oracle_checks"] += 1
    return "oracle.slow_path" if slow else "oracle.table_path"


_TAGGERS = {f"oracle.{name}": _oracle_path for name in _ORACLE_CHECKS}


def _sum(table: Counter, *keys: str) -> float:
    return sum(table[k] for k in keys)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the traced passes."""
    s, c, n = tracer.self_s, tracer.calls, tracer.counts

    def by_module(module: str) -> float:
        return sum(v for k, v in s.items() if k.startswith(module + "."))

    totals = {
        "cli.self_s": by_module("cli"),
        "cli.calls": c["cli.run"],
        "syntax.parse_s": s["syntax.parse"],
        "syntax.format_s": s["syntax.format_formula"],
        "syntax.format_chars": n["format_chars"],
        "formula.substitute_s": s["formula.substitute"],
        "formula.substitute_calls": c["formula.substitute"],
        "formula.clean_variant_s": s["formula.clean_variant"],
        "formula.free_atoms_s": s["formula.free_atoms"],
        "formula.free_atoms_calls": c["formula.free_atoms"],
        "formula.polarity_s": s["formula.polarity_of"],
        "semantics.simplify_s": s["semantics.simplify"],
        "semantics.simplify_calls": c["semantics.simplify"],
        "semantics.simplify_in_nodes": n["simplify_in_nodes"],
        "semantics.simplify_out_nodes": n["simplify_out_nodes"],
        "semantics.atom_patterns_s": s["semantics.atom_patterns"],
        "semantics.formula_mask_s": s["semantics.formula_mask"],
        "semantics.formula_mask_calls": c["semantics.formula_mask"],
        "semantics.formula_from_table_s": s["semantics.formula_from_table"],
        "elimination.shannon_s": s["elimination.shannon_eliminate"],
        "elimination.eliminations": _sum(c, "elimination.shannon_eliminate", "elimination.forall_eliminate"),
        "elimination.eliminated_nodes": n["eliminated_nodes"],
        "elimination.forall_s": s["elimination.forall_eliminate"],
        "elimination.project_s": s["elimination.project_vocabulary"],
        "elimination.precondition_s": s["elimination.weakest_precondition"],
        "elimination.witness_s": _sum(s, "elimination.elim_witness", "elimination.elim_witness_dnf",
                                      "elimination.ackermann_rewrite", "elimination.ehw_combine"),
        "solve.self_s": by_module("solve"),
        "solve.exists_solution_s": s["solve.exists_solution"],
        "solve.exists_solution_calls": c["solve.exists_solution"],
        "oracle.table_path_s": s["oracle.table_path"],
        "oracle.checks": n["oracle_checks"],
        "oracle.slow_path_s": s["oracle.slow_path"],
        "oracle.enumerate_s": _sum(s, "oracle.enumerate_solutions", "oracle.any_enumerated_solution"),
        "oracle.solutions_enumerated": n["solutions_enumerated"],
    }
    out = {k: v / passes for k, v in totals.items()}
    out["semantics.max_basis_atoms"] = tracer.maxima["max_basis_atoms"]
    return out


def unit(name: str) -> str:
    """Unit of a layer metric, from its name."""
    if name.endswith("per_s"):
        return "ops/s"
    return "s" if name.endswith("_s") else "count"


def summary(tracer: Tracer, passes: int) -> dict:
    """Per-pass self and inclusive time of each module, and the traced
    time of the operations.  A module's inclusive time counts its spans
    that no span of the same module encloses."""
    modules = [name.split(".", 1)[0] for name in tracer.names]
    self_s: dict[str, float] = defaultdict(float)
    for key, value in tracer.self_s.items():
        self_s[key.split(".", 1)[0]] += value
    inclusive: dict[str, float] = defaultdict(float)
    for name_id, start, end, parent in tracer.spans:
        module = modules[name_id]
        while parent >= 0 and modules[tracer.spans[parent][0]] != module:
            parent = tracer.spans[parent][3]
        if parent < 0:
            inclusive[module] += end - start
    traced = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    return {
        "passes": passes,
        "traced_s": traced / passes,
        "self_s": {m: v / passes for m, v in sorted(self_s.items())},
        "inclusive_s": {m: v / passes for m, v in sorted(inclusive.items())},
        "functions_self_s": {k: v / passes for k, v in sorted(tracer.self_s.items())},
    }
