import random
import subprocess
from collections import Counter
import sys
import time
from pathlib import Path

import pytest

import semantics_reference
from boolsolve import (
    And,
    Atom,
    BOT,
    BudgetExceeded,
    Exists,
    Not,
    Or,
    SolutionProblem,
    Strategy,
    TOP,
    TruthTable,
    UnboundAtom,
    conj,
    disj,
    entails,
    equivalent,
    evaluate,
    exists,
    formula_from_table,
    free_atoms,
    is_valid,
    parse,
    simplify,
    solve_on_second_order,
    substitute,
    truth_table,
)
from boolsolve import semantics
from boolsolve.formula import BINARY, QUANT
from boolsolve.semantics import (
    MAX_MASK_ATOMS,
    atom_patterns,
    cofactors,
    formula_mask,
    irredundant_two_level_mask,
    top_cofactors,
    widen,
)
from elimination_reference import has_quantifier
from formula_reference import is_substitutible
from genutil import QUANT_POOL, random_formula, timed_deep
from solve_reference import irredundant_two_level


SRC = Path(__file__).resolve().parent.parent / "src"


def nested_prefix(q: int):
    """``exists q0 . ... exists q{q-1} .`` over the chain of
    ``q_i -> q_{i+1} | a_{i mod 4}``: q binders, each nested in the last."""
    chain = " & ".join(f"(q{i} -> q{i + 1} | a{i % 4})" for i in range(q - 1))
    return parse("".join(f"exists q{i} . " for i in range(q)) + chain)


def test_evaluate():
    assert evaluate(parse("a -> b"), {"a": True, "b": False}) is False
    assert evaluate(parse("exists p . p & a"), {"a": True}) is True
    assert evaluate(parse("forall p . p | a"), {"a": False}) is False
    with pytest.raises(UnboundAtom):
        evaluate(parse("a & b"), {"a": True})
    with pytest.raises(UnboundAtom):
        evaluate(parse("a | b"), {"a": True})


def test_is_valid():
    assert is_valid(parse("a | ~a"))
    assert is_valid(parse("exists p . (p <-> a)"))
    assert not is_valid(parse("a -> b"))


def test_entails_equivalent():
    assert equivalent(parse("~(a & b)"), parse("~a | ~b"))
    assert entails(parse("a & b"), parse("a"))
    assert not entails(parse("a"), parse("a & b"))


def test_validity_verdicts_match_reference_masks():
    # is_valid, entails and equivalent against the verdicts read off the
    # reference walk's masks over the pair's joint free atoms.  Most
    # second formulas are built from the first, so each verdict is met
    # both ways; binders reuse free names on both sides.
    rng = random.Random(2502)
    atoms = ("a", "b", "c")
    seen = Counter()
    for _ in range(1000):
        f = random_formula(rng, atoms, depth=4, quant_pool=("a", "q1"))
        h = random_formula(rng, atoms, depth=3, quant_pool=("b", "q1"))
        g = rng.choice((h, Or(f, h), And(f, h), simplify(f), Not(Not(f)), Or(f, Not(f))))
        basis = tuple(sorted(set(free_atoms(f)) | set(free_atoms(g))))
        full = (1 << (1 << len(basis))) - 1
        fmask = semantics_reference.formula_mask(f, basis)
        gmask = semantics_reference.formula_mask(g, basis)
        verdicts = (gmask == full, fmask & ~gmask == 0, fmask == gmask)
        assert (is_valid(g), entails(f, g), equivalent(f, g)) == verdicts
        seen.update(enumerate(verdicts))
    assert min(seen[i, v] for i in range(3) for v in (False, True)) >= 100, seen


def test_truth_table_encoding():
    # basis sorted ascending, atom i contributes bit i, index 0 leftmost
    t = truth_table(parse("a & ~b"), ["a", "b"])
    assert t.basis == ("a", "b")
    assert t.bit_string() == "0100"
    assert truth_table(TOP, ["a"]).bit_string() == "11"
    assert truth_table(parse("exists p . p & a"), ["a"]) == truth_table(
        Atom("a"), ["a"]
    )
    assert t.to_text() == "basis: a b\nbits: 0100"


def test_truth_table_requires_basis_coverage():
    with pytest.raises(UnboundAtom):
        truth_table(parse("a & c"), ["a", "b"])


def test_atom_patterns_pointwise():
    for k in range(11):
        names = tuple(f"x{i:02d}" for i in range(k))
        for basis in (names, names[::-1]):
            masks = atom_patterns(basis)
            # positional readers take the masks in basis order
            assert list(masks) == list(basis)
            for i, name in enumerate(basis):
                expected = sum(1 << idx for idx in range(1 << k) if (idx >> i) & 1)
                assert masks[name] == expected


def test_atom_patterns_match_reference():
    for k in range(19):
        names = tuple(f"x{i:02d}" for i in range(k))
        for basis in (names, names[::-1]):
            masks = atom_patterns(basis)
            assert list(masks.items()) == list(semantics_reference.atom_patterns(basis).items())


def test_atom_pattern_table_keeps_narrow_widths_only():
    for k in range(19):
        atom_patterns(tuple(f"x{i}" for i in range(k)))
    kept = dict(semantics._PATTERNS)
    assert max(kept) <= 16 and len(kept) <= 17
    assert sum(len(masks) << width for width, masks in kept.items()) <= 1 << 21
    for k in (17, 18, MAX_MASK_ATOMS + 1):
        wide = tuple(f"x{i}" for i in range(k))
        if k > MAX_MASK_ATOMS:
            with pytest.raises(BudgetExceeded):
                atom_patterns(wide)
        else:
            atom_patterns(wide)
        assert semantics._PATTERNS.keys() == kept.keys()
        assert all(semantics._PATTERNS[w] is masks for w, masks in kept.items())


def test_atom_patterns_survive_a_caller_changing_them():
    basis = ("a", "b", "c")
    expected = semantics_reference.atom_patterns(basis)
    masks = atom_patterns(basis)
    masks["a"] = 0
    masks["z"] = 1
    assert atom_patterns(basis) == expected
    atom_patterns(basis).clear()
    assert atom_patterns(basis) == expected


def _flatten(f, op):
    if isinstance(f, op):
        return _flatten(f.left, op) + _flatten(f.right, op)
    return [f]


def test_irredundant_two_level_examples():
    assert irredundant_two_level(parse("a | ~a")) == TOP
    assert irredundant_two_level(parse("a & ~a")) == BOT
    assert irredundant_two_level(parse("(a & b) | (a & ~b)")) == Atom("a")
    assert irredundant_two_level(parse("exists q . q & a | b")) == parse("a | b")
    # atoms split in sorted order, whatever the input's shape
    expected = parse("a & b | ~b & ~c")
    assert irredundant_two_level(parse("(c -> b) & (b -> a)")) == expected
    assert irredundant_two_level(parse("(b -> a) & (c -> b)")) == expected
    # a product of clauses has fewer literals than its sum of products
    cnf = parse("(a | b) & (c | d) & (e | f)")
    assert irredundant_two_level(cnf) == cnf


def _irredundant(g, outer, inner, unit):
    # g read as an outer-combination of inner-combinations (terms): no
    # term and no literal of a term can be dropped without changing g.
    combine = disj if outer is Or else conj
    terms = [] if g == unit else _flatten(g, outer)
    for i, term in enumerate(terms):
        others = terms[:i] + terms[i + 1 :]
        if equivalent(combine(others), g):
            return False
        literals = [] if term in (TOP, BOT) else _flatten(term, inner)
        for j in range(len(literals)):
            shortened = literals[:j] + literals[j + 1 :]
            term_j = conj(shortened) if inner is And else disj(shortened)
            if equivalent(combine(others + [term_j]), g):
                return False
    return True


def test_irredundant_two_level_random():
    rng = random.Random(43)
    for _ in range(400):
        f = random_formula(rng, ("a", "b", "c", "d"), depth=5, quant_pool=QUANT_POOL)
        g = irredundant_two_level(f)
        assert equivalent(g, f)
        assert not has_quantifier(g)
        for x in free_atoms(g):
            assert not equivalent(substitute(f, [x], [TOP]), substitute(f, [x], [BOT]))
        assert _irredundant(g, Or, And, BOT) or _irredundant(g, And, Or, TOP)


def test_mask_cofactors_and_widen():
    rng = random.Random(47)
    basis = ("a", "b", "c", "d")
    patterns = atom_patterns(basis)
    for _ in range(100):
        f = random_formula(rng, basis, depth=4)
        mask = formula_mask(f, basis, patterns)
        for i, x in enumerate(basis):
            zero, one = cofactors(mask, i, patterns[x])
            assert zero == formula_mask(substitute(f, [x], [BOT]), basis, patterns)
            assert one == formula_mask(substitute(f, [x], [TOP]), basis, patterns)
        zero, one = top_cofactors(mask, 4)
        assert zero == formula_mask(substitute(f, ["d"], [BOT]), basis[:3])
        assert one == formula_mask(substitute(f, ["d"], [TOP]), basis[:3])
        assert widen(zero, 3, 4) == formula_mask(substitute(f, ["d"], [BOT]), basis)


def test_irredundant_two_level_mask_any_layout():
    # The mask entry splits positions in the sorted order of their
    # names, so any layout of the mask prints what the formula entry does.
    rng = random.Random(53)
    for _ in range(200):
        f = random_formula(rng, ("a", "b", "c", "d"), depth=5)
        layout = rng.sample(["a", "b", "c", "d", "e"], 5)
        expected = irredundant_two_level(f)
        patterns = atom_patterns(layout)
        mask = formula_mask(f, layout, patterns)
        shown = irredundant_two_level_mask(mask, layout, list(patterns.values()))
        assert shown == expected


def _cover_matches_reference(mask, names, patterns):
    shown = irredundant_two_level_mask(mask, names, patterns)
    assert shown == semantics_reference.irredundant_two_level_mask(mask, names, patterns)
    return shown


def test_cover_matches_full_width_reference():
    # The cover lays the mask out in split order and recurses on
    # half-width cofactors; it must print what the full-width cover does.
    rng = random.Random(59)
    pool = [f"x{i}" for i in range(12)]
    for width in range(4):
        patterns = list(atom_patterns(tuple(pool[:width])).values())
        for mask in (0, (1 << (1 << width)) - 1):
            _cover_matches_reference(mask, pool[:width], patterns)
    for width in range(11):
        for _ in range(40 if width < 8 else 6):
            layout = rng.sample(pool, width)
            patterns = list(atom_patterns(tuple(layout)).values())
            full = (1 << (1 << width)) - 1
            mask = rng.getrandbits(1 << width)
            _cover_matches_reference(mask, layout, patterns)
            # a few cubes, and their negation: masks with short covers
            few = 0
            for _ in range(rng.randint(1, 4)):
                cube = full
                for at in rng.sample(range(width), rng.randint(0, width)):
                    cube &= patterns[at] if rng.random() < 0.5 else full ^ patterns[at]
                few |= cube
            _cover_matches_reference(few, layout, patterns)
            _cover_matches_reference(full ^ few, layout, patterns)


def test_cover_parity_retries_the_literal_budget():
    # A parity of w atoms has 2^(w-1) cubes of w literals either way, so
    # the first budget of 64 literals fails and the budget grows.
    for width in (7, 8, 9):
        layout = [f"x{i}" for i in range(width)][::-1]
        patterns = list(atom_patterns(tuple(layout)).values())
        parity = 0
        for pattern in patterns:
            parity ^= pattern
        shown = _cover_matches_reference(parity, layout, patterns)
        assert len(_flatten(shown, Or)) == 1 << (width - 1)


def test_cover_patterns_over_a_wider_basis():
    # The solver core, whose stage 0 weakest_precondition prints, passes
    # the atom masks of a wider basis, whose first positions the mask spans.
    rng = random.Random(61)
    for _ in range(200):
        layout = rng.sample(["a", "b", "c", "d", "e", "f"], rng.randint(1, 6))
        width = rng.randint(0, len(layout))
        patterns = list(atom_patterns(tuple(layout)).values())
        mask = rng.getrandbits(1 << width)
        _cover_matches_reference(mask, layout[:width], patterns)


def test_width_cap():
    wide = tuple(f"x{i}" for i in range(MAX_MASK_ATOMS + 1))
    with pytest.raises(BudgetExceeded, match="exceed the truth-table cap"):
        atom_patterns(wide)
    with pytest.raises(BudgetExceeded):
        is_valid(conj(Atom(x) for x in wide))


def test_formula_from_table():
    assert formula_from_table(TruthTable(("a",), (False, False))) == BOT
    assert formula_from_table(TruthTable(("a",), (True, True))) == TOP
    f = formula_from_table(truth_table(parse("a -> b"), ["a", "b"]))
    assert f == parse("(~a & ~b) | (~a & b) | (a & b)")
    assert equivalent(f, parse("a -> b"))


def test_table_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        f = random_formula(rng, ("a", "b", "c"), depth=4, quant_pool=QUANT_POOL)
        basis = tuple(sorted(set(free_atoms(f)) | {"a", "b", "c"}))
        assert equivalent(formula_from_table(truth_table(f, basis)), f)


def test_evaluate_agrees_with_table_bits():
    rng = random.Random(29)
    for _ in range(200):
        f = random_formula(rng, ("a", "b"), depth=4, quant_pool=QUANT_POOL)
        t = truth_table(f, ("a", "b"))
        for idx, bit in enumerate(t.bits):
            valuation = {"a": bool(idx & 1), "b": bool(idx >> 1 & 1)}
            assert evaluate(f, valuation) == bit


def test_simplify_examples():
    assert simplify(parse("(a -> true) & (true -> b)")) == Atom("b")
    assert simplify(parse("~~a")) == Atom("a")
    assert simplify(parse("a & a")) == Atom("a")
    assert simplify(parse("a -> false")) == Not(Atom("a"))
    assert simplify(parse("exists p . a")) == Atom("a")
    # no complement rule: parameters must survive simplification
    assert simplify(parse("t | ~t")) == Or(Atom("t"), Not(Atom("t")))


def test_simplify_preserves_tables():
    rng = random.Random(31)
    for _ in range(400):
        f = random_formula(rng, ("a", "b", "c"), depth=5, quant_pool=QUANT_POOL)
        basis = tuple(sorted(set(free_atoms(f)) | {"a"}))
        assert truth_table(simplify(f), basis) == truth_table(f, basis)


def test_simplify_matches_reference():
    # Binders reuse the free atoms' names, so bodies shadow and drop them.
    rng = random.Random(2803)
    for _ in range(2000):
        f = random_formula(rng, ("a", "b", "c"), depth=rng.randint(1, 6),
                           quant_pool=("a", "b", "q1"), quant_prob=0.25)
        assert simplify(f) == semantics_reference.simplify(f)


def test_simplify_walks_a_quantifier_nest_once():
    # exists q0 . ... exists q799 . conjuncts a & (q_i | a): each binder
    # reads its body's free atoms from the walk below it.  Scanning each
    # body again took 2.6 s.
    q = 800
    f = conj(And(Atom("a"), Or(Atom(f"q{i}"), Atom("a"))) for i in range(q))
    for i in reversed(range(q)):
        f = Exists(f"q{i}", f)
    seconds, g = timed_deep(lambda: simplify(f))
    assert g is f  # no rule fires, and every binder binds
    assert seconds < 0.2, seconds


def test_expansion_law():
    rng = random.Random(37)
    for _ in range(200):
        f = random_formula(rng, ("p", "a", "b"), depth=4)
        expanded = Or(substitute(f, ["p"], [TOP]), substitute(f, ["p"], [BOT]))
        assert is_valid(exists(["p"], f)) == is_valid(expanded)


def test_distribution_through_selector():
    # f[p := (s & v) | (~s & w)] splits into the two selector cases
    rng = random.Random(41)
    done = 0
    while done < 200:
        f = random_formula(rng, ("p", "a", "b"), depth=4, quant_pool=QUANT_POOL)
        v = random_formula(rng, ("a", "b"), depth=2)
        w = random_formula(rng, ("a", "b"), depth=2)
        s = random_formula(rng, ("a", "b"), depth=2)
        mixed = Or(And(s, v), And(Not(s), w))
        if not is_substitutible([mixed], ["p"], f):
            continue
        lhs = substitute(f, ["p"], [mixed])
        rhs = Or(
            And(s, substitute(f, ["p"], [v])),
            And(Not(s), substitute(f, ["p"], [w])),
        )
        assert equivalent(lhs, rhs)
        done += 1


def _binder_shapes(f, free: frozenset[str]) -> set[str]:
    """Which of "nest" (a quantifier over another), "reuses free" (a
    binder named like an atom free in the whole formula) and "self
    nested" (a binder under one of the same name) occur in ``f``."""
    shapes = set()
    stack = [(f, ())]
    while stack:
        g, above = stack.pop()
        if isinstance(g, QUANT):
            if above:
                shapes.add("nest")
            if g.var in free:
                shapes.add("reuses free")
            if g.var in above:
                shapes.add("self nested")
            stack.append((g.body, above + (g.var,)))
        elif isinstance(g, Not):
            stack.append((g.operand, above))
        elif isinstance(g, BINARY):
            stack.extend(((g.left, above), (g.right, above)))
    return shapes


def test_kernel_matches_reference_on_quantified_formulas():
    # The binder pool overlaps the free atoms, so binders reuse a free
    # atom's name and nest under their own name.
    rng = random.Random(61)
    atoms = ("a", "b", "c")
    seen = {"nest": 0, "reuses free": 0, "self nested": 0}
    for _ in range(2400):
        f = random_formula(rng, atoms, depth=6, quant_pool=("a", "b", "q"), quant_prob=0.3)
        free = free_atoms(f)
        for shape in _binder_shapes(f, frozenset(free)):
            seen[shape] += 1
        basis = tuple(rng.sample(sorted(set(free) | {"d"}), len(set(free) | {"d"})))
        assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)
        valuation = {x: rng.random() < 0.5 for x in atoms}
        assert evaluate(f, valuation) == semantics_reference.evaluate(f, valuation)
    assert min(seen.values()) >= 100, seen


def test_nested_prefix_matches_reference():
    f = nested_prefix(8)
    basis = free_atoms(f)
    assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)
    g = parse("forall q . exists r . (q -> r & a) | (r <-> b) & exists q . q & r")
    assert formula_mask(g, ("a", "b")) == semantics_reference.formula_mask(g, ("a", "b"))


def test_nested_prefix_in_one_pass():
    # 18 nested binders: a walk per cofactor takes seconds here.
    f = nested_prefix(18)
    start = time.perf_counter()
    assert is_valid(f)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    sol = solve_on_second_order(SolutionProblem(f, ["a0"]), Strategy.INTERVAL)
    assert sol.components == (BOT,)
    assert time.perf_counter() - start < 2


def _walk_width(full: int) -> int:
    """The positions a walk's mask spans, from its mask of all valuations."""
    return full.bit_length().bit_length() - 1


def test_nest_past_the_width_cap(monkeypatch):
    # Outer binders of a nest too wide for the cap are walked one
    # position wider each, up to the cap exactly; the rest per cofactor.
    monkeypatch.setattr(semantics, "MAX_MASK_ATOMS", 7)
    widths = []
    walk = semantics._mask

    def spy(g, values, full):
        widths.append(_walk_width(full))
        return walk(g, values, full)

    monkeypatch.setattr(semantics, "_mask", spy)
    f = nested_prefix(8)
    basis = free_atoms(f)
    assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)
    assert max(widths) == 7
    rng = random.Random(67)
    for _ in range(300):
        f = random_formula(
            rng, ("a", "b", "c", "d"), depth=7, quant_pool=("a", "q"), quant_prob=0.4
        )
        basis = tuple(sorted(set(free_atoms(f)) | {"a", "b", "c", "d"}))
        assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)


def test_per_cofactor_inside_a_widened_scope(monkeypatch):
    # Past the lowered cap a quantifier is walked per cofactor, while the
    # atoms it reads are still widened by the binders above it.
    monkeypatch.setattr(semantics, "MAX_MASK_ATOMS", 8)
    f = nested_prefix(12)
    basis = free_atoms(f)
    assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)
    # The reference walks nested_prefix(18) 2^18 times; the kernel at its
    # own cap widens all 18 binders, so that is the mask to match.
    f = nested_prefix(18)
    basis = free_atoms(f)
    monkeypatch.setattr(semantics, "MAX_MASK_ATOMS", 12)
    narrow = formula_mask(f, basis)
    monkeypatch.undo()
    assert narrow == formula_mask(f, basis) == (1 << (1 << len(basis))) - 1


def test_random_quantifiers_per_cofactor_inside_a_widened_scope(monkeypatch):
    # Binders reuse free atoms' names and nest under their own name.
    monkeypatch.setattr(semantics, "MAX_MASK_ATOMS", 5)
    crossed = 0
    walk = semantics._mask

    def spy(g, values, full):
        nonlocal crossed
        crossed += isinstance(g, QUANT) and _walk_width(full) == 5
        return walk(g, values, full)

    monkeypatch.setattr(semantics, "_mask", spy)
    rng = random.Random(71)
    atoms = ("a", "b", "c", "d")
    seen = {"nest": 0, "reuses free": 0, "self nested": 0}
    for _ in range(300):
        f = random_formula(rng, atoms, depth=7, quant_pool=("a", "b", "q"), quant_prob=0.4)
        for shape in _binder_shapes(f, frozenset(free_atoms(f))):
            seen[shape] += 1
        assert formula_mask(f, atoms) == semantics_reference.formula_mask(f, atoms)
    assert min(seen.values()) >= 50, seen
    assert crossed >= 500, crossed


# The probe reports its peak RSS as VmHWM, in kB: on Linux a child's
# ru_maxrss also counts the peak of the process it was forked from, here
# the test run, while VmHWM starts afresh at exec.
_NEST_MEMORY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from boolsolve import is_valid, parse
q = 22
chain = " & ".join(f"(q{i} -> q{i + 1} | a{i % 4})" for i in range(q - 1))
assert is_valid(parse("".join(f"exists q{i} . " for i in range(q)) + chain))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_nest_does_not_widen_the_basis():
    # nested_prefix(22) over 4 atoms: the binders widen the masks, not
    # every atom of the scope at once, so the peak stays small.
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _NEST_MEMORY_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 100 * 1024


_NEST_TIME_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from boolsolve import free_atoms, parse
from boolsolve.semantics import formula_mask
q = 24
chain = " & ".join(f"(q{i} -> q{i + 1} | a{i % 4})" for i in range(q - 1))
f = parse("".join(f"exists q{i} . " for i in range(q)) + chain)
basis = free_atoms(f)
start = time.perf_counter()
mask = formula_mask(f, basis)
print(time.perf_counter() - start, mask == (1 << (1 << len(basis))) - 1)
"""


def test_per_cofactor_walks_keep_their_scope_reads(monkeypatch):
    # nested_prefix(24) over 4 atoms: the binders past the widening
    # width are walked per cofactor, and each of those walks reads an
    # atom through the widened scopes above once, not at every read.
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _NEST_TIME_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    seconds, valid = result.stdout.split()
    assert valid == "True"
    assert float(seconds) < 0.5, seconds
    # at a lowered cap, per-cofactor walks under widened scopes keep the
    # reads they make and still give the reference's masks
    monkeypatch.setattr(semantics, "MAX_MASK_ATOMS", 6)
    for q in (9, 11):
        f = nested_prefix(q)
        basis = free_atoms(f)
        assert formula_mask(f, basis) == semantics_reference.formula_mask(f, basis)
