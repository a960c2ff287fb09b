import random

import pytest

from boolsolve import (
    And,
    Atom,
    BOT,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TOP,
    ParseError,
    format_formula,
    parse,
)
from genutil import QUANT_POOL, random_formula
import syntax_reference

a, b, c, p = Atom("a"), Atom("b"), Atom("c"), Atom("p")


def test_precedence_and_over_implies():
    assert parse("a & b -> c") == Implies(And(a, b), c)


def test_precedence_chain():
    assert parse("a | b & c") == Or(a, And(b, c))
    assert parse("a <-> b -> c") == Iff(a, Implies(b, c))
    assert parse("~a & b") == And(Not(a), b)


def test_implies_right_assoc():
    assert parse("a -> b -> c") == Implies(a, Implies(b, c))


def test_iff_left_assoc():
    assert parse("a <-> b <-> c") == Iff(Iff(a, b), c)


def test_quantifier_maximal_scope():
    assert parse("exists p . p <-> a") == Exists("p", Iff(p, a))
    assert parse("forall p . p & a | b") == Forall("p", Or(And(p, a), b))
    assert parse("a & (exists p . p) | b") == Or(And(a, Exists("p", p)), b)


def test_constants_and_parens():
    assert parse("true & ~false") == And(TOP, Not(BOT))
    assert parse("(a)") == a


def test_comments_and_whitespace():
    text = "a &  # trailing comment\n  b # another\n"
    assert parse(text) == And(a, b)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("a -> -> b")
    assert info.value.line == 1
    assert info.value.col == 6


def test_reserved_word_as_atom_rejected():
    with pytest.raises(ParseError):
        parse("exists true . a")
    with pytest.raises(ParseError):
        parse("a & exists")


def test_uppercase_identifier_rejected():
    with pytest.raises(ParseError):
        parse("Abc")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("a b")


def test_unbalanced_paren_rejected():
    with pytest.raises(ParseError):
        parse("(a & b")


def test_printing_examples():
    assert format_formula(Implies(And(a, b), c)) == "a & b -> c"
    assert format_formula(Not(Iff(a, b))) == "~(a <-> b)"
    assert format_formula(Exists("p", p)) == "exists p . p"
    assert format_formula(And(a, Exists("p", p))) == "a & (exists p . p)"
    assert format_formula(Implies(Implies(a, b), c)) == "(a -> b) -> c"
    assert format_formula(Iff(a, Iff(b, c))) == "a <-> (b <-> c)"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng, ("a", "b", "c"), depth=5, quant_pool=QUANT_POOL)
        assert parse(format_formula(f)) == f


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def test_parser_matches_reference():
    # Printed random formulas, quantified ones included, and texts one
    # character inserted into or deleted from them: the parser gives the
    # reference parser's formula, or its error at the same position.
    rng = random.Random(11)
    inserted = "()~&|.-<>#\n aAz"
    texts = []
    for _ in range(1000):
        f = random_formula(rng, ("a", "b", "c"), rng.randint(0, 6), QUANT_POOL, 0.3)
        text = format_formula(f)
        texts.append(text)
        for _ in range(5):
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                texts.append(text[:at] + text[at + 1:])
            else:
                texts.append(text[:at] + rng.choice(inserted) + text[at:])
    # the end of input sits where a comment ending the text starts
    texts += ["", "a &  # comment", "a &\n  # comment", "(a\n#", "a &\n  ", "a\t\r\n->"]
    # comments with blanks in them, and straight after an operator or "("
    texts += ["a & # x y\n b", "a &# c\nb", "a|#\nb", "a ->#c\n b", "a<->#\nb", "~#\na"]
    texts += ["(# c\na)", "(#\n(a | b))", "exists q .# c\n q", "a #\t\r x\n& b # end"]
    # form feed and vertical tab are not blanks; "-", "<" and "<-" are no tokens
    texts += ["a\f& b", "a &\vb", "\f", "\va", "a # \f\n\v"]
    texts += ["-", "<", "<-", "a - b", "a < b", "a <- b", "a -", "a <", "a\n<-\nb"]
    errors = 0
    for text in texts:
        expected = _outcome(syntax_reference.parse, text)
        assert _outcome(parse, text) == expected, repr(text)
        errors += isinstance(expected, tuple)
    assert len(texts) >= 5000
    assert 1000 <= errors <= len(texts) - 1000


def _chains(n):
    """Texts made of ``~`` and ``(`` chains n long, each with its outcome:
    the number of ``Not`` nodes above the atom it parses to, and that
    atom, or the error the reference parser gives."""
    eoi = "unexpected 'end of input'"
    return [
        ("~" * n + "a", (n, a)),
        ("~ " * n + "a # c", (n, a)),
        ("(" * n + "a" + ")" * n, (0, a)),
        ("(\n" * n + "a #\n" + ")" * n, (0, a)),
        ("~(" * n + "a" + ")" * n, (n, a)),
        ("~" * n, (f"1:{n + 1}: {eoi}", 1, n + 1)),
        ("(" * n, (f"1:{n + 1}: {eoi}", 1, n + 1)),
        ("(" * n + "a", (f"1:{n + 2}: expected ')', found 'end of input'", 1, n + 2)),
        ("(" * n + "a" + ")" * (n + 1), (f"1:{2 * n + 2}: unexpected ')' after formula", 1, 2 * n + 2)),
        ("~" * n + "a\f", (f"1:{n + 2}: unexpected character '\\x0c'", 1, n + 2)),
    ]


def _unwrapped(outcome):
    # The number of Not nodes above the rest, and the rest; an error as it is.
    if isinstance(outcome, tuple):
        return outcome
    depth = 0
    while isinstance(outcome, Not):
        outcome, depth = outcome.operand, depth + 1
    return depth, outcome


def test_long_chains_match_reference():
    # The reference parser recurses once per "~" and several times per
    # "(", so it checks the outcomes at a depth it reaches, and the
    # parser must give them at 10^5.
    for text, outcome in _chains(100):
        assert _unwrapped(_outcome(syntax_reference.parse, text)) == outcome, text
    for n in (100, 10**5):
        for text, outcome in _chains(n):
            assert _unwrapped(_outcome(parse, text)) == outcome, text[:20]


def test_deep_nesting_parses():
    f = parse("~" * 100000 + "a")
    depth = 0
    while isinstance(f, Not):
        f, depth = f.operand, depth + 1
    assert (depth, f) == (100000, a)
    assert parse("(" * 50000 + "a" + ")" * 50000) == a
    with pytest.raises(ParseError, match="expected '\\)', found 'end of input'"):
        parse("(" * 50000 + "a")


def test_identifiers_are_ascii():
    for text, col in (("é & a", 1), ("a² | b", 2), ("ßeta", 1), ("a & bé", 6)):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse(text)
        assert (info.value.line, info.value.col) == (1, col)
    with pytest.raises(ParseError) as info:
        parse("a |\n  Beta")
    assert str(info.value) == (
        "2:3: invalid identifier 'Beta': identifiers start with a lowercase letter"
    )


def test_parser_hands_over_the_free_atoms_of_quantifier_free_text():
    # _parse gives parse's formula, and with it, whenever the text has no
    # quantifier, the formula's free atoms, sorted.
    from boolsolve.formula import free_atoms
    from boolsolve.syntax import _parse

    rng = random.Random(2801)
    handed = 0
    for pool in ((), QUANT_POOL):
        for _ in range(1000):
            f = random_formula(rng, ("a", "b", "c", "p1"), rng.randint(0, 6), pool, 0.3)
            text = format_formula(f)
            formula, free = _parse(text)
            assert formula == parse(text) == f
            if free is not None:
                handed += 1
                assert free == free_atoms(f)
            assert (free is None) == ("exists" in text or "forall" in text)
    assert handed >= 1200
