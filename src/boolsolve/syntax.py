"""Concrete formula syntax: tokenizer, parser and printer.

Grammar, loosest to tightest: ``<->`` (left-assoc), ``->`` (right-assoc),
``|``, ``&``, prefix ``~``, then atoms / ``true`` / ``false`` / parens.
``exists <id> . F`` and ``forall <id> . F`` extend maximally to the
right.  ``#`` starts a comment to end of line.

The tokenizer is one ``findall`` of a regex matching only tokens and
comments, exact when the tokens join to the text less its blanks; only
a text with a comment or a bad character is walked again, to drop the
comments or find the first bad character.

For a text with no quantifier the parser's table of atoms is the set of
free atoms; ``_parse`` hands them over, sorted, so that a problem file's
formula is not walked again for them.
"""

from __future__ import annotations

import re

from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    AtomSet,
    Bot,
    BoolsolveError,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)

RESERVED = frozenset({"true", "false", "exists", "forall"})


class ParseError(BoolsolveError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# Identifiers are ASCII; the problem-file reader checks names with the
# same rule.
IDENTIFIER = r"[a-z][A-Za-z0-9_]*"
# A match is a token, in group 1, or a comment.  Blanks match nothing.
_TOKEN = re.compile(rf"#[^\n]*|(<->|->|[()~&|.]|{IDENTIFIER})")
_BLANK = " \t\r\n"
_BLANKS = str.maketrans("", "", _BLANK)
_UPPER_WORD = re.compile(r"[A-Z][A-Za-z0-9_]*")

# Operator stack entries: (precedence, constructor) for operators, plus
# the bound name for quantifiers.  An incoming binary operator reduces
# the entries whose precedence reaches its threshold; "->" is right
# associative, so its threshold is one above its own precedence.  A
# quantifier's entry is reduced only at its ")" or the end of input, so
# its body extends as far right as possible.
_OPEN = (-1,)
_NOT = (5, Not)
_BINARY = {  # token: (threshold, stack entry)
    "<->": (1, (1, Iff)),
    "->": (3, (2, Implies)),
    "|": (3, (3, Or)),
    "&": (4, (4, And)),
}
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_CONSTANTS = {"true": TOP, "false": BOT}
_NOT_ATOM = frozenset({"", "<->", "->", "(", ")", "~", "&", "|", "."}) | RESERVED


def _position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lexical_error(text: str, offset: int) -> ParseError:
    word = _UPPER_WORD.match(text, offset)
    if word:
        message = (
            f"invalid identifier {word.group()!r}: identifiers start with a lowercase letter"
        )
    else:
        message = f"unexpected character {text[offset]!r}"
    return ParseError(message, *_position(text, offset))


def _syntax_error(text: str, tokens: list[str], index: int, message: str) -> ParseError:
    """The error ``message`` at ``tokens[index]``; the end of input sits
    after the last token and whitespace, or at a comment ending the text."""
    if tokens[index]:
        offset = [m.start() for m in _TOKEN.finditer(text) if m.lastindex][index]
    else:
        offset = text.find("#", text.rfind("\n") + 1)
        if offset < 0:
            offset = len(text)
    return ParseError(message, *_position(text, offset))


def _shown(token: str) -> str:
    return repr(token or "end of input")


def _tokens(text: str) -> list[str]:
    """The tokens of a text with a comment or a bad character, less its
    comments; the first bad character raises a ``ParseError``."""
    tokens, end = [], 0
    for m in _TOKEN.finditer(text):
        if text[end : m.start()].strip(_BLANK):
            break
        if m.lastindex:
            tokens.append(m[1])
        end = m.end()
    rest = text[end:].lstrip(_BLANK)
    if rest:
        raise _lexical_error(text, len(text) - len(rest))
    return tokens


def parse(text: str) -> Formula:
    """Parse a formula, resolving precedence and quantifier scope."""
    return _parse(text)[0]


def _parse(text: str) -> tuple[Formula, AtomSet | None]:
    """``parse``'s formula and, if the text has no quantifier, its free atoms."""
    tokens = _TOKEN.findall(text)
    # No token holds a blank and a comment yields "", so this holds
    # exactly when every other character lies in a token.
    if "".join(tokens) != text.translate(_BLANKS):
        tokens = _tokens(text)
    tokens.append("")  # end of input
    atoms: dict[str, Atom] = {}  # one node per name; nodes are immutable
    lefts: list[Formula] = []  # the left operands of pending binary operators
    ops: list[tuple] = []
    quantified = False
    i = 0
    while True:
        # An operand: prefix operators and quantifiers, then an atom, a
        # constant or an opening parenthesis.
        token = tokens[i]
        i += 1
        if token == "~":
            ops.append(_NOT)
            continue
        if token == "(":
            ops.append(_OPEN)
            continue
        if token in _QUANTIFIERS:
            var = tokens[i]
            if var in RESERVED:
                raise _syntax_error(text, tokens, i, f"reserved word {var!r} used as atom")
            if var in _NOT_ATOM:
                raise _syntax_error(text, tokens, i, f"expected 'ident', found {_shown(var)}")
            if tokens[i + 1] != ".":
                found = _shown(tokens[i + 1])
                raise _syntax_error(text, tokens, i + 1, f"expected '.', found {found}")
            ops.append((0, _QUANTIFIERS[token], var))
            quantified = True
            i += 2
            continue
        if token in _CONSTANTS:
            operand = _CONSTANTS[token]
        elif token not in _NOT_ATOM:
            operand = atoms.get(token) or atoms.setdefault(token, Atom(token))
        else:
            raise _syntax_error(text, tokens, i - 1, f"unexpected {_shown(token)}")
        # Closing parentheses, then a binary operator or the end of input.
        while True:
            token = tokens[i]
            i += 1
            binary = _BINARY.get(token)
            threshold = binary[0] if binary else 0
            while ops and ops[-1][0] >= threshold:
                entry = ops.pop()
                if entry[0] == 5:
                    operand = Not(operand)
                elif entry[0] == 0:
                    operand = entry[1](entry[2], operand)
                else:
                    operand = entry[1](lefts.pop(), operand)
            if binary:
                lefts.append(operand)
                ops.append(binary[1])
                break
            if token == ")" and ops:
                ops.pop()
                continue
            if not token and not ops:
                return operand, None if quantified else tuple(sorted(atoms))
            if ops:
                message = f"expected ')', found {_shown(token)}"
            else:
                message = f"unexpected {token!r} after formula"
            raise _syntax_error(text, tokens, i - 1, message)


# Each binary node prints as left, operator, right: its precedence, its
# text, and the least precedence each operand prints unparenthesized at.
# Quantifiers print at precedence 0 so they are parenthesized whenever
# nested under an operator; their body never needs parentheses because
# the parsed scope is maximal.
_INFIX = {
    And: (4, " & ", 4, 5),
    Or: (3, " | ", 3, 4),
    Implies: (2, " -> ", 3, 2),
    Iff: (1, " <-> ", 1, 2),
}


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(format_formula(f)) == f``."""

    def render(g: Formula, minimum: int) -> str:
        # g's text, parenthesized when it binds looser than ``minimum``
        t = type(g)
        if t is Atom:
            return g.name
        infix = _INFIX.get(t)
        if infix is not None:
            precedence, operator, left, right = infix
            s = f"{render(g.left, left)}{operator}{render(g.right, right)}"
        elif t is Not:
            precedence, s = 5, "~" + render(g.operand, 5)
        elif t is Top:
            return "true"
        elif t is Bot:
            return "false"
        elif t is Exists or t is Forall:
            word = "exists" if t is Exists else "forall"
            precedence, s = 0, f"{word} {g.var} . {render(g.body, 0)}"
        else:
            raise TypeError(f"not a formula: {g!r}")
        return f"({s})" if precedence < minimum else s

    return render(f, 0)
