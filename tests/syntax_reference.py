"""Reference parser: the character-loop tokenizer and recursive-descent
parser that ``boolsolve.syntax`` replaced.

The package tokenizes with regular expressions and parses with an
iterative operator-precedence loop.  This module keeps the code it
replaced, so the differential tests can require the same formula, or a
``ParseError`` with the same message, line and column, on every ASCII
text.  Its identifiers are those of ``str.isalpha``/``str.isalnum``, so
it accepts non-ASCII letters that the package refuses; its recursion
bounds the nesting it can parse.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ParseError,
)
from boolsolve.syntax import RESERVED


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, true, false, exists, forall, (, ), ~, &, |, ->, <->, ., eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c == "<":
            if text.startswith("<->", i):
                tokens.append(_Token("<->", "<->", line, start_col))
                i += 3
                col += 3
                continue
            raise ParseError(f"unexpected character {c!r}", line, col)
        if c == "-":
            if text.startswith("->", i):
                tokens.append(_Token("->", "->", line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError(f"unexpected character {c!r}", line, col)
        if c in "()~&|.":
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if not c.islower():
                raise ParseError(
                    f"invalid identifier {word!r}: identifiers start with a lowercase letter",
                    line,
                    col,
                )
            kind = word if word in RESERVED else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek().kind == "<->":
            self.advance()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disjunction()
        if self.peek().kind == "->":
            self.advance()
            return Implies(f, self.implies())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return Not(self.unary())
        if tok.kind in ("exists", "forall"):
            self.advance()
            name = self.peek()
            if name.kind in RESERVED:
                raise ParseError(
                    f"reserved word {name.text!r} used as atom", name.line, name.col
                )
            var = self.expect("ident")
            self.expect(".")
            body = self.formula()  # maximal scope
            return (Exists if tok.kind == "exists" else Forall)(var.text, body)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.advance()
        if tok.kind == "true":
            return TOP
        if tok.kind == "false":
            return BOT
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.line, tok.col)


def parse(text: str) -> Formula:
    """Parse a formula as the package did before its iterative parser."""
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected {trailing.text!r} after formula", trailing.line, trailing.col
        )
    return f
