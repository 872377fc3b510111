"""Reference recursive-descent parser for `mmv.syntax.parse`.

One method per precedence level, each naming its connective, as
`mmv.syntax` parsed before its parser read the printer's precedence table.
It shares the tokenizer and the node types, and consumes the tokens in the
same order, so it returns the same trees and raises the same ParseError
(message and position) on every input.
"""

from __future__ import annotations

from mmv.syntax import (
    ONE,
    ZERO,
    Box,
    Dia,
    Formula,
    Impl,
    Join,
    Meet,
    Not,
    Oplus,
    ParseError,
    Star,
    Var,
    _tokenize,
    equiv,
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def _advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][2]
        return len(self.text)

    def parse(self) -> Formula:
        formula = self._equiv()
        if self.index != len(self.tokens):
            kind, text, pos = self.tokens[self.index]
            raise ParseError(f"unexpected {text!r} after formula", pos)
        return formula

    def _equiv(self) -> Formula:
        left = self._impl()
        if self._peek() == "equiv":
            self._advance()
            right = self._impl()
            return equiv(left, right)
        return left

    def _impl(self) -> Formula:
        left = self._join()
        if self._peek() == "impl":
            self._advance()
            return Impl(left, self._impl())
        return left

    def _join(self) -> Formula:
        formula = self._meet()
        while self._peek() == "join":
            self._advance()
            formula = Join(formula, self._meet())
        return formula

    def _meet(self) -> Formula:
        formula = self._oplus()
        while self._peek() == "meet":
            self._advance()
            formula = Meet(formula, self._oplus())
        return formula

    def _oplus(self) -> Formula:
        formula = self._star()
        while self._peek() == "oplus":
            self._advance()
            formula = Oplus(formula, self._star())
        return formula

    def _star(self) -> Formula:
        formula = self._unary()
        while self._peek() == "star":
            self._advance()
            formula = Star(formula, self._unary())
        return formula

    def _unary(self) -> Formula:
        kind = self._peek()
        if kind == "not":
            self._advance()
            return Not(self._unary())
        if kind == "box":
            self._advance()
            return Box(self._unary())
        if kind == "dia":
            self._advance()
            return Dia(self._unary())
        return self._atom()

    def _atom(self) -> Formula:
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of input", self._position())
        kind, text, pos = self._advance()
        if kind == "const":
            return ZERO if text == "0" else ONE
        if kind == "ident":
            return Var(text)
        if kind == "lparen":
            formula = self._equiv()
            if self._peek() != "rparen":
                raise ParseError("expected ')'", self._position())
            self._advance()
            return formula
        raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str) -> Formula:
    return _Parser(text).parse()
