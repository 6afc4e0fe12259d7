"""Concrete syntax for dependency expressions.

The paper assumes a graphical front-end translated into the algebra
(Section 3); this module provides the textual equivalent so examples
and tests can state dependencies exactly as the paper writes them:

* ``~e``          -- the complement of ``e`` (the paper's overline);
* ``e . f``       -- sequence (the paper's center dot);
* ``e + f``       -- choice;
* ``e | f``       -- conjunction;
* ``0`` / ``T``   -- the constants;
* ``e[cid]``      -- a parametrized event with variable ``cid``;
* ``e[‹lit›]``    -- quoted/int literals as parameters, e.g. ``e['c1', 3]``.

Precedence, loosest to tightest: ``+``, then ``|``, then ``.``, then
the prefix ``~``.  Parentheses group.  Klein's ``D_<`` is therefore
written ``"~e + ~f + e . f"`` and ``D_->`` as ``"~e + f"``.
"""

from __future__ import annotations

import re

from repro.algebra.expressions import Atom, Choice, Conj, Expr, Seq, TOP, ZERO
from repro.algebra.symbols import Event, Variable


class ParseError(ValueError):
    """Raised when a dependency string is not well-formed."""


_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<lparen>\() |
        (?P<rparen>\)) |
        (?P<lbrack>\[) |
        (?P<rbrack>\]) |
        (?P<comma>,) |
        (?P<plus>\+) |
        (?P<bar>\|) |
        (?P<dot>[.·]) |
        (?P<tilde>~) |
        (?P<string>'[^']*'|"[^"]*") |
        (?P<number>-?\d+) |
        (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].lstrip()
            if not remainder:
                break
            raise ParseError(f"unexpected character at {pos}: {remainder[:10]!r}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> tuple[str, str]:
        return self._tokens[self._index]

    def _next(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        if token[0] == "end":
            raise ParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        actual_kind, value = self._next()
        if actual_kind != kind:
            raise ParseError(f"expected {kind}, found {actual_kind} {value!r}")
        return value

    # expr := conj ('+' conj)*
    def parse_expr(self) -> Expr:
        parts = [self.parse_conj()]
        while self._peek()[0] == "plus":
            self._next()
            parts.append(self.parse_conj())
        return Choice.of(parts) if len(parts) > 1 else parts[0]

    # conj := seq ('|' seq)*
    def parse_conj(self) -> Expr:
        parts = [self.parse_seq()]
        while self._peek()[0] == "bar":
            self._next()
            parts.append(self.parse_seq())
        return Conj.of(parts) if len(parts) > 1 else parts[0]

    # seq := unary ('.' unary)*
    def parse_seq(self) -> Expr:
        parts = [self.parse_unary()]
        while self._peek()[0] == "dot":
            self._next()
            parts.append(self.parse_unary())
        return Seq.of(parts) if len(parts) > 1 else parts[0]

    # unary := '~' unary | '(' expr ')' | constant | atom
    def parse_unary(self) -> Expr:
        kind, value = self._peek()
        if kind == "tilde":
            self._next()
            inner = self.parse_unary()
            if not isinstance(inner, Atom):
                raise ParseError("~ (complement) applies to event atoms only")
            return Atom(inner.event.complement)
        if kind == "lparen":
            self._next()
            inner = self.parse_expr()
            self._expect("rparen")
            return inner
        if kind == "number" and value == "0":
            self._next()
            return ZERO
        if kind == "name":
            if value == "T":
                self._next()
                return TOP
            return self.parse_atom()
        if kind == "end":
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {value!r}")

    def parse_atom(self) -> Atom:
        name = self._expect("name")
        params: list = []
        if self._peek()[0] == "lbrack":
            self._next()
            if self._peek()[0] != "rbrack":
                params.append(self._parse_param())
                while self._peek()[0] == "comma":
                    self._next()
                    params.append(self._parse_param())
            self._expect("rbrack")
        return Atom(Event(name, params=tuple(params)))

    def _parse_param(self):
        kind, value = self._next()
        if kind == "name":
            return Variable(value)
        if kind == "number":
            return int(value)
        if kind == "string":
            return value[1:-1]
        raise ParseError(f"bad parameter token {value!r}")


def parse(text: str) -> Expr:
    """Parse a dependency string into an event expression.

    >>> parse("~e + f")
    f + ~e
    >>> parse("~e + ~f + e . f")
    e . f + ~e + ~f
    """
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser._peek()[0] != "end":
        kind, value = parser._peek()
        raise ParseError(f"trailing input at token {value!r}")
    return expr
