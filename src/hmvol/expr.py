"""Surface syntax for building lattices out of the standard constructors.

Grammar (whitespace insignificant, INT a signed decimal integer):

    expr := term { "+" term }
    term := [ INT "*" ] atom
    atom := "U" [ "(" INT ")" ] | "E8" [ "(" INT ")" ] | "<" INT ">"
          | "gram" "[" rows "]" | "(" expr ")"
    rows := row { ";" row }
    row  := INT { "," INT }

U(k) and E8(k) scale every Gram entry by k; <k> is the rank-1 lattice [k].
An atom parses straight to its constructor call: a `Term` holds the
constructor (`hyperbolic_plane`, `e8`, `rank_one` or `from_gram`), its
argument, the repetition count and the atom's offset.  `evaluate` makes the
calls only once the whole text has parsed, so a syntax error anywhere is
reported before a constructor's rejection.  Syntax errors carry the byte
offset and the expected-token set; semantic errors (zero scale,
non-symmetric Gram literal) carry the atom's offset.
Parentheses nest at most MAX_NESTING deep; the first "(" past it is an
error at its offset.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import ExpressionError, PreconditionError
from .lattices import Lattice, direct_sum_of_copies, e8, from_gram, hyperbolic_plane, rank_one

_PUNCT = ("+", "*", "(", ")", "<", ">", "[", "]", ",", ";")
# parentheses nested deeper than this are refused: each level is three
# frames of the recursive-descent parser
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str  # INT, NAME, one of _PUNCT, EOF
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(Token(c, c, i))
            i += 1
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i, ("INT", "NAME") + _PUNCT)
    tokens.append(Token("EOF", "", n))
    return tokens


class Term(NamedTuple):
    """`count` copies of the lattice `build(arg)`: `build` is the constructor
    the atom names (`hyperbolic_plane`, `e8`, `rank_one` or `from_gram`),
    `arg` its scale, entry or rows, and `offset` the atom's byte offset."""

    count: int
    build: Callable[..., Lattice]
    arg: object
    offset: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open around the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ExpressionError(f"unexpected token {tok.text or 'end of input'!r}", tok.offset, (kind,))
        self.pos += 1
        return tok

    def take_int(self) -> int:
        tok = self.take("INT")
        try:
            return int(tok.text)
        except ValueError:  # over the interpreter's limit on digits
            raise ExpressionError(f"integer literal of {len(tok.text)} characters is too long",
                                  tok.offset) from None

    def parse(self) -> tuple[Term, ...]:
        terms = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.offset, ("+", "EOF"))
        return tuple(terms)

    def expr(self) -> list[Term]:
        terms = self.term()
        while self.peek().kind == "+":
            self.take("+")
            terms += self.term()
        return terms

    def term(self) -> list[Term]:
        tok = self.peek()
        if tok.kind != "INT":
            return self.atom()
        count = self.take_int()
        self.take("*")
        terms = self.atom()
        if count < 1:
            raise ExpressionError(f"multiplier must be >= 1, got {count}", tok.offset)
        return [t._replace(count=count * t.count) for t in terms]

    def atom(self) -> list[Term]:
        # the constructors are read from the module's globals at each call,
        # not from a table built at import, so a rebinding of them (as
        # hmbench's tracer makes) is seen
        tok = self.peek()
        if tok.kind == "NAME":
            self.take("NAME")
            if tok.text in ("U", "E8"):
                scale = 1
                if self.peek().kind == "(":
                    self.take("(")
                    scale = self.take_int()
                    self.take(")")
                return [Term(1, hyperbolic_plane if tok.text == "U" else e8, scale, tok.offset)]
            if tok.text == "gram":
                self.take("[")
                rows = [self.row()]
                while self.peek().kind == ";":
                    self.take(";")
                    rows.append(self.row())
                self.take("]")
                return [Term(1, from_gram, tuple(rows), tok.offset)]
            raise ExpressionError(
                f"unknown constructor {tok.text!r}", tok.offset, ("U", "E8", "gram")
            )
        if tok.kind == "<":
            self.take("<")
            entry = self.take_int()
            self.take(">")
            return [Term(1, rank_one, entry, tok.offset)]
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionError(f"parentheses nested deeper than {MAX_NESTING}", tok.offset)
            self.take("(")
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise ExpressionError(
            f"unexpected token {tok.text or 'end of input'!r}", tok.offset, ("INT", "NAME", "<", "(")
        )

    def row(self) -> tuple[int, ...]:
        entries = [self.take_int()]
        while self.peek().kind == ",":
            self.take(",")
            entries.append(self.take_int())
        return tuple(entries)


def parse_expr(text: str) -> tuple[Term, ...]:
    return _Parser(text).parse()


def evaluate(terms: tuple[Term, ...]) -> Lattice:
    """The direct sum of the terms.  A constructor's rejection (zero scale or
    entry, a non-square, non-symmetric or singular Gram literal, a cap)
    becomes an `ExpressionError` at the atom's offset; the rank cap is
    checked on the counts, before any copy is made."""
    pieces = []
    for t in terms:
        try:
            pieces.append((t.build(t.arg), t.count))
        except PreconditionError as exc:
            prefix = "bad gram literal: " if t.build is from_gram else ""
            raise ExpressionError(f"{prefix}{exc}", t.offset) from None
    return direct_sum_of_copies(*pieces)


def lattice_from_text(text: str) -> Lattice:
    return evaluate(parse_expr(text))
