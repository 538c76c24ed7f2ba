"""Surface syntax for building lattices out of the standard constructors.

Grammar (whitespace insignificant, INT a signed decimal integer):

    expr := term { "+" term }
    term := [ INT "*" ] atom
    atom := "U" [ "(" INT ")" ] | "E8" [ "(" INT ")" ] | "<" INT ">"
          | "gram" "[" rows "]" | "(" expr ")"
    rows := row { ";" row }
    row  := INT { "," INT }

U(k) and E8(k) scale every Gram entry by k; <k> is the rank-1 lattice [k].
Syntax errors carry the byte offset and the expected-token set; semantic
errors (zero scale, non-symmetric Gram literal) carry the node offset.
Parentheses nest at most MAX_NESTING deep; the first "(" past it is an
error at its offset.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ExpressionError, PreconditionError
from .lattices import Lattice, _check_rank, direct_sum, e8, from_gram, hyperbolic_plane, rank_one
from .records import Record

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


# The atoms are Records, not tuples, so that atoms of different types are
# unequal: as tuples, UAtom(1, 0) would equal E8Atom(1, 0).


class UAtom(Record):
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int = 1, offset: int = 0):
        self._init(scale, offset)


class E8Atom(Record):
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int = 1, offset: int = 0):
        self._init(scale, offset)


class RankOneAtom(Record):
    __slots__ = ("entry", "offset")

    def __init__(self, entry: int = 0, offset: int = 0):
        self._init(entry, offset)


class GramAtom(Record):
    __slots__ = ("rows", "offset")

    def __init__(self, rows: tuple[tuple[int, ...], ...] = (), offset: int = 0):
        self._init(rows, offset)


class Term(NamedTuple):
    count: int
    atom: object
    offset: int = 0


class LatticeExpr(NamedTuple):
    terms: tuple[Term, ...] = ()


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def parse(self) -> LatticeExpr:
        terms = list(self.expr())
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.offset, ("+", "EOF"))
        return LatticeExpr(tuple(terms))

    def expr(self):
        terms = self.terms_of(self.term())
        while self.peek().kind == "+":
            self.take("+")
            terms.extend(self.terms_of(self.term()))
        return terms

    @staticmethod
    def terms_of(item):
        return list(item) if isinstance(item, list) else [item]

    def term(self):
        tok = self.peek()
        if tok.kind == "INT":
            count = self.take_int()
            self.take("*")
            atom = self.atom()
            if count < 1:
                raise ExpressionError(f"multiplier must be >= 1, got {count}", tok.offset)
            if isinstance(atom, list):
                return [Term(count * t.count, t.atom, t.offset) for t in atom]
            return Term(count, atom, tok.offset)
        atom = self.atom()
        if isinstance(atom, list):
            return atom
        return Term(1, atom, tok.offset)

    def atom(self):
        tok = self.peek()
        if tok.kind == "NAME":
            name = self.take("NAME")
            scale = 1
            if self.peek().kind == "(" and name.text in ("U", "E8"):
                self.take("(")
                scale = self.take_int()
                self.take(")")
            if name.text == "U":
                return UAtom(scale, name.offset)
            if name.text == "E8":
                return E8Atom(scale, name.offset)
            if name.text == "gram":
                self.take("[")
                rows = [self.row()]
                while self.peek().kind == ";":
                    self.take(";")
                    rows.append(self.row())
                self.take("]")
                return GramAtom(tuple(rows), name.offset)
            raise ExpressionError(
                f"unknown constructor {name.text!r}", name.offset, ("U", "E8", "gram")
            )
        if tok.kind == "<":
            self.take("<")
            entry = self.take_int()
            self.take(">")
            return RankOneAtom(entry, tok.offset)
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


def parse_expr(text: str) -> LatticeExpr:
    return _Parser(text).parse()


def _atom_lattice(atom) -> Lattice:
    """The lattice of one atom; a constructor's rejection (zero scale or
    entry, a non-square, non-symmetric or singular Gram literal, a cap)
    becomes an `ExpressionError` at the atom's offset."""
    prefix = "bad gram literal: " if isinstance(atom, GramAtom) else ""
    try:
        if isinstance(atom, UAtom):
            return hyperbolic_plane(atom.scale)
        if isinstance(atom, E8Atom):
            return e8(atom.scale)
        if isinstance(atom, RankOneAtom):
            return rank_one(atom.entry)
        if isinstance(atom, GramAtom):
            return from_gram(atom.rows)
    except PreconditionError as exc:
        raise ExpressionError(f"{prefix}{exc}", atom.offset) from None
    raise ExpressionError(f"unknown atom {atom!r}", 0)  # pragma: no cover


def evaluate(expr: LatticeExpr) -> Lattice:
    pieces = [(_atom_lattice(term.atom), term.count) for term in expr.terms]
    if not pieces:
        raise ExpressionError("empty expression", 0)
    # the rank cap is checked on the counts, before any copies are listed
    _check_rank(sum(piece.rank * count for piece, count in pieces))
    return direct_sum(*(piece for piece, count in pieces for _ in range(count)))


def lattice_from_text(text: str) -> Lattice:
    return evaluate(parse_expr(text))
