"""Reference copy of the expression parser before its rewrite to tuple
tokens and one helper per grammar element: its tokenizer and recursive
descent, unchanged apart from absolute imports (rendering is left out)
and from how refusals name input text (``_quote``, restated here rather
than imported, so that the comparison also checks each call site).
``test_parser.TestReferenceParser`` checks that ``abelcheck.parser.parse``
builds an equal descriptor for every text this one accepts, and raises
ParseError with the same message and position for every text it rejects.
"""

from __future__ import annotations

from abelcheck.arith import factorize, is_prime
from abelcheck.characteristics import CHAR_Q, CHAR_Z, INF, Characteristic
from abelcheck.errors import ParseError
from abelcheck.groups import (
    OMEGA,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    Multiplicity,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
)

_SYMBOLS = set("+^(){}[]\\;:,_")
_DIGITS = set("0123456789")  # str.isdigit admits unicode digits int() rejects


def _quote(text: str, start: int) -> str:
    """Refused text that starts at ``start``: quoted up to 40 characters,
    otherwise named by its length and position."""
    return repr(text) if len(text) <= 40 else f"<{len(text)} characters at position {start}>"


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > 18:  # primes, exponents and multiplicities are human-scale
                raise ParseError("number literal too long", i)
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {_quote(ch, i)}", i)
    out.append(_Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind!r}, got {_quote(tok.text or 'end of input', tok.pos)}", tok.pos)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().pos)

    # -- grammar ------------------------------------------------------------

    def parse_group(self) -> GroupDescriptor:
        parts = list(self.parse_term())
        while self.peek().kind == "+":
            self.advance()
            parts.extend(self.parse_term())
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {_quote(tok.text, tok.pos)}", tok.pos)
        return GroupDescriptor(parts)

    def parse_term(self):
        part = self.parse_atom()
        mult: Multiplicity = 1
        if self.peek().kind == "^":
            self.advance()
            mult = self.parse_mult()
        if part is None:  # the zero group absorbs any multiplicity
            return []
        return [(part, mult)]

    def parse_mult(self) -> Multiplicity:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = int(tok.text)
            if value < 1:
                raise ParseError("multiplicity must be >= 1", tok.pos)
            return value
        if tok.kind == "ident" and tok.text == "omega":
            self.advance()
            return OMEGA
        raise ParseError("multiplicity must be an integer >= 1 or 'omega'", tok.pos)

    def parse_prime(self) -> int:
        tok = self.expect("num", "a prime")
        p = int(tok.text)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", tok.pos)
        return p

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            if tok.text == "0":
                self.advance()
                return None
            raise ParseError(f"unexpected number {_quote(tok.text, tok.pos)}; atoms start with Z, Q, R, tower or sum", tok.pos)
        if tok.kind != "ident":
            raise ParseError(f"expected an atom, got {_quote(tok.text or 'end of input', tok.pos)}", tok.pos)
        name = tok.text
        if name == "Z":
            self.advance()
            if self.peek().kind == "(":
                return self._parse_cyclic_tail()
            return RationalAtom(CHAR_Z)
        if name == "Q":
            self.advance()
            return RationalAtom(CHAR_Q)
        if name == "Q_":
            self.advance()
            self.expect("(")
            p = self.parse_prime()
            self.expect(")")
            return RationalAtom(Characteristic(INF, {p: 0}))
        if name == "R":
            self.advance()
            self.expect("(")
            char = self._parse_chardesc()
            self.expect(")")
            return RationalAtom(char)
        if name == "tower":
            self.advance()
            self.expect("(")
            p = self.parse_prime()
            self.expect(")")
            return TowerAtom(p)
        if name == "sum":
            return self._parse_family()
        raise ParseError(f"unknown atom {_quote(name, tok.pos)}", tok.pos)

    def _parse_cyclic_tail(self):
        self.expect("(")
        tok = self.expect("num", "a prime")
        p = int(tok.text)
        if not is_prime(p):
            hint = ""
            fac = factorize(p) if p > 1 else {}
            if len(fac) == 1:
                q, e = next(iter(fac.items()))
                hint = f"; must be Z({q}^{e})"
            raise ParseError(f"{p} is not prime{hint}", tok.pos)
        if self.peek().kind == ")":
            self.advance()
            return CyclicAtom(p, 1)
        self.expect("^")
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            self.advance()
            self.expect(")")
            return PruferAtom(p)
        tok = self.expect("num", "an exponent or 'inf'")
        n = int(tok.text)
        if n < 1:
            raise ParseError("cyclic exponent must be >= 1", tok.pos)
        self.expect(")")
        return CyclicAtom(p, n)

    def _parse_chardesc(self) -> Characteristic:
        tok = self.peek()
        if tok.kind == "num" and tok.text == "0":
            default = 0
            self.advance()
        elif tok.kind == "ident" and tok.text == "inf":
            default = INF
            self.advance()
        else:
            raise ParseError("characteristic must start with '0' or 'inf'", tok.pos)
        exceptions = {}
        while self.peek().kind in (";", ","):
            self.advance()
            ptok = self.expect("num", "a prime")
            p = int(ptok.text)
            if not is_prime(p):
                raise ParseError(f"{p} is not prime", ptok.pos)
            self.expect(":")
            htok = self.peek()
            if htok.kind == "ident" and htok.text == "inf":
                self.advance()
                h = INF
            else:
                htok = self.expect("num", "a height or 'inf'")
                h = int(htok.text)
            if p in exceptions and exceptions[p] != h:
                raise ParseError(f"conflicting heights for prime {p}", ptok.pos)
            exceptions[p] = h
        return Characteristic(default, exceptions)

    def _parse_family(self):
        self.advance()  # "sum"
        self.expect("{")
        vtok = self.expect("ident", "a prime variable")
        self.expect("}")
        self.expect("[")
        template, inner_mult = self._parse_template(vtok.text, _quote(vtok.text, vtok.pos))
        self.expect("]")
        excluded = []
        if self.peek().kind == "\\":
            self.advance()
            if self.peek().kind == "\\":  # tolerate a doubled backslash
                self.advance()
            self.expect("{")
            excluded.append(self.parse_prime())
            while self.peek().kind == ",":
                self.advance()
                excluded.append(self.parse_prime())
            self.expect("}")
        return PrimeFamily(template, inner_mult, excluded)

    def _parse_template(self, var: str, shown: str):
        tok = self.expect("ident", "'Z' or 'tower'")
        template = None
        if tok.text == "Z":
            self.expect("(")
            vtok = self.expect("ident", f"the bound variable {shown}")
            if vtok.text != var:
                raise ParseError(f"family template must use the bound variable {shown}", vtok.pos)
            self.expect("^")
            etok = self.peek()
            if etok.kind == "ident" and etok.text == "inf":
                self.advance()
                template = PruferAll()
            else:
                etok = self.expect("num", "an exponent or 'inf'")
                e = int(etok.text)
                if e < 1:
                    raise ParseError("family exponent must be >= 1", etok.pos)
                template = FixedExponent(e)
            self.expect(")")
        elif tok.text == "tower":
            self.expect("(")
            vtok = self.expect("ident", f"the bound variable {shown}")
            if vtok.text != var:
                raise ParseError(f"family template must use the bound variable {shown}", vtok.pos)
            self.expect(")")
            template = UnboundedTower()
        else:
            raise ParseError(f"family template must be Z({var}^...) or tower({var})", tok.pos)
        mult: Multiplicity = 1
        if self.peek().kind == "^":
            self.advance()
            mult = self.parse_mult()
        return template, mult


def parse(text: str) -> GroupDescriptor:
    """Parse an expression into a descriptor (see module grammar)."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0)
    return _Parser(text).parse_group()
