"""Text grammar for group descriptors, and rendering back to text.

    group    := term ("+" term)* | "0"
    term     := atom ("^" mult)?
    atom     := "Z" | "Q" | "Z(" p ")" | "Z(" p "^" n ")" | "Z(" p "^inf)"
              | "Q_(" p ")" | "R(" chardesc ")" | "tower(" p ")"
              | "sum{" var "}" "[" template ("^" mult)? "]" ("\\" "{" p-list "}")?
    template := "Z(" var "^" n ")" | "Z(" var "^inf)" | "tower(" var ")"
    mult     := integer >= 1 | "omega"
    chardesc := ("0"|"inf") ((";"|",") p ":" (n|"inf"))*

Whitespace is insignificant.  "Z(p)" abbreviates "Z(p^1)"; composite
moduli are rejected rather than factored (the finite-oracle strings
like "Z4 x Z2" are a separate grammar that does factor).  "0" denotes
the zero group so that rendering is total.  Every failure raises
ParseError with the offending position; no input crashes the parser.
The whole text is scanned into (kind, text, position) tuples before
parsing starts, so a bad character anywhere is reported first.
"""

from __future__ import annotations

from .arith import is_prime
from .characteristics import CHAR_Q, CHAR_Z, INF, Characteristic, height_to_text, localization_char
from .errors import ParseError
from .groups import (
    OMEGA,
    CanonicalGroup,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    LocalShape,
    Multiplicity,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    mult_to_json,
)

_SYMBOLS = set("+^(){}[]\\;:,_")
_DIGITS = set("0123456789")  # str.isdigit admits unicode digits int() rejects


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > 18:  # primes, exponents and multiplicities are human-scale
                raise ParseError("number literal too long", i)
            kind = "num"
        elif ch.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "ident"
        elif ch in _SYMBOLS:
            kind = ch
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        out.append((kind, text[i:j], i))
        i = j
    out.append(("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def accept(self, kind: str, text: str | None = None) -> tuple[str, str, int] | None:
        """Consume and return the next token if it has this kind (and text)."""
        tok = self.tokens[self.index]
        if tok[0] != kind or (text is not None and tok[1] != text):
            return None
        self.index += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.accept(kind)
        if tok is None:
            _, text, pos = self.peek()
            raise ParseError(f"expected {what or kind!r}, got {text or 'end of input'!r}", pos)
        return tok

    # -- grammar elements ---------------------------------------------------

    def prime(self, hint: bool = False) -> int:
        """A prime literal; with ``hint``, a prime power q^e is told to be Z(q^e)."""
        _, text, pos = self.expect("num", "a prime")
        p = int(text)
        if is_prime(p):
            return p
        message = f"{p} is not prime"
        for e in range(2, p.bit_length()) if hint else ():
            q = round(p ** (1 / e))  # p has at most 18 digits: the float root rounds to q
            if q**e == p and is_prime(q):
                message += f"; must be Z({q}^{e})"
                break
        raise ParseError(message, pos)

    def exponent(self, what: str):
        """The n >= 1 or "inf" (INF) after the "^" of Z(p^...) or Z(var^...)."""
        if self.accept("ident", "inf"):
            return INF
        _, text, pos = self.expect("num", "an exponent or 'inf'")
        if int(text) < 1:
            raise ParseError(f"{what} exponent must be >= 1", pos)
        return int(text)

    def mult(self) -> Multiplicity:
        """The optional "^" mult of a term or template; 1 when absent."""
        if not self.accept("^"):
            return 1
        kind, text, pos = self.peek()
        if kind == "num":
            self.index += 1
            if int(text) < 1:
                raise ParseError("multiplicity must be >= 1", pos)
            return int(text)
        if self.accept("ident", "omega"):
            return OMEGA
        raise ParseError("multiplicity must be an integer >= 1 or 'omega'", pos)

    def bound_variable(self, var: str) -> None:
        _, text, pos = self.expect("ident", f"the bound variable {var!r}")
        if text != var:
            raise ParseError(f"family template must use the bound variable {var!r}", pos)

    # -- grammar ------------------------------------------------------------

    def group(self) -> GroupDescriptor:
        parts = []
        while True:
            part = self.atom()
            mult = self.mult()
            if part is not None:  # the zero group absorbs any multiplicity
                parts.append((part, mult))
            if not self.accept("+"):
                break
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return GroupDescriptor(parts)

    def atom(self):
        kind, name, pos = self.peek()
        if kind == "num":
            if name == "0":
                self.index += 1
                return None
            raise ParseError(f"unexpected number {name!r}; atoms start with Z, Q, R, tower or sum", pos)
        if kind != "ident":
            raise ParseError(f"expected an atom, got {name or 'end of input'!r}", pos)
        self.index += 1
        if name == "Z":
            if not self.accept("("):
                return RationalAtom(CHAR_Z)
            p = self.prime(hint=True)
            if self.accept(")"):
                return CyclicAtom(p, 1)
            self.expect("^")
            n = self.exponent("cyclic")
            self.expect(")")
            return PruferAtom(p) if n is INF else CyclicAtom(p, n)
        if name == "Q":
            return RationalAtom(CHAR_Q)
        if name in ("Q_", "tower", "R"):
            self.expect("(")
            if name == "R":
                part = RationalAtom(self.chardesc())
            elif name == "tower":
                part = TowerAtom(self.prime())
            else:
                part = RationalAtom(localization_char(self.prime()))
            self.expect(")")
            return part
        if name == "sum":
            return self.family()
        raise ParseError(f"unknown atom {name!r}", pos)

    def chardesc(self) -> Characteristic:
        if self.accept("num", "0"):
            default = 0
        elif self.accept("ident", "inf"):
            default = INF
        else:
            raise ParseError("characteristic must start with '0' or 'inf'", self.peek()[2])
        exceptions = {}
        while self.accept(";") or self.accept(","):
            pos = self.peek()[2]
            p = self.prime()
            self.expect(":")
            h = INF if self.accept("ident", "inf") else int(self.expect("num", "a height or 'inf'")[1])
            if exceptions.setdefault(p, h) != h:
                raise ParseError(f"conflicting heights for prime {p}", pos)
        return Characteristic(default, exceptions)

    def family(self) -> PrimeFamily:
        self.expect("{")
        var = self.expect("ident", "a prime variable")[1]
        self.expect("}")
        self.expect("[")
        _, name, pos = self.expect("ident", "'Z' or 'tower'")
        if name not in ("Z", "tower"):
            raise ParseError(f"family template must be Z({var}^...) or tower({var})", pos)
        self.expect("(")
        self.bound_variable(var)
        if name == "tower":
            template = UnboundedTower()
        else:
            self.expect("^")
            e = self.exponent("family")
            template = PruferAll() if e is INF else FixedExponent(e)
        self.expect(")")
        inner = self.mult()
        self.expect("]")
        excluded = []
        if self.accept("\\"):
            self.accept("\\")  # tolerate a doubled backslash
            self.expect("{")
            excluded.append(self.prime())
            while self.accept(","):
                excluded.append(self.prime())
            self.expect("}")
        return PrimeFamily(template, inner, excluded)


def parse(text: str) -> GroupDescriptor:
    """Parse an expression into a descriptor (see module grammar)."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0)
    return _Parser(text).group()


# ---------------------------------------------------------------------------
# Rendering.


def _mult_suffix(m: Multiplicity) -> str:
    if m == 1:
        return ""
    return f"^{mult_to_json(m)}"


def _render_char_atom(char: Characteristic) -> str:
    if char == CHAR_Z:
        return "Z"
    if char == CHAR_Q:
        return "Q"
    if char.default is INF and len(char.exceptions) == 1 and char.exceptions[0][1] == 0:
        return f"Q_({char.exceptions[0][0]})"
    desc = height_to_text(char.default) + "".join(
        f";{p}:{height_to_text(h)}" for p, h in char.exceptions
    )
    return f"R({desc})"


def _shape_atoms(shape: LocalShape, p: int | str):
    """The atoms of ``shape`` at p (a prime or the variable "p"), with multiplicities."""
    for n, m in shape.cyclic:
        yield f"Z({p}^{n})", m
    if shape.prufer != 0:
        yield f"Z({p}^inf)", shape.prufer
    if shape.tower != 0:
        yield f"tower({p})", shape.tower


def render(group: CanonicalGroup) -> str:
    """Deterministic text form; parsing it back recovers the group."""
    if group.is_zero:
        return "0"
    pieces: list[str] = []
    exception_primes = group.exception_primes()
    excl = ""
    if exception_primes:
        excl = "\\{%s}" % ",".join(str(p) for p in exception_primes)
    for atom, m in _shape_atoms(group.generic, "p"):
        pieces.append(f"sum{{p}}[{atom}]{excl}{_mult_suffix(m)}")
    for p, shape in group.exceptions:
        pieces += (atom + _mult_suffix(m) for atom, m in _shape_atoms(shape, p))
    for char, m in group.rationals:
        pieces.append(f"{_render_char_atom(char)}{_mult_suffix(m)}")
    return " + ".join(pieces)


__all__ = ["parse", "render", "GroupDescriptor"]
