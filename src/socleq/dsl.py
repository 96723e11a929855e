"""Plain-text ring files and polynomial expressions.

Polynomial grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' natural)?
    atom   := integer | variable | '(' expr ')'

Ring file statements, one per line, '#' starts a comment:

    field QQ              (default when omitted)
    field FP <prime>
    vars X Y Z
    weights 3 4 5         (positive integers, default all 1)
    quotient <poly>, <poly>, ...
    ideal <name> = <poly>, ...

Printing is canonical: terms descending under the ring's default order, so
parse(print(file)) reproduces the structure byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import InputError, ParseError
from .field import FP, QQ, Field
from .ring import Polynomial, RingSpec

# ---------------------------------------------------------------------------
# tokenizer


def _tokens(text: str, base: int = 0):
    """Yield (kind, value, pos) over a polynomial expression."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", int(text[i:j]), base + i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], base + i)
            i = j
            continue
        if ch in "+-*^()":
            yield (ch, ch, base + i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    yield ("end", None, base + n)


class _PolyParser:
    def __init__(self, text: str, ring: RingSpec, base: int = 0, full_text: str | None = None):
        self.text = full_text if full_text is not None else text
        self.toks = list(_tokens(text, base))
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", self.text, t[2])
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"trailing input starting at {t[1]!r}", self.text, t[2])
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        if self.peek()[0] == "^":
            self.take()
            t = self.expect("int")
            p = p ** t[1]
        return p

    def atom(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "int":
            return self.ring.const(val)
        if kind == "name":
            if val not in self.ring.vars:
                raise ParseError(f"unknown variable {val!r}", self.text, pos)
            return self.ring.var(val)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"expected a polynomial atom, found {val!r}", self.text, pos)


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    return _PolyParser(text, ring).parse()


def parse_poly_list(text: str, ring: RingSpec) -> tuple:
    """Comma-separated polynomials (the CLI --q payload)."""
    return tuple(_parse_list_at(text, ring, 0, text))


# ---------------------------------------------------------------------------
# printing


def _coeff_str(fld: Field, c) -> tuple[str, str]:
    """(sign, magnitude-string); magnitude '' means 1."""
    if fld.kind == "QQ":
        sign = "-" if c < 0 else "+"
        a = -c if c < 0 else c
        return sign, "" if a == 1 else str(a)
    # balanced residue print for F_p: residues above p/2 show as negatives
    p = fld.p
    if 2 * c > p:
        a = p - c
        return "-", "" if a == 1 else str(a)
    return "+", "" if c == 1 else str(c)


def _mono_str(ring: RingSpec, mono) -> str:
    parts = []
    for name, e in zip(ring.vars, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    ring, fld = p.ring, p.ring.field
    pieces = []
    for i, (mono, c) in enumerate(p.terms):
        sign, mag = _coeff_str(fld, c)
        ms = _mono_str(ring, mono)
        if ms and mag:
            body = f"{mag}*{ms}"
        elif ms:
            body = ms
        else:
            body = mag if mag else "1"
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# ring files


@dataclass(frozen=True)
class RingFile:
    """Parsed form of a ring file: the ambient ring, its quotient generators
    and any named auxiliary ideals."""

    ring: RingSpec
    quotient: tuple = ()
    ideals: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for g in self.quotient:
            if g.ring != self.ring:
                raise InputError("quotient generator from a different ring")


def parse_ring_file(text: str) -> RingFile:
    fld: Field | None = None
    names = None
    weights = None
    quotient: list[Polynomial] = []
    ideals: dict[str, tuple] = {}
    ring: RingSpec | None = None

    def need_ring(pos: int) -> RingSpec:
        nonlocal ring
        if ring is None:
            if names is None:
                raise ParseError("vars must be declared before polynomials", text, pos)
            try:
                ring = RingSpec(fld or QQ, names, weights)
            except InputError as exc:
                raise ParseError(str(exc), text, pos) from None
        return ring

    offset = 0
    for rawline in text.split("\n"):
        line = rawline.split("#", 1)[0]
        stripped = line.strip()
        pos = offset + len(line) - len(line.lstrip())
        offset_next = offset + len(rawline) + 1
        offset = offset_next
        if not stripped:
            continue
        words = stripped.split()
        head = words[0]
        if head == "field":
            if fld is not None or ring is not None:
                raise ParseError("field declared twice or after use", text, pos)
            if len(words) == 2 and words[1] == "QQ":
                fld = QQ
            elif len(words) == 3 and words[1] == "FP":
                try:
                    fld = FP(int(words[2]))
                except (ValueError, InputError) as exc:
                    raise ParseError(f"bad FP modulus: {exc}", text, pos) from None
            else:
                raise ParseError("expected 'field QQ' or 'field FP <prime>'", text, pos)
        elif head == "vars":
            if names is not None:
                raise ParseError("vars declared twice", text, pos)
            if len(words) < 2:
                raise ParseError("vars needs at least one name", text, pos)
            names = tuple(words[1:])
        elif head == "weights":
            if weights is not None or ring is not None:
                raise ParseError("weights declared twice or after use", text, pos)
            try:
                weights = tuple(int(w) for w in words[1:])
            except ValueError:
                raise ParseError("weights must be integers", text, pos) from None
            if not weights:
                raise ParseError("weights needs at least one value", text, pos)
        elif head == "quotient":
            r = need_ring(pos)
            payload = stripped[len("quotient"):]
            base = offset_next - len(rawline) - 1 + rawline.find("quotient") + len("quotient")
            quotient.extend(_parse_list_at(payload, r, base, text))
        elif head == "ideal":
            r = need_ring(pos)
            if "=" not in stripped:
                raise ParseError("ideal statement needs '='", text, pos)
            lhs, rhs = stripped.split("=", 1)
            parts = lhs.split()
            if len(parts) != 2 or not parts[1].isidentifier():
                raise ParseError("expected 'ideal <name> = <polys>'", text, pos)
            name = parts[1]
            if name in ideals:
                raise ParseError(f"ideal {name!r} declared twice", text, pos)
            base = offset_next - len(rawline) - 1 + rawline.find("=") + 1
            ideals[name] = tuple(_parse_list_at(rhs, r, base, text))
        else:
            raise ParseError(f"unknown statement {head!r}", text, pos)

    if names is None:
        raise ParseError("ring file declares no variables", text, len(text))
    return RingFile(ring=need_ring(len(text)), quotient=tuple(quotient), ideals=ideals)


def _parse_list_at(payload: str, ring: RingSpec, base: int, full_text: str) -> list:
    out = []
    offset = base
    for part in payload.split(","):
        if not part.strip():
            raise ParseError("empty polynomial in list", full_text, offset)
        out.append(_PolyParser(part, ring, base=offset, full_text=full_text).parse())
        offset += len(part) + 1
    return out


def _int_coeff_str(p: Polynomial) -> str:
    """Printable form for files; requires integer coefficients over QQ."""
    if p.ring.field.kind == "QQ":
        for _, c in p.terms:
            if isinstance(c, Fraction) and c.denominator != 1:
                raise InputError(f"ring files carry integer coefficients, got {c}")
    return format_poly(p)


def format_ring_file(rf: RingFile) -> str:
    lines = []
    f = rf.ring.field
    lines.append("field QQ" if f.kind == "QQ" else f"field FP {f.p}")
    lines.append("vars " + " ".join(rf.ring.vars))
    if any(w != 1 for w in rf.ring.weights):
        lines.append("weights " + " ".join(str(w) for w in rf.ring.weights))
    if rf.quotient:
        lines.append("quotient " + ", ".join(_int_coeff_str(g) for g in rf.quotient))
    for name in rf.ideals:
        gens = rf.ideals[name]
        lines.append(f"ideal {name} = " + ", ".join(_int_coeff_str(g) for g in gens))
    return "\n".join(lines) + "\n"
