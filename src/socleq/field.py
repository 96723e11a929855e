"""Exact coefficient fields: the rationals and prime fields F_p.

Elements are plain Python objects (Fraction for QQ, int in [0, p) for F_p)
managed through a Field handle, the way computer algebra systems treat
coefficient domains.  All arithmetic goes through the handle; polynomial-level
code refuses to combine operands whose handles differ, so elements of
different fields are never silently coerced.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, InputError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A coefficient field handle.  Use the QQ singleton or FP(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "QQ" else f"FP({self.p})"

    # -- element constructors ------------------------------------------------

    @property
    def zero(self):
        return _QZERO if self.kind == "QQ" else 0

    @property
    def one(self):
        return _QONE if self.kind == "QQ" else 1

    def from_int(self, n: int):
        if self.kind == "QQ":
            return Fraction(n)
        return n % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "QQ" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "QQ" else (a - b) % self.p

    def neg(self, a):
        return -a if self.kind == "QQ" else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "QQ" else a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.kind == "QQ":
            return 1 / a
        return pow(a, self.p - 2, self.p)

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        return "qq" if self.kind == "QQ" else f"fp:{self.p}"


QQ = Field("QQ")

_QZERO = Fraction(0)
_QONE = Fraction(1)


def FP(p: int) -> Field:
    """Prime field of order p.  The modulus must be a proven prime below 2**64."""
    if not isinstance(p, int) or p < 2:
        raise InputError(f"modulus must be an integer >= 2, got {p!r}")
    if p >= 1 << 64:
        raise InputError("modulus too large: primality is only certified below 2**64")
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    return Field("FP", p)


def parse_field(text: str) -> Field:
    """Parse a --field value: 'qq' or 'fp:<prime>'."""
    t = text.strip().lower()
    if t == "qq":
        return QQ
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise InputError(f"bad field spec {text!r}: expected qq or fp:<prime>") from None
        return FP(p)
    raise InputError(f"bad field spec {text!r}: expected qq or fp:<prime>")


def check_same_field(f1: Field, f2: Field) -> None:
    if f1 != f2:
        raise FieldMismatchError(f"fields differ: {f1!r} vs {f2!r}")
