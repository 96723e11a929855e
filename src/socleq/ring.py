"""Weighted multivariate polynomial rings with exact coefficients.

Monomials are exponent tuples.  Every variable carries a positive integer
weight; the weighted degree of a monomial is the weight-dot-exponent sum.
Polynomials are immutable sparse term lists kept sorted descending under the
ring's default order (weighted degree reverse lexicographic), which makes
printing and hashing canonical.
"""

from __future__ import annotations

import itertools
from operator import add, le, mul, neg, sub
from typing import Iterable, Sequence

from .errors import InputError, RingMismatchError
from .field import Field, check_same_field

Monomial = tuple  # exponent tuple, one entry per variable


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(add, u, v))


def mono_divides(u: Monomial, v: Monomial) -> bool:
    """True when u divides v."""
    return all(map(le, u, v))


def mono_div(u: Monomial, v: Monomial) -> Monomial:
    """u / v, assuming divisibility."""
    return tuple(map(sub, u, v))


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(max, u, v))


def mono_gcd_is_one(u: Monomial, v: Monomial) -> bool:
    # exponents are non-negative, so a product is 0 iff one factor is
    return not any(map(mul, u, v))


def plain_degree(u: Monomial) -> int:
    return sum(u)


def exponent_tuples(n: int, k: int):
    """Every exponent tuple of n entries and total degree k, in no useful
    order (stars and bars)."""
    for bars in itertools.combinations(range(k + n - 1), n - 1):
        prev = -1
        expo = []
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(k + n - 2 - prev)
        yield tuple(expo)


# ---------------------------------------------------------------------------
# monomial orders
#
# Each order turns a monomial into a sort key; key comparison realizes the
# order.  Weighted degree is the order's notion of degree wherever a degree
# is needed (pair selection, graded comparisons).


class MonomialOrder:
    name = "?"

    def key(self, mono: Monomial, weights: Sequence[int]):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def _fields(self) -> tuple:  # what equality and hashing compare
        return ()

    def __eq__(self, other):
        return type(self) is type(other) and self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__,) + self._fields())


class GrevLex(MonomialOrder):
    """Weighted-degree reverse lexicographic (the default order)."""

    name = "grevlex"

    def key(self, mono, weights):
        return (sum(map(mul, mono, weights)), tuple(map(neg, reversed(mono))))


class Block(MonomialOrder):
    """Elimination order: variables in `first` dominate the rest.

    Each block is compared by weighted grevlex, so the order eliminates the
    `first` block.
    """

    name = "block"

    def __init__(self, first: Iterable[int]):
        self.first = tuple(sorted(first))
        self._rest: dict = {}  # number of variables -> indices outside `first`

    def __repr__(self):
        return f"block{self.first}"

    def _fields(self) -> tuple:
        return (self.first,)

    def key(self, mono, weights):
        fst = self.first
        rest = self._rest.get(len(mono))
        if rest is None:
            rest = self._rest[len(mono)] = tuple(i for i in range(len(mono)) if i not in fst)
        head = tuple(map(mono.__getitem__, fst))
        tail = tuple(map(mono.__getitem__, rest))
        return (
            sum(map(mul, head, map(weights.__getitem__, fst))),
            tuple(map(neg, reversed(head))),
            sum(map(mul, tail, map(weights.__getitem__, rest))),
            tuple(map(neg, reversed(tail))),
        )


GREVLEX = GrevLex()


# ---------------------------------------------------------------------------
# the ambient ring


class RingSpec:
    """An ambient weighted polynomial ring over an exact field.

    Immutable.  Two RingSpecs are interchangeable iff they compare equal
    (same field, same variable names, same weights); mixing polynomials from
    unequal rings raises RingMismatchError at the point of combination.
    """

    __slots__ = ("field", "vars", "weights", "_index")

    def __init__(self, field: Field, names: Sequence[str], weights: Sequence[int] | None = None):
        names = tuple(names)
        if not names:
            raise InputError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in {names}")
        for n in names:
            if not n.isidentifier():
                raise InputError(f"bad variable name {n!r}")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise InputError("weights list must match variable list in length")
        if any(w < 1 for w in weights):
            raise InputError(f"weights must be positive integers, got {weights}")
        self.field = field
        self.vars = names
        self.weights = weights
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def default_order(self) -> MonomialOrder:
        return GREVLEX

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec)
            and self.field == other.field
            and self.vars == other.vars
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.weights))

    def __repr__(self):
        w = "" if all(x == 1 for x in self.weights) else f", weights={list(self.weights)}"
        return f"RingSpec({self.field!r}, {list(self.vars)}{w})"

    # -- polynomial constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return Polynomial(self, (((0,) * self.nvars, self.field.one),))

    def const(self, n: int) -> "Polynomial":
        c = self.field.from_int(n)
        if not c:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name: str) -> "Polynomial":
        if name not in self._index:
            raise InputError(f"unknown variable {name!r} in ring {self!r}")
        expo = [0] * self.nvars
        expo[self._index[name]] = 1
        return Polynomial(self, ((tuple(expo), self.field.one),))

    def gens(self) -> tuple:
        return tuple(self.var(n) for n in self.vars)

    def from_terms(self, terms) -> "Polynomial":
        """Build from {mono: coeff} or an iterable of (mono, coeff); zeros dropped."""
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, c in items:
            mono = tuple(mono)
            if mono in acc:
                c = self.field.add(acc[mono], c)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return Polynomial(self, self._sorted(acc))

    def _sorted(self, acc: dict) -> tuple:
        key, w = GREVLEX.key, self.weights
        return tuple(sorted(acc.items(), key=lambda t: key(t[0], w), reverse=True))

    # -- degrees ----------------------------------------------------------------

    def wdeg(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.weights))

    def monomials_of_plain_degree(self, k: int) -> list:
        """All exponent tuples of total degree exactly k, descending default order."""
        out = list(exponent_tuples(self.nvars, k))
        key = GREVLEX.key
        out.sort(key=lambda m: key(m, self.weights), reverse=True)
        return out

    def monomials_below_plain_degree(self, k: int) -> list:
        """All exponent tuples of total degree < k, descending default order."""
        out = []
        for d in range(k):
            out.extend(self.monomials_of_plain_degree(d))
        key = GREVLEX.key
        out.sort(key=lambda m: key(m, self.weights), reverse=True)
        return out


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial: terms sorted descending, default order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic protocol ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __repr__(self):
        from .dsl import format_poly

        return format_poly(self)

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            check_same_field(self.ring.field, other.ring.field)
            raise RingMismatchError(f"rings differ: {self.ring!r} vs {other.ring!r}")

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(self.ring.field.from_int(other))
        return other

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        fld = self.ring.field
        acc = dict(self.terms)
        for mono, c in other.terms:
            s = fld.add(acc.get(mono, fld.zero), c)
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return Polynomial(self.ring, self.ring._sorted(acc))

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, tuple((m, fld.neg(c)) for m, c in self.terms))

    def __radd__(self, other):
        return self + self._coerce(other)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        fld = self.ring.field
        acc = {}
        short, long_ = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for m1, c1 in short:
            for m2, c2 in long_:
                m = mono_mul(m1, m2)
                s = fld.add(acc.get(m, fld.zero), fld.mul(c1, c2))
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial(self.ring, self.ring._sorted(acc))

    def __rmul__(self, other):
        return self * self._coerce(other)

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, fld.mul(c, cc)) for m, cc in self.terms))

    def mul_term(self, mono: Monomial, c) -> "Polynomial":
        """Multiply by c * x^mono.  Order of terms is preserved (orders are multiplicative)."""
        fld = self.ring.field
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((mono_mul(m, mono), fld.mul(c, cc)) for m, cc in self.terms))

    # -- leads and degrees ----------------------------------------------------------

    def lead(self) -> tuple:
        """(monomial, coeff) of the leading term under the default order."""
        if not self.terms:
            raise InputError("zero polynomial has no lead term")
        return self.terms[0]

    def weighted_degree(self) -> int | None:
        """Common weighted degree, or None when not weighted-homogeneous."""
        if not self.terms:
            raise InputError("weighted_degree of the zero polynomial")
        degs = {self.ring.wdeg(m) for m, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def min_plain_degree(self) -> int:
        return min((plain_degree(m) for m, _ in self.terms), default=0)

    def constant_term(self):
        zero_mono = (0,) * self.ring.nvars
        for m, c in self.terms:
            if m == zero_mono:
                return c
        return self.ring.field.zero
