"""Ideal arithmetic at the polynomial-ring level.

Everything here is exact and works in the ambient polynomial ring S; the
local layer builds on these by always carrying the defining ideal along.
Intersections use the classic single-auxiliary-variable elimination, colons
use intersect-then-divide with verified exact division, and saturation
iterates the colon until it stabilises, reporting the exponent at which it
did.  A caller that takes many colons of related ideals may pass a colon a
dict of its own as an intersection memo; nothing here keeps one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import BudgetExceededError, InputError, RingMismatchError
from .groebner import Ideal, eliminate
from .limits import DEFAULT_LIMITS, Limits
from .ring import Polynomial, RingSpec, mono_div, mono_divides


def _same_ring(I: Ideal, J: Ideal) -> RingSpec:
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    return I.ring


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    ring = _same_ring(I, J)
    return Ideal(ring, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    ring = _same_ring(I, J)
    return Ideal(ring, [a * b for a in I.gens for b in J.gens])


def ideal_power(I: Ideal, n: int) -> Ideal:
    if n < 0:
        raise InputError("negative ideal power")
    if n == 0:
        return Ideal(I.ring, [I.ring.one()])
    if n == 1:
        return I
    prods = [
        _prod(combo) for combo in combinations_with_replacement(I.gens, n)
    ]
    return Ideal(I.ring, prods)


def _prod(polys) -> Polynomial:
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def maximal_ideal(ring: RingSpec) -> Ideal:
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())


def equal_as_s_ideals(I: Ideal, J: Ideal, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Equality of ideals of the ambient polynomial ring S (not local!).

    Compares the unique reduced bases under the ring's default order.
    """
    _same_ring(I, J)
    return I.groebner_basis(None, limits) == J.groebner_basis(None, limits)


# ---------------------------------------------------------------------------
# auxiliary-variable plumbing


def _aux_name(ring: RingSpec) -> str:
    name = "T"
    while name in ring.vars:
        name += "_"
    return name


def with_aux_variable(ring: RingSpec):
    """Ring with one fresh weight-1 variable prepended; returns
    (big_ring, lift, project)."""
    name = _aux_name(ring)
    big = RingSpec(ring.field, (name,) + ring.vars, (1,) + ring.weights)

    def lift(p: Polynomial) -> Polynomial:
        return big.from_terms(((0,) + m, c) for m, c in p.terms)

    def project(p: Polynomial) -> Polynomial:
        for m, _ in p.terms:
            if m[0] != 0:
                raise InputError("cannot project a polynomial involving the auxiliary variable")
        return ring.from_terms((m[1:], c) for m, c in p.terms)

    return big, lift, project


def intersect(I: Ideal, J: Ideal, limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """I cap J, by eliminating t from t*I + (1 - t)*J."""
    ring = _same_ring(I, J)
    if I.is_zero or J.is_zero:
        return Ideal(ring, [])
    big, lift, project = with_aux_variable(ring)
    t = big.gens()[0]
    one = big.one()
    gens = [t * lift(g) for g in I.gens] + [(one - t) * lift(g) for g in J.gens]
    elim = eliminate(Ideal(big, gens), ring.vars, limits)
    return Ideal(ring, [project(g) for g in elim.gens])


# ---------------------------------------------------------------------------
# exact division and colons


def exact_div(h: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient h / f when f divides h exactly; raises otherwise."""
    ring = h.ring
    if f.ring != ring:
        raise RingMismatchError("operands from different rings")
    if not f:
        raise InputError("division by the zero polynomial")
    fld = ring.field
    flead, fc = f.lead()
    finv = fld.inv(fc)
    quot: dict = {}
    rem = h
    while rem:
        hlead, hc = rem.lead()
        if not mono_divides(flead, hlead):
            raise InputError("polynomial division is not exact")
        u = mono_div(hlead, flead)
        c = fld.mul(hc, finv)
        quot[u] = c
        rem = rem - f.mul_term(u, c)
    return ring.from_terms(quot)


def _meet(I: Ideal, J: Ideal, limits: Limits, memo: dict | None) -> Ideal:
    """intersect(I, J), looked up first in memo by generator tuples.

    The memo belongs to one caller and must only see ideals of one ring
    under one set of limits.
    """
    if memo is None:
        return intersect(I, J, limits)
    key = (I.gens, J.gens)
    out = memo.get(key)
    if out is None:
        out = memo[key] = intersect(I, J, limits)
    return out


def colon_by_poly(I: Ideal, f: Polynomial, limits: Limits = DEFAULT_LIMITS,
                  memo: dict | None = None) -> Ideal:
    """(I : f) = {g : g*f in I}, via (I cap (f)) / f.

    memo, when given, maps (I.gens, J.gens) to intersect(I, J) and is
    read and filled instead of intersecting again.
    """
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial from a different ring")
    if not f:
        return Ideal(ring, [ring.one()])
    if I.is_zero:
        return Ideal(ring, [])
    meet = _meet(I, Ideal(ring, [f]), limits, memo)
    return Ideal(ring, [exact_div(g, f) for g in meet.gens])


def colon(I: Ideal, J: Ideal, limits: Limits = DEFAULT_LIMITS,
          memo: dict | None = None) -> Ideal:
    """(I : J) = intersection of (I : g) over the generators g of J.

    memo is the intersection memo of `colon_by_poly`.
    """
    ring = _same_ring(I, J)
    if J.is_zero:
        return Ideal(ring, [ring.one()])
    out = colon_by_poly(I, J.gens[0], limits, memo)
    for g in J.gens[1:]:
        out = _meet(out, colon_by_poly(I, g, limits, memo), limits, memo)
    return out


def saturate(I: Ideal, J: Ideal, limits: Limits = DEFAULT_LIMITS, max_steps: int = 64):
    """(I : J^infinity) together with the first exponent where it stabilises.

    Returns (saturation, k) with k minimal such that (I : J^k) equals the
    saturation; k = 0 means I was already saturated.
    """
    ring = _same_ring(I, J)
    cur = I
    for k in range(max_steps):
        nxt = colon(cur, J, limits)
        if equal_as_s_ideals(nxt, cur, limits):
            return cur, k
        cur = nxt
    raise BudgetExceededError(f"saturation did not stabilise within {max_steps} colon steps")
