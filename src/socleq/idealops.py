"""Ideal arithmetic at the polynomial-ring level.

Everything here is exact and works in the ambient polynomial ring S; the
local layer builds on these by always carrying the defining ideal along.
Intersections use the classic single-auxiliary-variable elimination.  A
colon of I by two or more terms, when S/I is finite dimensional, is I plus
the lifts of the common kernel of multiplication by those terms on the
standard monomials (the multiplication-matrix view of FGLM): one row
reduction and one basis run, for any grading.  Otherwise a colon meets the
colons by each generator f.  A colon by a variable x_i, or by c*x_i, of a
weighted-homogeneous ideal divides the reduced basis taken with x_i last by
x_i (Bayer-Stillman), and then by c; every other colon by f intersects with
(f) and divides exactly by f.
Saturation iterates the colon until it stabilises, reporting the exponent
at which it did.  A caller that takes many colons of related ideals may
pass a colon a dict of its own as an intersection memo; nothing here keeps
one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import BudgetExceededError, InputError, RingMismatchError
from .groebner import Ideal, buchberger, eliminate, multiplication_table, standard_monomials
from .limits import DEFAULT_LIMITS, Limits
from .oracle import Echelon
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


def with_variable_last(ring: RingSpec, i: int):
    """Ring with the variables of ring reordered so that variable i comes
    last, its weight moving with it; returns (moved_ring, to, back)."""
    perm = tuple(k for k in range(ring.nvars) if k != i) + (i,)
    inv = tuple(perm.index(k) for k in range(ring.nvars))
    moved = RingSpec(ring.field, [ring.vars[k] for k in perm], [ring.weights[k] for k in perm])

    def to(p: Polynomial) -> Polynomial:
        return moved.from_terms((tuple(map(m.__getitem__, perm)), c) for m, c in p.terms)

    def back(p: Polynomial) -> Polynomial:
        return ring.from_terms((tuple(map(m.__getitem__, inv)), c) for m, c in p.terms)

    return moved, to, back


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
    # elim.gens is the t-free part of a reduced Block((0,)) basis, and on
    # t-free monomials that order is the default order of ring: so the
    # projected tuple already is the reduced basis, ascending by lead
    return Ideal.from_reduced_basis(ring, [project(g) for g in elim.gens])


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


def _graded_colon_by_variable(I: Ideal, i: int, limits: Limits) -> Ideal:
    """I : x_i for a weighted-homogeneous I, without elimination.

    Under weighted grevlex with x_i last, x_i divides the lead of a
    homogeneous g iff it divides g, so dividing by x_i every element of the
    reduced basis that it divides gives a basis of I : x_i (Bayer-Stillman;
    Eisenbud, Prop. 15.12).
    """
    ring = I.ring
    basis = reduced = I.groebner_basis(None, limits)
    back = None
    if i != ring.nvars - 1:
        _, to, back = with_variable_last(ring, i)
        basis = buchberger([to(g) for g in basis], None, limits)
    if not any(all(m[-1] for m, _ in g.terms) for g in basis):
        # x_i divides no basis element, so I : x_i = I
        return Ideal.from_reduced_basis(ring, reduced)
    quotients = []
    for g in basis:
        if all(m[-1] for m, _ in g.terms):
            # dividing every term by the last variable keeps their order
            g = Polynomial(g.ring, tuple((m[:-1] + (m[-1] - 1,), c) for m, c in g.terms))
        quotients.append(g if back is None else back(g))
    return Ideal.from_reduced_basis(ring, buchberger(quotients, None, limits))


def colon_by_poly(I: Ideal, f: Polynomial, limits: Limits = DEFAULT_LIMITS,
                  memo: dict | None = None) -> Ideal:
    """(I : f) = {g : g*f in I}.

    A variable c*x_i on a weighted-homogeneous I takes the graded route
    above, its output scaled by 1/c (then no longer monic, so not stored as
    a reduced basis); otherwise the colon is (I cap (f)) / f.  memo, when
    given, maps (I.gens, J.gens) to intersect(I, J) and is read and filled
    instead of intersecting again.
    """
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial from a different ring")
    if not f:
        return Ideal(ring, [ring.one()])
    if I.is_zero:
        return Ideal(ring, [])
    (mono, c), *rest = f.terms
    monic_monomial = not rest and c == ring.field.one
    if not rest and sum(mono) == 1 and I.is_homogeneous(limits):
        out = _graded_colon_by_variable(I, mono.index(1), limits)
        if monic_monomial:
            return out
        inv = ring.field.inv(c)
        return Ideal(ring, [g.scale(inv) for g in out.gens])
    meet = _meet(I, Ideal(ring, [f]), limits, memo)
    quotients = [exact_div(g, f) for g in meet.gens]
    if monic_monomial:
        # dividing the reduced basis of I cap (x^a) by x^a keeps it reduced
        # and ascending: it is the reduced basis of I : x^a
        return Ideal.from_reduced_basis(ring, quotients)
    return Ideal(ring, quotients)


def _artinian_colon(I: Ideal, J: Ideal, limits: Limits) -> Ideal | None:
    """I : J for J generated by terms c_k*t_k, by the kernel route; None
    when I's lead ideal has positive dimension or more than dim_cap
    standard monomials.

    The kernel is read off the echelon of the rows (0, b) + (1, k, t_k*b
    reduced) over the standard monomials b: every label (1, ...) sorts above
    every (0, ...), so a stored row whose pivot starts with 0 has no
    multiplication part left, and these rows span the kernel.
    """
    ring = I.ring
    basis = I.groebner_basis(None, limits)
    try:
        std = standard_monomials(basis, ring, limits.dim_cap)
    except BudgetExceededError:
        return None
    if std is None:
        return None
    table = multiplication_table(basis, std, [g.terms[0][0] for g in J.gens], limits)
    ech = Echelon(ring.field)
    for b in std:
        row = {(0, b): ring.field.one}
        for k, image in enumerate(table[b]):
            for m, c in image:
                row[(1, k, m)] = c
        ech.add(row)
    lifts = [ring.from_terms({label[1]: c for label, c in row.items()})
             for pivot, row in ech.pivots.items() if pivot[0] == 0]
    return Ideal.from_reduced_basis(ring, buchberger(list(basis) + lifts, None, limits))


def colon(I: Ideal, J: Ideal, limits: Limits = DEFAULT_LIMITS,
          memo: dict | None = None) -> Ideal:
    """(I : J) = intersection of (I : g) over the generators g of J.

    memo is the intersection memo of `colon_by_poly`.
    """
    ring = _same_ring(I, J)
    if J.is_zero:
        return Ideal(ring, [ring.one()])
    if len(J.gens) > 1 and all(len(g.terms) == 1 for g in J.gens):
        out = _artinian_colon(I, J, limits)
        if out is not None:
            return out
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
