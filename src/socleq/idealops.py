"""Ideal arithmetic at the polynomial-ring level.

Everything here is exact and works in the ambient polynomial ring S; the
local layer builds on these by always carrying the defining ideal along.
Intersections use the classic single-auxiliary-variable elimination.  A
colon of I by two or more terms, when S/I is finite dimensional, is I plus
the lifts of the common kernel of multiplication by those terms on the
standard monomials (the multiplication-matrix view of FGLM): one row
reduction and one basis run, for any grading.  Otherwise a colon meets the
colons by each generator f.  A colon of a weighted-homogeneous ideal by a
term c*x^a, or by a power c*l^n of a linear form l whose variables share
one weight, needs no elimination: a triangular change of coordinates makes
l a variable x_p, the reduced basis taken with x_p last is divided by
powers of x_p (Bayer-Stillman), and a term chains this over its support.
Every other colon by f intersects with (f) and divides exactly by f.
Saturation iterates the colon until it stabilises, reporting the exponent
at which it did.  A caller that takes many colons of related ideals may
pass a colon a dict of its own as a memo of colons and intersections;
nothing here keeps one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import BudgetExceededError, InputError, RingMismatchError
from .groebner import Ideal, buchberger, eliminate, multiplication_table, standard_monomials
from .limits import DEFAULT_LIMITS, Limits
from .oracle import Echelon
from .ring import Polynomial, RingSpec, mono_div, mono_divides, mono_mul


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


def _memoised(memo: dict | None, key, compute):
    """compute(), looked up first in memo under key and stored there.

    The memo belongs to one caller and must only see ideals of one ring
    under one set of limits.
    """
    if memo is None:
        return compute()
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute()
    return out


def _meet(I: Ideal, J: Ideal, limits: Limits, memo: dict | None) -> Ideal:
    """intersect(I, J), memoised under the generator tuples."""
    return _memoised(memo, (I.gens, J.gens), lambda: intersect(I, J, limits))


def _substitution(ring: RingSpec, p: int, image: Polynomial):
    """The ring endomorphism x_p -> image that fixes the other variables."""
    mul = ring.field.mul
    powers = [ring.one()]

    def apply(g: Polynomial) -> Polynomial:
        terms = []
        for m, c in g.terms:
            while len(powers) <= m[p]:
                powers.append(powers[-1] * image)
            rest = m[:p] + (0,) + m[p + 1:]
            terms += [(mono_mul(pm, rest), mul(c, pc)) for pm, pc in powers[m[p]].terms]
        # from_terms adds up the coefficients of equal monomials
        return ring.from_terms(terms)

    return apply


def _linear_root(f: Polynomial):
    """(p, r, n) with f = c*(x_p + r)^n for a unit c and a linear form r
    free of x_p whose variables share the weight of x_p, or None.

    x_p is the last variable whose n-th power is a term of f, and c is that
    term's coefficient; the coefficient of x_p^(n-1)*x_j is then n*c*r_j.
    The candidate is checked by expanding it.  None also when n is 0 in
    the field, where the cross terms do not determine r.
    """
    ring, fld = f.ring, f.ring.field
    n = sum(f.terms[0][0])
    if any(sum(m) != n for m, _ in f.terms):
        return None
    pure = {m.index(n): c for m, c in f.terms if n in m}
    if not pure:
        return None
    p = max(pure)
    c = pure[p]
    nc = fld.mul(fld.from_int(n), c)
    if not nc:
        return None
    inv = fld.inv(nc)
    # x_p^(n-1)*x_j with its x_p^(n-1) removed is x_j
    rest = {m[:p] + (0,) + m[p + 1:]: fld.mul(a, inv) for m, a in f.terms if m[p] == n - 1}
    if any(ring.weights[m.index(1)] != ring.weights[p] for m in rest):
        return None
    r = ring.from_terms(rest)
    if ((ring.gens()[p] + r) ** n).scale(c) != f:
        return None
    return p, r, n


def _graded_colon(I: Ideal, steps, limits: Limits) -> Ideal:
    """I : l_1^n_1 ... l_k^n_k for a weighted-homogeneous I, without
    elimination, as its reduced basis.  steps lists each factor as
    (p, r, n) with l = x_p + r, r a linear form free of x_p whose variables
    share the weight of x_p (r = None for a variable).

    Each step takes the colon of the previous one.  The triangular
    substitution x_p -> x_p - r keeps the weights and maps l to x_p.
    Under weighted grevlex with x_p last, x_p^k divides the lead of a
    homogeneous g iff it divides g, so dividing each element of the basis
    in that order by x_p^min(n, e_g), with e_g the largest such k, gives a
    basis of the colon by x_p^n (Bayer-Stillman; Eisenbud, Prop. 15.12);
    x_p -> x_p + r maps it back.  A step whose x_p divides no basis element
    leaves the ideal as it is.
    """
    ring = I.ring
    last = ring.nvars - 1
    gens = reduced = I.groebner_basis(None, limits)
    for p, r, n in steps:
        to = back = sub = unsub = None
        if p != last:
            _, to, back = with_variable_last(ring, p)
        if r:
            x = ring.gens()[p]
            sub, unsub = _substitution(ring, p, x - r), _substitution(ring, p, x + r)
        if to is None and sub is None and gens is reduced:
            basis = gens
        else:
            basis = buchberger([_apply(to, _apply(sub, g)) for g in gens], None, limits)
        cuts = [min(n, min(m[-1] for m, _ in g.terms)) for g in basis]
        if any(cuts):
            gens = [_apply(unsub, _apply(back, _divide_last(g, k))) for g, k in zip(basis, cuts)]
    if gens is reduced:
        return Ideal.from_reduced_basis(ring, reduced)
    return Ideal.from_reduced_basis(ring, buchberger(gens, None, limits))


def _apply(map_, g: Polynomial) -> Polynomial:
    return g if map_ is None else map_(g)


def _divide_last(g: Polynomial, k: int) -> Polynomial:
    """g / x^k for the last variable x, which divides every term k times."""
    if not k:
        return g
    # dividing every term by one monomial keeps their order
    return Polynomial(g.ring, tuple((m[:-1] + (m[-1] - k,), c) for m, c in g.terms))


def colon_by_poly(I: Ideal, f: Polynomial, limits: Limits = DEFAULT_LIMITS,
                  memo: dict | None = None) -> Ideal:
    """(I : f) = {g : g*f in I}.

    On a weighted-homogeneous I, a term c*x^a and a power c*l^n of a linear
    form whose variables share one weight take the graded route above.
    For a term the output is (I cap (x^a)) / x^a exactly, stored as the
    reduced basis of I : x^a when c = 1 and scaled by 1/c otherwise (then
    no longer monic, so not stored); for c*l^n it is the reduced basis of
    I : l^n.  Every other colon is (I cap (f)) / f.  memo, when given, maps
    (I.gens, f) to I : f and (I.gens, J.gens) to intersect(I, J), and is
    read and filled instead of computing again.
    """
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial from a different ring")
    if not f:
        return Ideal(ring, [ring.one()])
    if I.is_zero:
        return Ideal(ring, [])
    return _memoised(memo, (I.gens, f), lambda: _colon_by_poly(I, f, limits, memo))


def _colon_by_poly(I: Ideal, f: Polynomial, limits: Limits, memo: dict | None) -> Ideal:
    ring = I.ring
    (mono, c), *rest = f.terms
    monic_monomial = not rest and c == ring.field.one
    if rest:
        root = _linear_root(f)
        steps = None if root is None else [root]
    else:
        # the last variable first: its step reads the stored basis of I
        steps = [(i, None, mono[i]) for i in reversed(range(ring.nvars)) if mono[i]]
    if steps is not None and I.is_homogeneous(limits):
        out = _graded_colon(I, steps, limits)
        if rest or monic_monomial:
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

    memo is the memo of colons and intersections of `colon_by_poly`.
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
