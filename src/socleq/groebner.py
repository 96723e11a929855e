"""Deterministic Buchberger engine and the cached Ideal type.

Determinism contract: given the same generators in the same order, the same
monomial order and the same field, every run performs the identical sequence
of reductions and returns the identical reduced basis (which is also the
mathematically unique reduced Groebner basis, so generator permutations
change nothing either).

Selection is the normal strategy: pending S-pairs are processed by weighted
degree of the pair lcm, ties broken by generator indices.  The product
criterion and a conservative chain criterion prune pairs; a pair is only ever
skipped against partner pairs that were themselves certified (reduced to
zero, product-skipped, or chain-skipped earlier), which keeps the pruning
acyclic and therefore sound.
"""

from __future__ import annotations

import heapq
import itertools
from operator import le
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InputError, RingMismatchError
from .limits import DEFAULT_LIMITS, Limits
from .ring import (
    Block,
    Monomial,
    MonomialOrder,
    Polynomial,
    RingSpec,
    mono_div,
    mono_divides,
    mono_gcd_is_one,
    mono_lcm,
    mono_mul,
    plain_degree,
)


class _Steps:
    """Mutable reduction-step counter shared across one basis computation."""

    __slots__ = ("left", "total")

    def __init__(self, budget: int):
        self.left = budget
        self.total = budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(
                f"step budget of {self.total} reduction steps exhausted; "
                "raise it via limits/--step-budget if the input is expected to be this hard"
            )


class _Elt:
    """A monic basis element in working form."""

    __slots__ = ("lead", "tail", "is_monomial")

    def __init__(self, lead: Monomial, tail: tuple):
        self.lead = lead
        self.tail = tail  # ((mono, coeff), ...) of the non-lead terms
        self.is_monomial = not tail


class _OrderKeys(dict):
    """order.key(m, weights) for each monomial m, computed once."""

    __slots__ = ("order", "weights")

    def __init__(self, order: MonomialOrder, weights):
        self.order, self.weights = order, weights

    def __missing__(self, m: Monomial):
        k = self[m] = self.order.key(m, self.weights)
        return k


class _Engine:
    def __init__(self, ring: RingSpec, order: MonomialOrder, steps: _Steps):
        self.ring = ring
        self.keyf = _OrderKeys(order, ring.weights).__getitem__
        self.steps = steps
        self.basis: list[_Elt] = []
        self.pairs: list = []  # heap of (wdeg(lcm), i, j, lcm)
        self.certified: set = set()

    # -- reduction -------------------------------------------------------------

    def reduce_full(self, acc: dict) -> dict:
        """Fully reduce acc (a {mono: coeff} dict, consumed) modulo the basis."""
        fld = self.ring.field
        keyf, basis = self.keyf, self.basis
        out = {}
        while acc:
            m = max(acc, key=keyf)
            c = acc.pop(m)
            hit = None
            for elt in basis:
                if all(map(le, elt.lead, m)):
                    hit = elt
                    break
            if hit is None:
                out[m] = c
                continue
            self.steps.spend()
            u = mono_div(m, hit.lead)
            for tm, tc in hit.tail:
                k = mono_mul(tm, u)
                s = fld.sub(acc.get(k, fld.zero), fld.mul(c, tc))
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return out

    # -- basis growth -----------------------------------------------------------

    def insert(self, acc: dict) -> None:
        acc = self.reduce_full(acc)
        if not acc:
            return
        fld = self.ring.field
        lead = max(acc, key=self.keyf)
        lc = acc.pop(lead)
        inv = fld.inv(lc)
        tail = tuple((m, fld.mul(inv, c)) for m, c in acc.items())
        elt = _Elt(lead, tail)
        t = len(self.basis)
        self.basis.append(elt)
        for s in range(t):
            other = self.basis[s]
            pair = (s, t)
            if other.is_monomial and elt.is_monomial:
                self.certified.add(pair)  # S-polynomial is identically zero
                continue
            if mono_gcd_is_one(other.lead, elt.lead):
                self.certified.add(pair)  # product criterion
                continue
            lcm = mono_lcm(other.lead, elt.lead)
            heapq.heappush(self.pairs, (self.ring.wdeg(lcm), s, t, lcm))

    def _pair_ok(self, a: int, b: int) -> bool:
        """Is the (a, b) pair known to reduce to zero?  Monomial-monomial
        pairs qualify unconditionally: their S-polynomial is identically 0."""
        if self.basis[a].is_monomial and self.basis[b].is_monomial:
            return True
        return ((a, b) if a < b else (b, a)) in self.certified

    def chain_skippable(self, i: int, j: int, lcm: Monomial) -> bool:
        """Does some third element k, with lead(k) dividing lcm, have both
        (i, k) and (j, k) known to reduce to zero?"""
        pair_ok = self._pair_ok
        for k, elt in enumerate(self.basis):
            if k == i or k == j:
                continue
            if all(map(le, elt.lead, lcm)):
                if pair_ok(i, k) and pair_ok(j, k):
                    return True
        return False

    def run(self) -> None:
        fld = self.ring.field
        while self.pairs:
            _, i, j, lcm = heapq.heappop(self.pairs)
            if self.chain_skippable(i, j, lcm):
                self.certified.add((i, j))
                continue
            gi, gj = self.basis[i], self.basis[j]
            ui = mono_div(lcm, gi.lead)
            uj = mono_div(lcm, gj.lead)
            acc: dict = {}
            for m, c in gi.tail:
                k = mono_mul(m, ui)
                acc[k] = c
            for m, c in gj.tail:
                k = mono_mul(m, uj)
                s = fld.sub(acc.get(k, fld.zero), c)
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
            self.certified.add((i, j))
            self.insert(acc)

    # -- reduced basis ----------------------------------------------------------

    def reduced_basis(self):
        """Interreduce to the unique reduced basis (monic, tails irreducible),
        as term lists ascending by lead."""
        keyf = self.keyf
        live = sorted(self.basis, key=lambda elt: keyf(elt.lead))
        kept: list[_Elt] = []
        for elt in live:
            li = elt.lead
            if not any(all(map(le, d.lead, li)) for d in kept):
                kept.append(elt)
        # the run is over: the basis becomes the kept elements (lead(i)
        # divides no monomial below it, so it never fires on its own tail)
        self.basis = kept
        one = self.ring.field.one
        out = []
        for elt in kept:
            out.append([(elt.lead, one), *self.reduce_full(dict(elt.tail)).items()])
        return out  # kept is ascending by lead already


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> list:
    """Reduced Groebner basis of the given generators.

    Returns a list of Polynomials sorted ascending by lead monomial.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise InputError("cannot compute a basis for the zero list of generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    order = order or ring.default_order
    eng = _Engine(ring, order, _Steps(limits.step_budget))
    for g in gens:
        eng.insert(dict(g.terms))
    eng.run()
    return [ring.from_terms(terms) for terms in eng.reduced_basis()]


def normal_forms(
    fs: Iterable[Polynomial],
    basis: Sequence[Polynomial],
    limits: Limits = DEFAULT_LIMITS,
):
    """Yield the remainder of each f in fs on full division by the
    (Groebner) basis, under the ring's default order, one f at a time.

    The divisor list is built once, on the first f; each f gets its own
    step budget, exactly as one normal_form call would.
    """
    eng = None
    for f in fs:
        if eng is None:
            ring, fld = f.ring, f.ring.field
            eng = _Engine(ring, ring.default_order, None)
            for g in basis:
                if g.ring != ring:
                    raise RingMismatchError("basis element from a different ring")
                lead, lc = g.lead()
                inv = fld.inv(lc)
                eng.basis.append(_Elt(lead, tuple((m, fld.mul(inv, c)) for m, c in g.terms if m != lead)))
        elif f.ring != ring:
            raise RingMismatchError("polynomials from different rings")
        eng.steps = _Steps(limits.step_budget)
        yield ring.from_terms(eng.reduce_full(dict(f.terms)))


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    limits: Limits = DEFAULT_LIMITS,
) -> Polynomial:
    """Remainder of f on full division by the (Groebner) basis, under the
    ring's default order."""
    return next(normal_forms((f,), basis, limits))


# ---------------------------------------------------------------------------
# the Ideal type


class Ideal:
    """A finitely generated ideal of the ambient ring, with a cache of
    reduced Groebner bases keyed by monomial order (first writer wins, safe
    for concurrent readers).  A LocalRing interns its Ideals by generator
    tuple: one basis store per ring, never shared across rings.
    """

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring: RingSpec, gens: Iterable[Polynomial]):
        seen = set()
        kept = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if g and g not in seen:
                seen.add(g)
                kept.append(g)
        self.ring = ring
        self.gens = tuple(kept)
        self._cache: dict = {}

    @classmethod
    def from_reduced_basis(cls, ring: RingSpec, basis: Iterable[Polynomial]) -> Ideal:
        """The ideal generated by basis, which must already be its reduced
        basis in the default order of ring, ascending by lead: that basis is
        stored, so groebner_basis() returns it without a run."""
        ideal = cls(ring, basis)
        ideal._cache[ring.default_order] = ideal.gens
        return ideal

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.gens[:6])
        more = ", ..." if len(self.gens) > 6 else ""
        return f"Ideal({inner}{more})"

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner_basis(self, order: MonomialOrder | None = None, limits: Limits = DEFAULT_LIMITS) -> tuple:
        """Reduced basis of the ideal."""
        order = order or self.ring.default_order
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        basis = tuple(buchberger(self.gens, order, limits)) if self.gens else ()
        return self._cache.setdefault(order, basis)

    def is_homogeneous(self, limits: Limits = DEFAULT_LIMITS) -> bool:
        """Is the ideal weighted homogeneous for the ring's weights?

        An ideal is homogeneous iff its reduced basis under the (weighted
        degree first) default order is, whatever its generators look like.
        """
        return all(g.weighted_degree() is not None for g in self.groebner_basis(None, limits))


def eliminate(ideal: Ideal, keep: Iterable[str], limits: Limits = DEFAULT_LIMITS) -> Ideal:
    """Intersection of the ideal with the subring on the kept variables."""
    ring = ideal.ring
    keep = tuple(keep)
    for name in keep:
        if name not in ring.vars:
            raise InputError(f"unknown variable {name!r}")
    keep_idx = {ring.vars.index(n) for n in keep}
    drop_idx = tuple(i for i in range(ring.nvars) if i not in keep_idx)
    if not drop_idx:
        return Ideal(ring, ideal.groebner_basis(None, limits))
    order = Block(drop_idx)
    basis = ideal.groebner_basis(order, limits)
    kept = [g for g in basis if all(m[i] == 0 for m, _ in g.terms for i in drop_idx)]
    return Ideal(ring, kept)


# ---------------------------------------------------------------------------
# combinatorics on lead-term ideals


def min_lead_monomials(basis: Sequence[Polynomial]) -> list:
    leads = [g.lead()[0] for g in basis if g]
    out = []
    for m in leads:
        if not any(mono_divides(o, m) for o in leads if o != m):
            if m not in out:
                out.append(m)
    return out


def standard_monomials_below(leads: Sequence[Monomial], ring: RingSpec, k: int, cap: int | None = None) -> list:
    """Monomials of total degree < k outside the monomial ideal of the leads,
    ascending by plain degree and descending in the default order within one.

    A staircase walk: the exponents are chosen one variable at a time, and
    x_i is raised only until the partial monomial x_0^e_0 ... x_i^e_i is
    divisible by a lead, since so is every monomial above it.  A lead first
    divides a partial monomial at the last variable of its support, so it is
    tested there only.  The leads need not be minimal.
    """
    n = ring.nvars
    ending = [[] for _ in range(n)]  # the leads by last variable of their support
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if not support:
            return []  # the unit ideal
        ending[support[-1]].append(lead)
    by_degree: list = [[] for _ in range(k)]
    count = 0

    def walk(prefix: tuple, left: int) -> None:
        nonlocal count
        i = len(prefix)
        # map stops at the end of the prefix: only x_0 .. x_{i-1} are compared
        stop = min((lead[i] for lead in ending[i] if all(map(le, lead, prefix))), default=left + 1)
        for e in range(min(stop, left + 1)):
            mono = prefix + (e,)
            if i + 1 < n:
                walk(mono, left - e)
                continue
            count += 1
            if cap is not None and count > cap:
                raise BudgetExceededError(f"standard monomial count exceeded cap {cap}")
            by_degree[k - 1 - left + e].append(mono)

    walk((), k - 1)
    key, weights = ring.default_order.key, ring.weights
    out = []
    for monos in by_degree:
        monos.sort(key=lambda m: key(m, weights), reverse=True)
        out += monos
    return out


def standard_monomials(basis: Sequence[Polynomial], ring: RingSpec, cap: int | None = None) -> list | None:
    """The standard monomials of a reduced basis whose lead ideal has
    dimension at most 0 (none for the unit ideal), or None when it has
    positive dimension.

    The lead ideal has dimension at most 0 exactly when each variable has a
    pure power among the leads (the unit lead 1 counts as x_i^0).  A
    monomial whose exponent of x_i reaches that power is not standard, so
    every standard monomial has plain degree below 1 + sum(power_i - 1).
    """
    leads = [g.lead()[0] for g in basis]
    bound = 1
    for i in range(ring.nvars):
        pure = [m[i] for m in leads if sum(m) == m[i]]
        if not pure:
            return None
        bound += min(pure) - 1
    return standard_monomials_below(leads, ring, bound, cap=cap)


def multiplication_table(basis: Sequence[Polynomial], std: Sequence[Monomial],
                         monos: Sequence[Monomial], limits: Limits = DEFAULT_LIMITS) -> dict:
    """b -> [NF(t*b) for each monomial t in monos], as term tuples, for the
    standard monomials std of a nonempty reduced basis.  A standard t*b is
    its own normal form; the other products are reduced once each, in one
    normal_forms stream."""
    ring, one = basis[0].ring, basis[0].ring.field.one
    standard = set(std)
    products = {b: [mono_mul(b, t) for t in monos] for b in std}
    pending = dict.fromkeys(p for ps in products.values() for p in ps if p not in standard)
    reduced = {p: rem.terms for p, rem in zip(pending, normal_forms(
        (ring.from_terms({p: one}) for p in pending), basis, limits))}
    return {b: [reduced.get(p, ((p, one),)) for p in ps] for b, ps in products.items()}


def lead_ideal_dimension(basis: Sequence[Polynomial], ring: RingSpec) -> int:
    """Combinatorial (Krull) dimension of the quotient by the lead-term ideal.

    dim = size of the largest variable subset V such that no lead monomial is
    supported inside V.  With a Groebner basis as input this is the dimension
    of the quotient by the ideal itself.
    """
    leads = min_lead_monomials(basis)
    if any(plain_degree(m) == 0 for m in leads):
        return -1  # unit ideal
    n = ring.nvars
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            cs = set(combo)
            if all(not s <= cs for s in supports):
                return size
    return 0
