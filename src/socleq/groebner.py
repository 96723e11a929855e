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

An optional plain-degree truncation supports Artinian quotient computations:
with trunc=K the engine computes the reduced basis of the input ideal PLUS
the K-th power of the ideal of all variables.  Every monomial of total degree
K is installed as a basis element up front (a "cover"), so deleting terms of
total degree >= K during reduction is ordinary division by a cover.  S-pairs
between a polynomial and a cover are what propagate low-degree consequences
of high-degree cancellations (the inhomogeneous cascade), so they are real
pairs here; only those whose lcm has total degree >= K + 2 are dropped, which
is sound because such an lcm always admits a third degree-K divisor whose two
sub-lcms divide it strictly, giving a well-founded chain argument.
"""

from __future__ import annotations

import heapq
import itertools
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

    __slots__ = ("lead", "tail", "is_monomial", "cover")

    def __init__(self, lead: Monomial, tail: tuple, cover: bool = False):
        self.lead = lead
        self.tail = tail  # ((mono, coeff), ...) of the non-lead terms
        self.is_monomial = not tail
        self.cover = cover  # degree-K monomial installed by a truncated run


class _OrderKeys(dict):
    """order.key(m, weights) for each monomial m, computed once."""

    __slots__ = ("order", "weights")

    def __init__(self, order: MonomialOrder, weights):
        self.order, self.weights = order, weights

    def __missing__(self, m: Monomial):
        k = self[m] = self.order.key(m, self.weights)
        return k


class _Engine:
    def __init__(self, ring: RingSpec, order: MonomialOrder, steps: _Steps, trunc: int | None):
        self.ring = ring
        self.order = order
        self.weights = ring.weights
        self.keyf = _OrderKeys(order, ring.weights).__getitem__
        self.steps = steps
        self.trunc = trunc
        self.basis: list[_Elt] = []
        self.divs: list[_Elt] = []  # basis minus covers, the divisor scan list
        self.pairs: list = []  # heap of (wdeg(lcm), i, j, lcm)
        self.certified: set = set()

    # -- reduction -------------------------------------------------------------

    def reduce_full(self, acc: dict) -> dict:
        """Fully reduce acc (a {mono: coeff} dict, consumed) modulo the basis."""
        fld = self.ring.field
        keyf, trunc, divs = self.keyf, self.trunc, self.divs
        out = {}
        while acc:
            m = max(acc, key=keyf)
            c = acc.pop(m)
            if trunc is not None and plain_degree(m) >= trunc:
                self.steps.spend()
                continue
            hit = None
            # covers are absent from divs on purpose: they cannot divide a
            # term that survived the trunc check (it has plain degree < K,
            # the cover has exactly K)
            for elt in divs:
                if mono_divides(elt.lead, m):
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

    def add_cover(self, mono: Monomial) -> None:
        """Install a degree-K monomial directly, bypassing reduction.

        Covers are added before any generator, so the only existing elements
        are other covers and those pairs are monomial-monomial (S identically
        zero); no pair bookkeeping is needed.
        """
        self.basis.append(_Elt(mono, (), cover=True))

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
        self.divs.append(elt)
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
            if other.cover and plain_degree(lcm) >= self.trunc + 2:
                # redundant by the chain argument in the module docstring;
                # deliberately NOT marked certified, so the runtime chain
                # criterion never cites it and stays time-ordered acyclic
                continue
            deg = sum(e * w for e, w in zip(lcm, self.weights))
            heapq.heappush(self.pairs, (deg, s, t, lcm))

    def _pair_ok(self, a: int, b: int) -> bool:
        """Is the (a, b) pair known to reduce to zero?  Monomial-monomial
        pairs qualify unconditionally: their S-polynomial is identically 0."""
        if self.basis[a].is_monomial and self.basis[b].is_monomial:
            return True
        return ((a, b) if a < b else (b, a)) in self.certified

    def chain_skippable(self, i: int, j: int, lcm: Monomial) -> bool:
        for k, elt in enumerate(self.basis):
            if k == i or k == j:
                continue
            if mono_divides(elt.lead, lcm):
                if self._pair_ok(i, k) and self._pair_ok(j, k):
                    return True
        return False

    def run(self) -> None:
        fld = self.ring.field
        while self.pairs:
            _, i, j, lcm = heapq.heappop(self.pairs)
            if (i, j) in self.certified:
                continue
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
        live = sorted(range(len(self.basis)), key=lambda i: keyf(self.basis[i].lead))
        kept: list[int] = []
        for i in live:
            li = self.basis[i].lead
            if not any(mono_divides(self.basis[k].lead, li) for k in kept):
                kept.append(i)
        fld = self.ring.field
        out = []
        for i in kept:
            elt = self.basis[i]
            others = [self.basis[k] for k in kept if k != i]
            sub = _Engine(self.ring, self.order, self.steps, self.trunc)
            sub.keyf = keyf
            sub.basis = others
            sub.divs = [e for e in others if not e.cover]
            red = sub.reduce_full(dict(elt.tail))
            out.append([(elt.lead, fld.one), *red.items()])
        return out  # kept is ascending by lead already


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    limits: Limits = DEFAULT_LIMITS,
    trunc: int | None = None,
    ring: RingSpec | None = None,
) -> list:
    """Reduced Groebner basis of the given generators.

    Returns a list of Polynomials sorted ascending by lead monomial.  With
    trunc=K the result is the reduced basis of the ideal generated by gens
    plus the K-th power of the ideal of all variables (gens may then be
    empty if ring is given).
    """
    gens = [g for g in gens if g]
    if not gens and (trunc is None or ring is None):
        raise InputError("cannot compute a basis for the zero list of generators")
    if gens:
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generators from different rings")
    order = order or ring.default_order
    steps = _Steps(limits.step_budget)
    eng = _Engine(ring, order, steps, trunc)
    if trunc is not None:
        if trunc < 1:
            raise InputError("truncation degree must be at least 1")
        keyf = eng.keyf
        for mono in sorted(ring.monomials_of_plain_degree(trunc), key=keyf):
            eng.add_cover(mono)
    for g in gens:
        eng.insert(dict(g.terms))
    eng.run()
    return [ring.from_terms(terms) for terms in eng.reduced_basis()]


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    limits: Limits = DEFAULT_LIMITS,
    trunc: int | None = None,
) -> Polynomial:
    """Remainder of f on full division by the (Groebner) basis, under the
    ring's default order."""
    ring = f.ring
    steps = _Steps(limits.step_budget)
    eng = _Engine(ring, ring.default_order, steps, trunc)
    fld = ring.field
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("basis element from a different ring")
        lead, lc = g.lead()
        inv = fld.inv(lc)
        tail = tuple((m, fld.mul(inv, c)) for m, c in g.terms if m != lead)
        elt = _Elt(lead, tail)
        eng.basis.append(elt)
        eng.divs.append(elt)
    return ring.from_terms(eng.reduce_full(dict(f.terms)))


# ---------------------------------------------------------------------------
# the Ideal type


class Ideal:
    """A finitely generated ideal of the ambient ring, with a cache of
    reduced Groebner bases keyed by (order, trunc) (first writer wins, safe
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

    def __repr__(self):
        inner = ", ".join(repr(g) for g in self.gens[:6])
        more = ", ..." if len(self.gens) > 6 else ""
        return f"Ideal({inner}{more})"

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner_basis(self, order: MonomialOrder | None = None, limits: Limits = DEFAULT_LIMITS,
                       trunc: int | None = None) -> tuple:
        """Reduced basis of the ideal, or with trunc=K of the ideal plus m^K."""
        key = (order or self.ring.default_order, trunc)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not self.gens and trunc is None:
            basis: tuple = ()
        else:
            basis = tuple(buchberger(self.gens, key[0], limits, trunc=trunc, ring=self.ring))
        return self._cache.setdefault(key, basis)

    def normal_form(self, f: Polynomial, limits: Limits = DEFAULT_LIMITS) -> Polynomial:
        basis = self.groebner_basis(None, limits)
        if not basis:
            return f
        return normal_form(f, basis, limits)

    def contains(self, f: Polynomial, limits: Limits = DEFAULT_LIMITS) -> bool:
        if not f:
            return True
        return not self.normal_form(f, limits)

    def is_unit_ideal(self, limits: Limits = DEFAULT_LIMITS) -> bool:
        return self.contains(self.ring.one(), limits)


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
    """Monomials of total degree < k outside the monomial ideal of the leads."""
    out = []
    for d in range(k):
        for m in ring.monomials_of_plain_degree(d):
            if not any(mono_divides(l, m) for l in leads):
                out.append(m)
                if cap is not None and len(out) > cap:
                    raise BudgetExceededError(f"standard monomial count exceeded cap {cap}")
    return out


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
