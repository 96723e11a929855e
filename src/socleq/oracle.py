"""Independent cross-check engine built on plain row reduction.

Everything in here recomputes quantities the Groebner path also produces,
using nothing but linear algebra over the coefficient field: a finite
dimensional slice of the ring is spanned by explicit rows and reduced to
echelon form.  No S-polynomials and no monomial order (a row's pivot is its
largest exponent tuple in Python's own order).  The engine's colon kernel
and m-adic filtration row-reduce with this `Echelon` too, so the audit's
independence rests on its inputs (truncated slices of the ideal, not the
engine's reduced basis or multiplication table), not on separate linear
algebra: a bug would have to give the same answer twice, in two unrelated
computations, to go unnoticed.

The slice of the polynomial ring below plain degree K is a vector space
with monomial basis.  For generators g_1..g_r the rows

    truncate_K(u * g_i),   u a monomial with deg u < K - mindeg(g_i)

span exactly (g_1..g_r, m^K) intersected with that slice: any element of
the ideal is a sum of terms h*g_i, and the contribution of every monomial
of h with degree >= K - mindeg(g_i) lands entirely in degrees >= K, where
truncation kills it.  Quotient dimensions, memberships and socle ranks
all reduce to ranks of such row families.

A weighted homogeneous ideal H needs no truncation: f lies in H iff each
weighted-degree piece f_D lies in H_D, and H_D is spanned by the products
u*g_i with wdeg(u) = D - wdeg(g_i) (the homogeneous Macaulay matrix).
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import BudgetExceededError, UndecidableError
from .limits import DEFAULT_LIMITS
from .ring import Polynomial, RingSpec, mono_mul, plain_degree


def _dim_below(ring: RingSpec, K: int) -> int:
    """Number of monomials of plain degree < K, without enumerating them."""
    n = ring.nvars
    return math.comb(K - 1 + n, n)


def truncate_poly(f: Polynomial, K: int) -> dict:
    """Row form of f mod m^K: {mono: coeff} over degrees < K."""
    return {m: c for m, c in f.terms if plain_degree(m) < K}


class Echelon:
    """Incremental row echelon over an exact field.

    Rows are dicts keyed by mutually comparable labels (exponent tuples,
    or socle_dim's (i, m) pairs); the pivot of a row is its largest label
    in Python's own order.
    Any fixed total order gives the same span, rank and memberships, so no
    monomial order is involved.  Stored rows are monic at their pivot and
    reduced against the rows stored before them; a row reduces to the
    empty dict iff it lies in the span.
    """

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Fully reduce row against the stored rows; returns the residual,
        which carries no pivot label."""
        fld = self.field
        row = dict(row)
        out: dict = {}
        while row:
            piv = max(row)
            hit = self.pivots.get(piv)
            if hit is None:
                out[piv] = row.pop(piv)
                continue
            c = row[piv]
            for m, a in hit.items():
                b = fld.sub(row.get(m, fld.zero), fld.mul(c, a))
                if b:
                    row[m] = b
                else:
                    row.pop(m, None)
        return out

    def add(self, row: dict):
        """Insert a row; returns its pivot label, or None if dependent."""
        fld = self.field
        red = self.reduce(row)
        if not red:
            return None
        piv = max(red)
        inv = fld.inv(red[piv])
        self.pivots[piv] = {m: fld.mul(inv, c) for m, c in red.items()}
        return piv

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def _exponents(weights, D: int):
    """Exponent vectors of weighted degree D, walked directly."""
    w = weights[0]
    if len(weights) == 1:
        if D >= 0 and D % w == 0:
            yield (D // w,)
        return
    for e in range(D // w + 1):
        for rest in _exponents(weights[1:], D - e * w):
            yield (e, *rest)


def _spanning_rows(gens, K: int):
    """Yield the truncated multiples that span (gens, m^K) below degree K."""
    for g in gens:
        if not g:
            continue
        ones = (1,) * g.ring.nvars
        for d in range(K - g.min_plain_degree()):
            for u in _exponents(ones, d):
                row = {}
                for m, c in g.terms:
                    mm = mono_mul(u, m)
                    if plain_degree(mm) < K:
                        row[mm] = c
                if row:
                    yield row


def oracle_quotient_dim(ring: RingSpec, gens, K: int, cap: int = DEFAULT_LIMITS.dim_cap) -> int:
    """dim_k S/(gens + m^K), by counting monomials minus the row rank."""
    return TruncatedAlgebra(ring, gens, K, cap=cap).dim


def oracle_member(ring: RingSpec, gens, f: Polynomial, K: int,
                  cap: int = DEFAULT_LIMITS.dim_cap) -> bool:
    """Is f in (gens) + m^K?  Exact for every K."""
    return TruncatedAlgebra(ring, gens, K, cap=cap).contains(f)


# ---------------------------------------------------------------------------
# truncated algebras


class TruncatedAlgebra:
    """The finite dimensional algebra S/(gens + m^K), as echelon data.

    The only place that builds a slice: it checks the dimension cap and
    row-reduces the spanning rows.  Carries a monomial basis (the
    non-pivot monomials below degree K, enumerated on first use) and a
    normal form map; products of basis classes are formed by multiplying
    representatives, truncating, and reducing.
    """

    def __init__(self, ring: RingSpec, gens, K: int, cap: int = DEFAULT_LIMITS.dim_cap):
        total = _dim_below(ring, K)
        if total > cap:
            raise BudgetExceededError(
                f"truncated slice has dimension {total}, above the cap of {cap}"
            )
        self.ring = ring
        self.K = K
        self.ech = Echelon(ring.field)
        for row in _spanning_rows(gens, K):
            self.ech.add(row)
        self.dim = total - self.ech.rank

    @functools.cached_property
    def basis(self) -> tuple:
        ones = (1,) * self.ring.nvars
        return tuple(
            m for d in range(self.K) for m in _exponents(ones, d)
            if m not in self.ech.pivots
        )

    def nf(self, f: Polynomial) -> dict:
        """Normal form of f: a row supported on basis monomials only."""
        return self.ech.reduce(truncate_poly(f, self.K))

    def contains(self, f: Polynomial) -> bool:
        return not self.nf(f)

    def multiply_row(self, row: dict, g: Polynomial) -> dict:
        """Class of (row * g), reduced."""
        fld = self.ring.field
        out: dict = {}
        for m, c in row.items():
            for mg, cg in g.terms:
                mm = mono_mul(m, mg)
                if plain_degree(mm) >= self.K:
                    continue
                b = fld.add(out.get(mm, fld.zero), fld.mul(c, cg))
                if b:
                    out[mm] = b
                else:
                    out.pop(mm, None)
        return self.ech.reduce(out)

    def socle_dim(self) -> int:
        """Kernel dimension of multiplication by the variables.

        Computed as the kernel dimension of the stacked maps v -> v*x_i.
        This annihilator is a statement about the truncated algebra itself;
        relating it to the untruncated ring needs a stabilisation argument
        on the caller's side (see stable_socle_dim).
        """
        fld = self.ring.field
        xs = self.ring.gens()
        maps = Echelon(fld)
        for mu in self.basis:
            stacked: dict = {}
            for i, x in enumerate(xs):
                for m, c in self.multiply_row({mu: fld.one}, x).items():
                    stacked[(i, m)] = c
            maps.add(stacked)
        return self.dim - maps.rank


class GradedIdeal:
    """A weighted homogeneous ideal, row-reduced one weighted degree D at a
    time (the piece H_D, built on first use from the rows u*g).  Homogeneity
    is checked here, not taken from the caller: UndecidableError otherwise."""

    def __init__(self, ring: RingSpec, gens, cap: int = DEFAULT_LIMITS.dim_cap):
        self.ring = ring
        self.cap = cap
        self.gens = [(g.weighted_degree(), g) for g in gens if g]
        if any(d is None for d, _ in self.gens):
            raise UndecidableError("GradedIdeal needs weighted homogeneous generators")
        self._pieces: dict = {}

    def _piece(self, D: int) -> Echelon:
        ech = self._pieces.get(D)
        if ech is None:
            w = self.ring.weights
            width = sum(1 for _ in itertools.islice(_exponents(w, D), self.cap + 1))
            if width > self.cap:
                raise BudgetExceededError(f"degree {D} piece is wider than the cap of {self.cap}")
            ech = Echelon(self.ring.field)
            rows = ({mono_mul(u, m): c for m, c in g.terms}
                    for d, g in self.gens for u in _exponents(w, D - d))
            for row in rows:
                ech.add(row)
                if ech.rank == width:
                    break  # H_D is all of degree D: every further row is dependent
            self._pieces[D] = ech
        return ech

    def contains(self, f: Polynomial) -> bool:
        split: dict = {}
        for m, c in f.terms:
            split.setdefault(self.ring.wdeg(m), {})[m] = c
        return all(self._piece(D).contains(row) for D, row in split.items())


def stable_socle_dim(ring: RingSpec, gens, budget: int,
                     cap: int = DEFAULT_LIMITS.dim_cap) -> tuple:
    """Socle dimension of S/(gens), certified by dimension stabilisation.

    Runs its own K loop: once dim S/(gens + m^K) equals dim S/(gens + m^{K+1})
    the ideal contains m^K up to the stable part (Nakayama on the finite
    local algebra), so the truncated model at that K *is* S/(gens) and its
    socle is the true one.  Returns (socle_dim, quotient_dim, K).
    """
    prev = None
    for K in range(1, budget + 1):
        alg = TruncatedAlgebra(ring, gens, K, cap=cap)
        if prev is not None and alg.dim == prev[1]:
            return prev[0].socle_dim(), prev[1], K - 1
        prev = (alg, alg.dim)
    raise BudgetExceededError(
        f"quotient dimension did not stabilise within the truncation budget of {budget}"
    )


# ---------------------------------------------------------------------------
# audit hook


class OracleAuditor:
    """Recomputes the certified answers a LocalRing emits, independently.

    Attach an instance as ``local.auditor``; every quotient dimension and
    membership decision the local layer certifies is then re-derived by
    row reduction, with mismatches recorded: graded-route memberships
    (K=None) one weighted degree at a time, everything else on a truncated
    slice.  A slice or degree piece wider than dim_cap is counted as
    skipped rather than ground through, so audits stay cheap everywhere.
    """

    def __init__(self, dim_cap: int = 2000):
        self.dim_cap = dim_cap
        self.checked = 0
        self.skipped = 0
        self.mismatches: list = []
        self._key = None
        self._alg = None

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "skipped": self.skipped,
            "mismatches": len(self.mismatches),
        }

    def __call__(self, event: dict) -> None:
        try:
            oracle = self._oracle(event["ring"], event["gens"], event["K"])
            if event["kind"] == "membership":
                got, want = oracle.contains(event["f"]), event["member"]
            else:
                got, want = oracle.dim, event["dim"]
        except (BudgetExceededError, UndecidableError):
            # over the cap, or a graded-route event whose generators are not
            # visibly homogeneous: the engine's word for that is not taken
            self.skipped += 1
            return
        self.checked += 1
        if got != want:
            self.mismatches.append({**event, "oracle": got})

    def _oracle(self, ring: RingSpec, gens, K: int | None):
        """The slice of (gens, K), or for K=None the graded ideal of gens.
        Only the previous event's is kept, and it is dropped before a new
        one is built, so at most one is alive at a time."""
        key = (ring, gens, K)
        if self._key != key:
            self._key = self._alg = None
            self._alg = (GradedIdeal(ring, gens, cap=self.dim_cap) if K is None
                         else TruncatedAlgebra(ring, gens, K, cap=self.dim_cap))
            self._key = key
        return self._alg
