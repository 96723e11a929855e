"""Local rings presented as a polynomial ring modulo a defining ideal,
localised at the ideal of the variables.

The ambient data is exact: A is the localisation of S/a at m = (all
variables).  Ideals of A are handled through S-level representatives, and
every local question is answered by one of three certified routes:

* finite colength: if d_K = dim_k S/(b + m^K) satisfies d_K = d_{K+1} for a
  single K, Nakayama forces m^K (A/bA) = 0, so d_K is the exact length and
  b + m^K is the S-level avatar of bA (the quotient by b + m^K is supported
  only at the origin, so localisation changes nothing).  Membership in bA is
  then plain normal form against the truncated basis.

* graded: if b is homogeneous for the ring's weights, all its associated
  primes sit inside m, so bA cap S = b and S-level normal form already
  answers the local question.

* probe: for inhomogeneous b of positive dimension, f in bA implies f in
  b + m^K for every K, so a nonzero normal form at any K refutes membership
  with a certificate, while membership itself stays undecided within the
  budget.

Lengths of finite modules W/b with m^N W inside b are ranks of finitely many
normal forms, taken over the monomial multipliers of degree below N.

Basis store: a LocalRing interns each S-ideal a + J by its deduplicated
generator tuple, and the Ideal caches its bases by truncation (None or K), so
every basis the ring reads is computed once.  The store lives and dies with
its LocalRing and is never shared across rings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, UndecidableError
from .groebner import (
    Ideal,
    lead_ideal_dimension,
    min_lead_monomials,
    normal_form,
    standard_monomials_below,
)
from .idealops import (
    colon,
    ideal_power,
    ideal_product,
    maximal_ideal,
    saturate,
)
from .limits import DEFAULT_LIMITS, Limits
from .oracle import Echelon
from .ring import Polynomial, RingSpec


@dataclass(frozen=True)
class StableLength:
    """An exact length certified by one flat step of the m-adic filtration."""

    value: int
    level: int  # d_level == d_{level+1}, so m^level kills the module


@dataclass(frozen=True)
class Containment:
    holds: bool | None  # None: undecided within budget; True/False are certified
    method: str  # "finite-colength" | "graded" | "truncation-probe"
    witness: Polynomial | None = None
    level: int | None = None


@dataclass(frozen=True)
class Equality:
    equal: bool | None  # None: undecided within budget; True/False are certified
    forward: Containment  # I subset of J
    backward: Containment  # J subset of I


def _combine(forward: Containment, backward: Containment) -> Equality:
    if forward.holds is False or backward.holds is False:
        return Equality(False, forward, backward)
    if forward.holds and backward.holds:
        return Equality(True, forward, backward)
    return Equality(None, forward, backward)


class LocalRing:
    """A = (S/a) localised at the ideal of all variables."""

    def __init__(self, ring: RingSpec, defining, limits: Limits = DEFAULT_LIMITS):
        if isinstance(defining, Ideal):
            defining = defining.gens
        gens = []
        for g in defining:
            if g.ring != ring:
                raise InputError("defining polynomial from a different ring")
            if g and g.constant_term():
                raise InputError(
                    "defining ideal must be contained in the maximal ideal "
                    f"(offending generator: {g})"
                )
            if g:
                gens.append(g)
        self.ring = ring
        self.limits = limits
        self.auditor = None  # optional callable(record: dict)
        self._ideals: dict = {}  # the basis store: generator tuple -> Ideal
        self._len_cache: dict = {}
        self._dim: int | None = None
        self.defining = self._intern(gens)
        if gens and self.defining.is_unit_ideal(limits):
            raise InputError("defining ideal is the unit ideal; the quotient is the zero ring")

    # -- plumbing ---------------------------------------------------------------

    def ideal(self, gens) -> Ideal:
        if isinstance(gens, str):
            from .dsl import parse_poly_list

            gens = parse_poly_list(gens, self.ring)
        return Ideal(self.ring, gens)

    def zero_ideal(self) -> Ideal:
        return Ideal(self.ring, [])

    def maximal(self) -> Ideal:
        return maximal_ideal(self.ring)

    def _intern(self, gens) -> Ideal:
        fresh = Ideal(self.ring, gens)
        return self._ideals.setdefault(fresh.gens, fresh)

    def full(self, I: Ideal) -> Ideal:
        """The S-ideal a + I, interned so that its bases come from the store."""
        return self._intern(self.defining.gens + I.gens)

    def _emit(self, record: dict) -> None:
        if self.auditor is not None:
            self.auditor(record)

    def _is_graded_ideal(self, I: Ideal) -> bool:
        """Is a + I homogeneous for the ring's weights?

        An ideal is homogeneous iff its reduced basis under the (weighted
        degree first) default order is homogeneous.
        """
        basis = self.full(I).groebner_basis(None, self.limits)
        return all(g.weighted_degree() is not None for g in basis)

    # -- lengths ------------------------------------------------------------------

    def quotient_dim_at(self, I: Ideal, K: int) -> int:
        """d_K = dim_k S/(a + I + m^K), an exact finite number for every K."""
        full = self.full(I)
        basis = full.groebner_basis(None, self.limits, trunc=K)
        leads = min_lead_monomials(basis)
        dK = len(standard_monomials_below(leads, self.ring, K, cap=self.limits.dim_cap))
        self._emit({"kind": "quotient_dim", "ring": self.ring, "gens": full.gens, "K": K, "dim": dK})
        return dK

    def length_of_quotient(self, I: Ideal) -> StableLength | None:
        """Exact length of A/IA, or None when the quotient has positive
        dimension (certified for homogeneous ideals, budget-limited else)."""
        key = I.gens
        if key in self._len_cache:
            return self._len_cache[key]
        if self._is_graded_ideal(I):
            out = self._graded_length(I)
        else:
            prev = None
            out = None
            for K in range(1, self.limits.trunc_k_budget + 1):
                dK = self.quotient_dim_at(I, K)
                if prev is not None and dK == prev:
                    out = StableLength(dK, K - 1)
                    break
                prev = dK
        self._len_cache[key] = out
        return out

    def _graded_length(self, I: Ideal) -> StableLength | None:
        """Length read off one homogeneous reduced basis.

        For a weighted homogeneous ideal the localisation has finite length
        iff the lead-term ideal is zero dimensional, and then the standard
        monomials are a basis.  Every monomial of plain degree past their
        largest weighted degree reduces to a combination of standard
        monomials of its own weighted degree, hence to zero, so m^level
        lies inside the ideal at level = that maximum + 1.
        """
        full = self.full(I)
        basis = full.groebner_basis(None, self.limits)
        dim = lead_ideal_dimension(basis, self.ring)
        if dim > 0:
            return None
        if dim < 0:
            return StableLength(0, 1)
        leads = min_lead_monomials(basis)
        bound = 1
        for i in range(self.ring.nvars):
            pure = [m[i] for m in leads if sum(m) == m[i]]
            bound += min(pure) - 1
        std = standard_monomials_below(leads, self.ring, bound, cap=self.limits.dim_cap)
        level = 1 + max((self.ring.wdeg(m) for m in std), default=0)
        self._emit({"kind": "quotient_dim", "ring": self.ring, "gens": full.gens,
                    "K": level, "dim": len(std)})
        return StableLength(len(std), level)

    def require_length(self, I: Ideal, what: str = "quotient") -> StableLength:
        got = self.length_of_quotient(I)
        if got is None:
            if self._is_graded_ideal(I):
                raise InputError(
                    f"the {what} has positive dimension, so its length is infinite"
                )
            raise UndecidableError(
                f"length of the {what} did not stabilise within the truncation "
                f"budget of {self.limits.trunc_k_budget}; either the quotient has "
                "positive dimension or the budget is too small"
            )
        return got

    # -- membership and containment -------------------------------------------------

    def _nf_member(self, f: Polynomial, target: Ideal, K: int | None) -> bool:
        """Is f in the interned S-ideal target (+ m^K when K is given)?
        Decided by normal form."""
        basis = target.groebner_basis(None, self.limits, trunc=K)
        member = not normal_form(f, basis, self.limits, trunc=K)
        self._emit({"kind": "membership", "ring": self.ring, "f": f, "gens": target.gens, "K": K, "member": member})
        return member

    def check_contained(self, I: Ideal, J: Ideal) -> Containment:
        """Does IA sit inside JA?  Certified wherever possible; a negative
        answer is always certified, with a witness generator."""
        target = self.full(J)
        if self._is_graded_ideal(J):
            for g in I.gens:
                if not self._nf_member(g, target, None):
                    return Containment(False, "graded", witness=g)
            return Containment(True, "graded")
        stable = self.length_of_quotient(J)
        if stable is not None:
            K = max(stable.level, 1)
            for g in I.gens:
                if not self._nf_member(g, target, K):
                    return Containment(False, "finite-colength", witness=g, level=K)
            return Containment(True, "finite-colength", level=K)
        # probe: refutation is certified, confirmation is not available
        for K in range(1, self.limits.trunc_k_budget + 1):
            for g in I.gens:
                if not self._nf_member(g, target, K):
                    return Containment(False, "truncation-probe", witness=g, level=K)
        return Containment(None, "truncation-probe", level=self.limits.trunc_k_budget)

    def check_equal(self, I: Ideal, J: Ideal) -> Equality:
        return _combine(self.check_contained(I, J), self.check_contained(J, I))

    def require_equal_verdict(self, I: Ideal, J: Ideal, what: str) -> Equality:
        got = self.check_equal(I, J)
        if got.equal is None:
            raise UndecidableError(
                f"could not certify whether {what} within the truncation budget"
            )
        return got

    # -- dimension and multiplicity ---------------------------------------------------

    def krull_dim(self) -> int:
        """Dimension of A.

        For a homogeneous defining ideal every associated prime sits in m, so
        the global combinatorial dimension of the lead ideal is the local
        dimension.  Otherwise the growth degree of K -> d_K is measured and
        accepted once the (d+1)-st finite differences vanish twice in a row
        while the d-th stay positive.
        """
        if self._dim is not None:
            return self._dim
        if self._is_graded_ideal(self.zero_ideal()):
            if self.defining.is_zero:
                dim = self.ring.nvars
            else:
                basis = self.defining.groebner_basis(None, self.limits)
                dim = lead_ideal_dimension(basis, self.ring)
            self._dim = dim
            return dim
        dims = []
        for K in range(1, self.limits.trunc_k_budget + 1):
            dims.append(self.quotient_dim_at(self.zero_ideal(), K))
            d = _growth_degree(dims)
            if d is not None:
                self._dim = d
                return d
        raise UndecidableError(
            "could not determine the dimension from the growth of d_K within budget"
        )

    def multiplicity(self, Q: Ideal | None = None) -> int:
        """Samuel multiplicity e(Q) (Q defaults to the maximal ideal).

        Computed from exact lengths f(n) = len(A/Q^{n+1}) by finite
        differences: accepted once the (d+1)-st differences vanish at two
        consecutive points (f has become its Hilbert-Samuel polynomial there)
        and the d-th difference is constant; e = d! * leading coefficient =
        that constant.
        """
        d = self.krull_dim()
        if Q is None:
            Q = self.maximal()
        vals = []
        for n in range(self.limits.trunc_k_budget):
            if Q.gens == self.maximal().gens:
                # len(A/m^{n+1}) is d_{n+1} directly
                vals.append(self.quotient_dim_at(self.zero_ideal(), n + 1))
            else:
                got = self.require_length(ideal_power(Q, n + 1), f"power {n + 1} of the ideal")
                vals.append(got.value)
            e = _samuel_from_lengths(vals, d)
            if e is not None:
                return e
        raise UndecidableError(
            "multiplicity did not stabilise within the truncation budget"
        )

    # -- parameter ideals and the main checks -----------------------------------------

    def is_sop(self, Q: Ideal) -> bool:
        """Is Q generated by a system of parameters (dim-many generators with
        Artinian quotient)?"""
        d = self.krull_dim()
        if len(Q.gens) != d:
            return False
        if d == 0:
            return True
        got = self.length_of_quotient(Q)
        if got is None:
            if self._is_graded_ideal(Q):
                return False  # certified: the lead ideal has positive dimension
            raise UndecidableError(
                "could not decide Artinian-ness of A/Q within the truncation budget"
            )
        return True

    def socle_of(self, Q: Ideal) -> Ideal:
        """S-level representative of (QA : m), the socle enlargement of Q."""
        return colon(self.full(Q), self.maximal(), self.limits)

    def index_of_reducibility(self, Q: Ideal) -> int:
        """dim_k of the socle of A/QA = len((Q : m)/Q)."""
        lq = self.require_length(Q, "quotient by the parameter ideal").value
        li = self.require_length(self.socle_of(Q), "quotient by the socle enlargement").value
        return lq - li

    def h0(self):
        """(W, length, saturation exponent) for W = the S-level representative
        of the 0-th local cohomology H^0_m(A) = (0 :_A m^infinity)."""
        if self.defining.is_zero:
            return self.zero_ideal(), 0, 0
        W, N = saturate(self.defining, self.maximal(), self.limits)
        if N == 0:
            return W, 0, 0
        basis = self.defining.groebner_basis(None, self.limits)
        kept = [w for w in W.gens if normal_form(w, basis, self.limits)]
        W = Ideal(self.ring, kept)
        # m^N W sits inside a, so W/a is spanned by w * (monomials of degree < N)
        forms = []
        for w in W.gens:
            for mono in self.ring.monomials_below_plain_degree(N):
                f = w.mul_term(mono, self.ring.field.one)
                forms.append(normal_form(f, basis, self.limits))
        return W, _rank_of_forms(forms, self.ring), N

    def h0_length(self) -> int:
        return self.h0()[1]

    def reduction_number(self, I: Ideal, Q: Ideal, cap: int = 16) -> int:
        """Least r with I^{r+1} = Q I^r in A; Q must sit inside I locally."""
        got = self.check_contained(Q, I)
        if got.holds is not True:
            raise InputError("the candidate reduction is not contained in the ideal")
        for r in range(cap + 1):
            lhs = ideal_power(I, r + 1)
            rhs = ideal_product(Q, ideal_power(I, r))
            verdict = self.check_equal(lhs, rhs)
            if verdict.equal is True:
                return r
            if verdict.equal is None:
                raise UndecidableError(
                    f"equality of powers at step {r} undecided within budget"
                )
        raise UndecidableError(f"reduction number exceeds the cap of {cap}")


@dataclass(frozen=True)
class SocleEqualityReport:
    """Everything the main check learns about one parameter ideal."""

    equal: bool  # I^2 == Q I in A, for I = (Q : m)
    witness: Polynomial | None  # product generator outside Q I when unequal
    level: int | None  # truncation level that certified the verdict
    len_A_mod_Q: int
    len_A_mod_I: int
    socle_dim: int  # len(I/Q) = index of reducibility of Q
    socle_is_unit: bool  # I = A happens exactly when Q = m
    m_I_eq_m_Q: bool | None
    method: str


def check_socle_square(ring: LocalRing, Q: Ideal) -> SocleEqualityReport:
    """Decide I^2 = Q I for I = (Q : m), with supporting invariants."""
    if not ring.is_sop(Q):
        raise InputError(
            f"expected a parameter ideal: {len(Q.gens)} generators against dimension {ring.krull_dim()}"
        )
    I = ring.socle_of(Q)
    lq = ring.require_length(Q, "quotient by the parameter ideal").value
    li = ring.require_length(I, "quotient by the socle enlargement").value
    socle_dim = lq - li
    socle_is_unit = li == 0

    I2 = ideal_power(I, 2)
    QI = ideal_product(Q, I)
    verdict = ring.require_equal_verdict(I2, QI, "the socle square equals Q times the socle")

    mI = ideal_product(ring.maximal(), I)
    mQ = ideal_product(ring.maximal(), Q)
    m_eq = ring.check_equal(mI, mQ)

    bad = verdict.forward if verdict.forward.holds is False else verdict.backward
    witness = bad.witness if verdict.equal is False else None
    level = (verdict.forward.level if verdict.forward.level is not None else verdict.backward.level)
    return SocleEqualityReport(
        equal=bool(verdict.equal),
        witness=witness,
        level=level,
        len_A_mod_Q=lq,
        len_A_mod_I=li,
        socle_dim=socle_dim,
        socle_is_unit=socle_is_unit,
        m_I_eq_m_Q=m_eq.equal,
        method=verdict.forward.method,
    )


# ---------------------------------------------------------------------------
# numeric helpers


def _growth_degree(dims: list) -> int | None:
    """Degree of the eventual polynomial K -> dims[K], accepted when the next
    difference row ends with two zeros and this row ends with two equal
    positive values (needs at least 4 usable samples past the noise)."""
    row = list(dims)
    for d in range(len(dims)):
        nxt = [b - a for a, b in zip(row, row[1:])]
        if len(nxt) >= 3 and nxt[-1] == nxt[-2] == nxt[-3] == 0 and row[-1] == row[-2] > 0:
            return d
        row = nxt
        if not row:
            return None
    return None


def _samuel_from_lengths(vals: list, d: int) -> int | None:
    """e from f(n) = len(A/Q^{n+1}): accept once the (d+1)-st differences of f
    vanish at two consecutive points and the d-th difference is constant
    there; that constant is e."""
    if len(vals) < d + 3:
        return None
    row = list(vals)
    for _ in range(d):
        row = [b - a for a, b in zip(row, row[1:])]
    if len(row) < 3:
        return None
    if row[-1] == row[-2] == row[-3] and row[-1] > 0:
        return row[-1]
    return None


def _rank_of_forms(polys, ring: RingSpec) -> int:
    """Exact rank of the span of the given polynomials, by sparse row
    echelon with the ring's default order choosing pivots."""
    order, weights = ring.default_order, ring.weights
    ech = Echelon(ring.field, lambda m: order.key(m, weights))
    for p in polys:
        ech.add(dict(p.terms))
    return ech.rank
