"""Local rings presented as a polynomial ring modulo a defining ideal,
localised at the ideal of the variables.

The ambient data is exact: A is the localisation of S/a at m = (all
variables).  Ideals of A are handled through S-level representatives, and
every local question is answered by one of three certified routes:

* finite colength: if d_K = dim_k S/(b + m^K) satisfies d_K = d_{K+1} for a
  single K, Nakayama forces m^K (A/bA) = 0, so d_K is the exact length and
  b + m^K is the S-level avatar of bA (the quotient by b + m^K is supported
  only at the origin, so localisation changes nothing).
  When the reduced basis of b has a lead ideal of dimension at most 0,
  V = S/b is finite dimensional and d_K = dim V/m^K V is read off the
  m-adic filtration of V: m^K V is spanned by the x_j times a basis of
  m^(K-1) V, through one multiplication table on the standard monomials.
  V is the product of its local algebras, one per point; m is nilpotent on
  the origin's factor and generates the unit ideal of every other, so m^K V
  shrinks to the factors away from the origin and V/m^K V at the flat step
  is V_m = A/bA.  Membership in b + m^K is then NF(f) in m^K V.  Otherwise
  (a positive-dimensional lead ideal, or more than dim_cap standard
  monomials) each d_K is counted off the reduced basis of b + m^K, an
  ordinary ideal of the store generated by b and the monomials of plain
  degree K, and membership is plain normal form against it.  The audit of
  these events rests on truncated slices of b + m^K (see `oracle`).

* graded: if b is homogeneous for the ring's weights, all its associated
  primes sit inside m, so bA cap S = b and S-level normal form already
  answers the local question.

* probe: for inhomogeneous b of positive dimension, f in bA implies f in
  b + m^K for every K, so a nonzero normal form at any K refutes membership
  with a certificate, while membership itself stays undecided within the
  budget.

Lengths of finite modules W/b with m^N W inside b are ranks of finitely many
normal forms, taken over the monomial multipliers of degree below N.

Basis store: a LocalRing interns each S-ideal a + J, and each a + J + m^K,
by its deduplicated generator tuple, and the Ideal caches its reduced basis,
so every basis the ring reads is computed once.  The store lives and dies with
its LocalRing and is never shared across rings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InputError, UndecidableError
from .groebner import (
    Ideal,
    lead_ideal_dimension,
    multiplication_table,
    normal_forms,
    standard_monomials,
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
        self._spans: dict = {}  # generator tuple of a + J -> (level, basis, stable span)
        self._dim: int | None = None
        self.defining = self._intern(gens)

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
        key = tuple(dict.fromkeys(g for g in gens if g))
        got = self._ideals.get(key)
        if got is None:  # a miss builds the Ideal, which checks the ring
            got = self._ideals[key] = Ideal(self.ring, key)
        return got

    def full(self, I: Ideal) -> Ideal:
        """The S-ideal a + I, interned so that its bases come from the store."""
        return self._intern(self.defining.gens + I.gens)

    def _emit(self, record: dict) -> None:
        if self.auditor is not None:
            self.auditor(record)

    def _is_graded_ideal(self, I: Ideal) -> bool:
        """Is a + I homogeneous for the ring's weights?"""
        return self.full(I).is_homogeneous(self.limits)

    # -- lengths ------------------------------------------------------------------

    def _basis(self, full: Ideal, K: int | None) -> tuple:
        """Reduced basis of the interned ideal full, or with K given of
        full + m^K, interned as the generators of full followed by the
        monomials of plain degree K.  The monomials come in descending
        default order, which measured fastest of the orders tried on
        inhomogeneous presentations (see BENCH_no_truncated_mode.json)."""
        if K is not None:
            one = self.ring.field.one
            monos = (self.ring.from_terms({m: one}) for m in self.ring.monomials_of_plain_degree(K))
            full = self._intern((*full.gens, *monos))
        return full.groebner_basis(None, self.limits)

    def quotient_dim_at(self, I: Ideal, K: int) -> int:
        """d_K = dim_k S/(a + I + m^K), an exact finite number for every K."""
        full = self.full(I)
        leads = [g.lead()[0] for g in self._basis(full, K)]
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
            out = self._filtered_length(I)
        self._len_cache[key] = out
        return out

    def _filtered_length(self, I: Ideal) -> StableLength | None:
        """Length of A/IA for an inhomogeneous a + I, at the first flat step
        of K -> d_K = dim_k S/(a + I + m^K).

        When the reduced basis B of a + I has a lead ideal of dimension at
        most 0, the d_K come from the m-adic filtration of V = S/(a + I)
        (see `_filtration`), and its stable span is kept for membership;
        otherwise, or past dim_cap standard monomials, from the bases of
        a + I + m^K.
        """
        full = self.full(I)
        basis = full.groebner_basis(None, self.limits)
        try:
            std = standard_monomials(basis, self.ring, self.limits.dim_cap)
        except BudgetExceededError:
            std = None
        if std is None:
            steps = ((self.quotient_dim_at(I, K), None)
                     for K in range(1, self.limits.trunc_k_budget + 1))
        else:
            steps = self._filtration(full, basis, std)
        prev = None
        for K, (dK, span) in enumerate(steps, 1):
            if dK == prev:
                if span is not None:
                    self._spans[full.gens] = (K - 1, basis, span)
                return StableLength(dK, K - 1)
            prev = dK
        return None

    def _filtration(self, full: Ideal, basis, std):
        """Yield (d_K, echelon of m^K V) for K = 1 .. trunc_k_budget, with
        one quotient_dim event each, where V = S/full has the standard
        monomials std of its reduced basis as a basis.

        d_K = dim V/m^K V, and m^K V is spanned by the x_j*w for w in a
        basis of m^(K-1) V, starting from V itself; x_j acts by the
        multiplication table.
        """
        fld, nvars = self.ring.field, self.ring.nvars
        units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
        table = multiplication_table(basis, std, units, self.limits)
        rows = [{b: fld.one} for b in std]
        for K in range(1, self.limits.trunc_k_budget + 1):
            span = Echelon(fld)
            for w in rows:
                for j in range(nvars):
                    image: dict = {}
                    for b, c in w.items():
                        for m, t in table[b][j]:
                            s = fld.add(image.get(m, fld.zero), fld.mul(c, t))
                            if s:
                                image[m] = s
                            else:
                                image.pop(m, None)
                    span.add(image)
            rows = span.pivots.values()
            dK = len(std) - span.rank
            self._emit({"kind": "quotient_dim", "ring": self.ring, "gens": full.gens, "K": K, "dim": dK})
            yield dK, span

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
        std = standard_monomials(full.groebner_basis(None, self.limits), self.ring, self.limits.dim_cap)
        if std is None:
            return None
        if not std:
            return StableLength(0, 1)
        level = 1 + max(self.ring.wdeg(m) for m in std)
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

    def _nf_members(self, fs, target: Ideal, K: int | None):
        """Yield (f, whether f is in the interned S-ideal target, + m^K when
        K is given) for each f in fs, decided by normal form as it is asked
        for, with one membership event each.

        At the stable level of a filtered target, f is a member iff its
        normal form by the global basis lies in the stable span."""
        stable = self._spans.get(target.gens)
        if stable is not None and stable[0] == K:
            _, basis, span = stable
            rems = (span.reduce(dict(rem.terms)) for rem in normal_forms(fs, basis, self.limits))
        else:
            rems = normal_forms(fs, self._basis(target, K), self.limits)
        for f, rem in zip(fs, rems):
            member = not rem
            self._emit({"kind": "membership", "ring": self.ring, "f": f, "gens": target.gens, "K": K, "member": member})
            yield f, member

    def check_contained(self, I: Ideal, J: Ideal) -> Containment:
        """Does IA sit inside JA?  Certified wherever possible; a negative
        answer is always certified, with a witness generator."""
        target = self.full(J)
        if self._is_graded_ideal(J):
            method, levels = "graded", [None]
        elif (stable := self.length_of_quotient(J)) is not None:
            method, levels = "finite-colength", [max(stable.level, 1)]
        else:
            # probe: refutation is certified, confirmation is not available
            method, levels = "truncation-probe", range(1, self.limits.trunc_k_budget + 1)
        for K in levels:
            for g, member in self._nf_members(I.gens, target, K):
                if not member:
                    return Containment(False, method, witness=g, level=K)
        holds = None if method == "truncation-probe" else True
        return Containment(holds, method, level=levels[-1] if levels else 0)

    def check_equal(self, I: Ideal, J: Ideal) -> Equality:
        return _combine(self.check_contained(I, J), self.check_contained(J, I))

    # -- dimension and multiplicity ---------------------------------------------------

    def krull_dim(self) -> int:
        """Dimension of A.

        For a homogeneous defining ideal every associated prime sits in m, so
        the global combinatorial dimension of the lead ideal is the local
        dimension.  Otherwise only dimension 0 is certified, by a flat step
        of K -> d_K (Nakayama); a positive dimension is refused.
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
        if self.length_of_quotient(self.zero_ideal()) is not None:
            self._dim = 0
            return 0
        raise UndecidableError(
            "a positive dimension is not certified for a presentation that is "
            "not weighted-homogeneous"
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
        kept = [w for w, rem in zip(W.gens, normal_forms(W.gens, basis, self.limits)) if rem]
        W = Ideal(self.ring, kept)
        # m^N W sits inside a, so W/a is spanned by w * (monomials of degree < N)
        one = self.ring.field.one
        spanning = (w.mul_term(mono, one) for w in W.gens
                    for mono in self.ring.monomials_below_plain_degree(N))
        ech = Echelon(self.ring.field)
        for rem in normal_forms(spanning, basis, self.limits):
            ech.add(dict(rem.terms))
        return W, ech.rank, N

    def h0_length(self) -> int:
        return self.h0()[1]

    def reduction_number(self, I: Ideal, Q: Ideal, cap: int = 16) -> int:
        """Least r with I^{r+1} = Q I^r in A; Q must sit inside I locally.

        Q inside I gives Q I^r inside I^{r+1}, so once that is certified each
        step only decides I^{r+1} inside Q I^r.
        """
        inside = self.check_contained(Q, I).holds
        if inside is None:
            raise UndecidableError("could not certify within budget that the "
                                   "candidate reduction is contained in the ideal")
        if inside is False:
            raise InputError("the candidate reduction is not contained in the ideal")
        for r in range(cap + 1):
            lhs = ideal_power(I, r + 1)
            rhs = ideal_product(Q, ideal_power(I, r))
            holds = self.check_contained(lhs, rhs).holds
            if holds is True:
                return r
            if holds is None:
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
    """Decide I^2 = Q I for I = (Q : m), with supporting invariants.

    Q inside I gives Q I inside I^2 and m Q inside m I, so once that one
    containment is certified each equality is decided by its other half.
    """
    if not ring.is_sop(Q):
        raise InputError(
            f"expected a parameter ideal: {len(Q.gens)} generators against dimension {ring.krull_dim()}"
        )
    I = ring.socle_of(Q)
    lq = ring.require_length(Q, "quotient by the parameter ideal").value
    li = ring.require_length(I, "quotient by the socle enlargement").value
    socle_dim = lq - li
    socle_is_unit = li == 0

    if ring.check_contained(Q, I).holds is not True:
        raise UndecidableError(
            "could not certify that the parameter ideal lies in its socle enlargement"
        )
    verdict = ring.check_contained(ideal_power(I, 2), ideal_product(Q, I))
    if verdict.holds is None:
        raise UndecidableError(
            "could not certify whether the socle square equals Q times the socle "
            "within the truncation budget"
        )
    m = ring.maximal()
    m_eq = ring.check_contained(ideal_product(m, I), ideal_product(m, Q))
    return SocleEqualityReport(
        equal=verdict.holds,
        witness=verdict.witness,
        level=verdict.level,
        len_A_mod_Q=lq,
        len_A_mod_I=li,
        socle_dim=socle_dim,
        socle_is_unit=socle_is_unit,
        m_I_eq_m_Q=m_eq.holds,
        method=verdict.method,
    )


# ---------------------------------------------------------------------------
# numeric helpers


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
