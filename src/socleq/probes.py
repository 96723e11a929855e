"""Structural probes built on the certified local layer.

Three families live here:

* sequence conditions (d-sequences, their powered strengthening, weak
  sequences), decided colon by colon.  Each colon equality is tried at
  the S-level first: equal S-ideals have equal localisations, so a
  reduced-basis match already certifies the local statement.  Only when
  the S-level comparison fails does the certified local machinery take
  over, and the verdict records which route decided.

* identity verifiers for two colon-splitting laws that hold in every
  commutative ring.  Working in R = S/a with ideals represented by their
  a-containing preimages makes the verification exact: colons, sums and
  products of such preimages compute the corresponding R-ideals on the
  nose, no truncation involved.  A colon X : M of a preimage X is taken
  by M itself, not by its preimage a + M: X contains a, so X : a = S and
  X : (a + M) = (X : a) cap (X : M) = X : M exactly.  Hypotheses are
  checked first and instances that fail them are reported as skipped,
  never as violations.  Each verifier call shares one intersection memo
  among its colons and drops it when it returns.

* seeded sampling probes (type estimate, weak-sequence scan, invariance
  of length minus multiplicity, greedy depth).  These report what the
  sample showed; a positive scan is evidence, not a certificate, and the
  verdict says so through its method field.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InputError, UndecidableError
from .groebner import Ideal
from .idealops import colon, colon_by_poly, equal_as_s_ideals, ideal_power, ideal_product, ideal_sum
from .localring import LocalRing
from .ring import Polynomial


@dataclass(frozen=True)
class ProbeVerdict:
    holds: bool | None  # None: undecided or skipped
    certified: bool
    method: str
    details: tuple = ()
    witness: str | None = None

    def __bool__(self):
        return self.holds is True


# -- colon comparison plumbing -------------------------------------------------


def _local_equal(local: LocalRing, I: Ideal, J: Ideal):
    """(equal, certified, method) for IA = JA, cheapest certificate first."""
    if equal_as_s_ideals(I, J, local.limits):
        return True, True, "s-level"
    got = local.check_equal(Ideal(local.ring, I.gens), Ideal(local.ring, J.gens))
    if got.equal is None:
        return None, False, "truncation-probe"
    return got.equal, got.certified, got.forward.method


def _require_in_m(seq):
    for x in seq:
        if not x or x.constant_term():
            raise InputError(f"sequence entries must be nonzero non-units: {x}")


# -- sequence conditions ---------------------------------------------------------


def is_d_sequence(local: LocalRing, seq, memo: dict | None = None) -> ProbeVerdict:
    """Does (x_1..x_{i-1}) : x_i = (x_1..x_{i-1}) : x_i x_j hold in A for
    all 1 <= i <= j <= s?

    memo, when given, is the intersection memo of the colons (see
    `idealops.colon_by_poly`), shared by a caller that checks several
    sequences over one ring."""
    seq = list(seq)
    _require_in_m(seq)
    details = []
    worst = "s-level"
    for i in range(1, len(seq) + 1):
        base = local.full(Ideal(local.ring, seq[: i - 1]))
        rhs = colon_by_poly(base, seq[i - 1], local.limits, memo)
        for j in range(i, len(seq) + 1):
            lhs = colon_by_poly(base, seq[i - 1] * seq[j - 1], local.limits, memo)
            equal, certified, method = _local_equal(local, lhs, rhs)
            details.append((i, j, equal, method))
            if method != "s-level":
                worst = method
            if equal is False:
                return ProbeVerdict(False, certified, method, tuple(details),
                                    witness=f"colon pair (i={i}, j={j})")
            if equal is None:
                return ProbeVerdict(None, False, method, tuple(details),
                                    witness=f"colon pair (i={i}, j={j}) undecided")
    return ProbeVerdict(True, True, worst, tuple(details))


def is_strong_d_sequence(local: LocalRing, seq, exp_bound: int,
                         memo: dict | None = None) -> ProbeVerdict:
    """Bounded form of the powered condition: checks that every tuple of
    powers in [1, exp_bound]^s is a d-sequence.  The unbounded statement
    quantifies over all exponents; the verdict only vouches for the box
    it actually visited.  One intersection memo (memo, or a fresh one)
    serves every tuple, which repeat each other's colons."""
    seq = list(seq)
    if exp_bound < 1:
        raise InputError("exponent bound must be at least 1")
    memo = {} if memo is None else memo
    details = []
    for exps in itertools.product(range(1, exp_bound + 1), repeat=len(seq)):
        got = is_d_sequence(local, [x ** n for x, n in zip(seq, exps)], memo)
        details.append((exps, got.holds, got.method))
        if got.holds is not True:
            return ProbeVerdict(got.holds, got.certified, got.method,
                                tuple(details), witness=f"exponents {exps}")
    return ProbeVerdict(True, True, f"all exponent tuples up to {exp_bound}",
                        tuple(details))


def is_weak_sequence(local: LocalRing, seq) -> ProbeVerdict:
    """Does (x_1..x_{i-1}) : x_i = (x_1..x_{i-1}) : m hold in A for all i?"""
    seq = list(seq)
    _require_in_m(seq)
    details = []
    worst = "s-level"
    for i in range(1, len(seq) + 1):
        base = local.full(Ideal(local.ring, seq[: i - 1]))
        lhs = colon_by_poly(base, seq[i - 1], local.limits)
        rhs = colon(base, local.maximal(), local.limits)
        equal, certified, method = _local_equal(local, lhs, rhs)
        details.append((i, equal, method))
        if method != "s-level":
            worst = method
        if equal is False:
            return ProbeVerdict(False, certified, method, tuple(details),
                                witness=f"step i={i}")
        if equal is None:
            return ProbeVerdict(None, False, method, tuple(details),
                                witness=f"step i={i} undecided")
    return ProbeVerdict(True, True, worst, tuple(details))


# -- colon-splitting identity verifiers -------------------------------------------


def _skipped(reason: str) -> ProbeVerdict:
    return ProbeVerdict(None, False, "skipped (hypotheses)", witness=reason)


def lemma_colon_split(local: LocalRing, L: Ideal, x: Polynomial, W: Ideal,
                      M: Ideal, n: int) -> ProbeVerdict:
    """Verify the colon-splitting law for one instance.

    Hypotheses (checked, not assumed): n >= 2, x in M, L : x^2 = L : x,
    and x*W = 0, all as statements about A.  Conclusion checked:

        (L + (x^n) + W) : M  =  ((L + W) : M) + ((L + (x^n)) : M)

    and, when L : x = L : M also holds, the sharper form

        (L + (x^n) + W) : M  =  (L + (x^n)) : M.

    The law holds in every commutative ring, so a genuine violation in
    R = S/a would be an engine bug; that is exactly what this verifier
    hunts for.  Every numerator here (a + L + (x^n) + W, a + L + W,
    a + L + (x^n), a + L) contains a, so dividing it by M gives its colon
    by a + M exactly, with no elimination spent on the generators of a.
    """
    if n < 2:
        return _skipped("exponent below 2")
    if not x or x.constant_term():
        return _skipped("x must be a nonzero non-unit")
    Lf, Wf = local.full(L), local.full(W)
    memo: dict = {}

    inM = local.check_contained(Ideal(local.ring, [x]), M)
    if inM.holds is not True:
        return _skipped("x not certified to lie in M")

    lx = colon_by_poly(Lf, x, local.limits, memo)
    lx2 = colon_by_poly(Lf, x * x, local.limits, memo)
    eq, _, _ = _local_equal(local, lx2, lx)
    if eq is not True:
        return _skipped("L : x^2 = L : x failed or undecided")

    xw = Ideal(local.ring, [x * w for w in W.gens])
    kills = local.check_contained(xw, local.zero_ideal())
    if kills.holds is not True:
        return _skipped("x*W = 0 failed or undecided")

    xn = Ideal(local.ring, [x ** n])
    lhs = colon(ideal_sum(ideal_sum(Lf, xn), Wf), M, local.limits, memo)
    part1 = colon(ideal_sum(Lf, Wf), M, local.limits, memo)
    part2 = colon(ideal_sum(Lf, xn), M, local.limits, memo)
    eq1, cert1, method1 = _local_equal(local, lhs, ideal_sum(part1, part2))
    details = [("split", eq1, method1)]
    if eq1 is not True:
        return ProbeVerdict(eq1, cert1, method1, tuple(details),
                            witness="split identity failed")

    lm = colon(Lf, M, local.limits, memo)
    sharp_applies, _, _ = _local_equal(local, lx, lm)
    if sharp_applies is True:
        eq2, cert2, method2 = _local_equal(local, lhs, part2)
        details.append(("sharp", eq2, method2))
        if eq2 is not True:
            return ProbeVerdict(eq2, cert2, method2, tuple(details),
                                witness="sharp form failed")
    return ProbeVerdict(True, cert1, method1, tuple(details))


def powered_colon_split(local: LocalRing, seq, exps, M: Ideal | None = None) -> ProbeVerdict:
    """Verify the powered colon-splitting law for one instance.

    For a strong d-sequence x_1..x_s (pre-checked on the exponent box up
    to max(exps)), Q = (x_1..x_s), W = 0 : Q, and any ideal M containing
    Q, with all exponents >= 2:

        ((x_1^{n_1}, .., x_s^{n_s}) + W) : M
            =  W + ((x_1^{n_1}, .., x_s^{n_s}) : M).

    Both numerators, a + P + W and a + P with P the powered ideal,
    contain a, so dividing them by M gives their colons by a + M exactly.
    """
    seq, exps = list(seq), list(exps)
    if len(seq) != len(exps):
        raise InputError("one exponent per sequence entry")
    if any(n < 2 for n in exps):
        return _skipped("all exponents must be at least 2")
    if M is None:
        M = local.maximal()
    Q = Ideal(local.ring, seq)
    contained = local.check_contained(Q, M)
    if contained.holds is not True:
        return _skipped("Q not certified to lie in M")
    memo: dict = {}
    pre = is_strong_d_sequence(local, seq, exp_bound=max(exps), memo=memo)
    if pre.holds is not True:
        return _skipped("sequence is not a strong d-sequence on the tested box")

    W = colon(local.full(local.zero_ideal()), Q, local.limits, memo)
    powered = Ideal(local.ring, [x ** n for x, n in zip(seq, exps)])
    Pf = local.full(powered)
    lhs = colon(ideal_sum(Pf, W), M, local.limits, memo)
    rhs = ideal_sum(W, colon(Pf, M, local.limits, memo))
    eq, certified, method = _local_equal(local, lhs, rhs)
    return ProbeVerdict(eq, certified, method, ((tuple(exps), eq, method),),
                        witness=None if eq is True else "powered split failed")


def m_multiples_check(local: LocalRing, Q: Ideal, I: Ideal | None = None,
                      nmax: int = 4) -> ProbeVerdict:
    """Compare m I^n with m Q^n for n = 1..nmax (I defaults to Q : m).

    The n = 1 row also records plain containment m I in m Q, which is the
    multiplicity-one detector: on one side it forces e(A) = 1, on the
    other e(A) > 1 forces equality for every n.
    """
    if I is None:
        I = local.socle_of(Q)
    m = local.maximal()
    details = []
    all_equal = True
    certified = True
    cont = local.check_contained(ideal_product(m, I), ideal_product(m, Q))
    details.append(("mI in mQ", cont.holds, cont.method))
    for n in range(1, nmax + 1):
        lhs = ideal_product(m, ideal_power(I, n))
        rhs = ideal_product(m, ideal_power(Q, n))
        eq, cert, method = _local_equal(local, local.full(lhs), local.full(rhs))
        details.append((n, eq, method))
        if eq is not True:
            all_equal = False
            certified = certified and (eq is False and cert)
    return ProbeVerdict(all_equal, certified, "per-power comparison",
                        tuple(details))


# -- seeded sampling probes -------------------------------------------------------


def sample_element(local: LocalRing, depth: int, rng: random.Random) -> Polynomial:
    """One random combination of monomials of plain degree depth, with
    small integer coefficients (field-independent draws, so runs over
    different fields see the same instances).

    All terms share the weighted degree of the first draw, so sampled
    elements are homogeneous and graded certificates stay available.  On
    equal-weight rings this restriction is vacuous.
    """
    ring = local.ring
    monos = ring.monomials_of_plain_degree(depth)
    while True:
        terms = []
        pool = monos
        for i in range(rng.randrange(1, 4)):
            m = rng.choice(pool)
            if i == 0:
                w = ring.wdeg(m)
                pool = [mm for mm in monos if ring.wdeg(mm) == w]
            terms.append((m, rng.choice([-2, -1, 1, 2])))
        f = ring.from_terms((m, ring.field.from_int(c)) for m, c in terms)
        if f:
            return f


def sample_sop(local: LocalRing, depth: int, rng: random.Random,
               max_draws: int) -> Ideal:
    """A random system of parameters inside m^depth, verified Artinian."""
    d = local.krull_dim()
    if d == 0:
        return local.zero_ideal()
    for _ in range(max_draws):
        cand = local.ideal([sample_element(local, depth, rng) for _ in range(d)])
        try:
            if local.is_sop(cand):
                return cand
        except UndecidableError:
            continue
    raise UndecidableError(
        f"no system of parameters found in m^{depth} after {max_draws} draws"
    )


@dataclass(frozen=True)
class TypeEstimate:
    """Sampled lower bound for the maximal index of reducibility."""

    estimate: int
    values: tuple
    depth: int

    def is_constant(self) -> bool:
        return len(set(self.values)) == 1


def estimate_cm_type(local: LocalRing, depth_level: int, samples: int,
                     seed: int) -> TypeEstimate:
    """Max (and multiset) of the index of reducibility over sampled
    parameter ideals with generators drawn from m^depth_level.

    A sampled maximum is a lower bound for the true supremum; for the
    ring classes this engine targets the value becomes independent of Q
    once Q sits deep enough, which is why the caller picks depth_level.
    Never a certified invariant; the return type says estimate.
    """
    rng = random.Random(seed)
    values = []
    for _ in range(samples):
        q = sample_sop(local, depth_level, rng, max_draws=100 * samples)
        values.append(local.index_of_reducibility(q))
    return TypeEstimate(max(values), tuple(values), depth_level)


def buchsbaum_probe(local: LocalRing, samples: int, seed: int) -> ProbeVerdict:
    """Scan sampled systems of parameters for the weak-sequence property.

    Every system passing is a necessary condition for the length minus
    multiplicity difference to be constant; one certified failure
    refutes it outright.
    """
    rng = random.Random(seed)
    details = []
    for k in range(samples):
        q = sample_sop(local, 1, rng, max_draws=100 * samples)
        got = is_weak_sequence(local, list(q.gens))
        details.append((k, got.holds, got.method))
        if got.holds is False:
            gens = ", ".join(str(g) for g in q.gens)
            return ProbeVerdict(False, got.certified, "sampled scan",
                                tuple(details), witness=f"parameters ({gens})")
        if got.holds is None:
            return ProbeVerdict(None, False, "sampled scan", tuple(details),
                                witness="undecided instance")
    return ProbeVerdict(True, False, "sampled scan", tuple(details))


@dataclass(frozen=True)
class InvarianceReport:
    """Value set of length(A/Q) - e_Q(A) over sampled parameter ideals."""

    values: tuple  # distinct values, sorted
    per_sample: tuple

    def is_constant(self) -> bool:
        return len(self.values) == 1


def invariance_probe(local: LocalRing, samples: int, seed: int) -> InvarianceReport:
    rng = random.Random(seed)
    per = []
    for _ in range(samples):
        q = sample_sop(local, 1, rng, max_draws=100 * samples)
        diff = local.require_length(q, "parameter quotient").value - local.multiplicity(q)
        per.append(diff)
    return InvarianceReport(tuple(sorted(set(per))), tuple(per))


def depth_probe(local: LocalRing, extra_tries: int = 8) -> int:
    """Greedy lower bound for the depth, exact on small rings.

    Extends a regular sequence one element at a time; x is accepted when
    (b : x) is certified to collapse into b locally, which is exactly
    x being a nonzerodivisor on A.  Candidates are the variables, then
    sums of two variables, then a few seeded combinations; if none of
    them is regular the search stops, so the result is a lower bound.
    """
    ring = local.ring
    rng = random.Random(11)
    depth = 0
    current = local
    dim = local.krull_dim()
    while depth < dim:
        found = None
        for x in _depth_candidates(ring, rng, extra_tries):
            base = current.full(current.zero_ideal())
            c = colon_by_poly(base, x, current.limits)
            back = current.check_contained(Ideal(ring, c.gens), current.zero_ideal())
            if back.holds is True:
                found = x
                break
        if found is None:
            return depth
        depth += 1
        current = LocalRing(ring, list(current.defining.gens) + [found],
                            limits=current.limits)
    return depth


def _depth_candidates(ring, rng: random.Random, extra_tries: int):
    gens = ring.gens()
    for g in gens:
        yield g
    for a, b in itertools.combinations(gens, 2):
        yield a + b
        yield a - b
    for _ in range(extra_tries):
        coeffs = [rng.choice([-2, -1, 0, 1, 2]) for _ in gens]
        f = sum((g.scale(ring.field.from_int(c)) for g, c in zip(gens, coeffs) if c),
                ring.zero())
        if f:
            yield f
