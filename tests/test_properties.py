"""Randomised algebraic laws: ring axioms, order axioms, operation identities.

Seeds are fixed so every run sees the same instances.  The cheap laws get
thousands of triples, the Groebner-level laws get dozens.
"""

import random
from dataclasses import replace

from socleq.dsl import parse_poly_list
from socleq.field import FP, QQ
from socleq.groebner import Ideal, normal_form
from socleq.idealops import (
    colon,
    equal_as_s_ideals,
    ideal_power,
    ideal_product,
    intersect,
    maximal_ideal,
    saturate,
)
from socleq.limits import DEFAULT_LIMITS
from socleq.localring import LocalRing, check_socle_square
from socleq.oracle import TruncatedAlgebra, oracle_quotient_dim
from socleq.probes import sample_sop
from socleq.ring import (
    GREVLEX,
    Block,
    RingSpec,
    mono_div,
    mono_divides,
    mono_gcd_is_one,
    mono_lcm,
    mono_mul,
)
from socleq.zoo import build


def _rand_poly(rng, ring, max_terms=4, max_deg=3):
    monos = ring.monomials_below_plain_degree(max_deg + 1)
    n = rng.randrange(0, max_terms + 1)
    return ring.from_terms(
        (rng.choice(monos), ring.field.from_int(rng.randrange(-5, 6)))
        for _ in range(n))


def _member(f, I):
    basis = I.groebner_basis(None, DEFAULT_LIMITS)
    return not normal_form(f, basis, DEFAULT_LIMITS)


def _contains_ideal(I, J):
    return all(_member(g, I) for g in J.gens)


def test_ring_axioms_on_random_triples():
    for fld in (QQ, FP(32003)):
        ring = RingSpec(fld, ["X", "Y"])
        rng = random.Random(11)
        for _ in range(600):
            a = _rand_poly(rng, ring)
            b = _rand_poly(rng, ring)
            c = _rand_poly(rng, ring)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a - a == ring.zero()


def test_order_axioms_on_random_monomials():
    weights = (3, 4, 5)
    ring = RingSpec(QQ, ["X", "Y", "Z"], weights)
    rng = random.Random(5)
    monos = ring.monomials_below_plain_degree(6)
    one = (0, 0, 0)
    for order in (GREVLEX, Block((0,)), Block((1, 2))):
        for _ in range(400):
            u, v, w = (rng.choice(monos) for _ in range(3))
            ku, kv = order.key(u, weights), order.key(v, weights)
            assert (ku < kv) != (kv < ku) or u == v
            assert (ku == kv) == (u == v)
            kuw, kvw = order.key(mono_mul(u, w), weights), order.key(mono_mul(v, w), weights)
            assert (kuw < kvw, kuw == kvw) == (ku < kv, ku == kv)
            if u != one:
                assert order.key(one, weights) < ku
    # the block order really dominates with its first block
    assert Block((0,)).key((1, 0, 0), weights) > Block((0,)).key((0, 9, 9), weights)


def test_monomial_kernels_match_reference_formulas():
    rng = random.Random(31)
    for n in (1, 3, 5):
        for _ in range(1500):
            # about half the pairs have u | v, so both answers come up
            u = tuple(rng.randrange(21) for _ in range(n))
            if rng.random() < 0.5:
                v = tuple(e + rng.choice((0, 0, 1, 3)) for e in u)
            else:
                v = tuple(rng.randrange(21) for _ in range(n))
            divides = all(a <= b for a, b in zip(u, v))
            assert mono_divides(u, v) == divides
            assert mono_mul(u, v) == tuple(a + b for a, b in zip(u, v))
            assert mono_lcm(u, v) == tuple(max(a, b) for a, b in zip(u, v))
            assert mono_gcd_is_one(u, v) == all(a == 0 or b == 0 for a, b in zip(u, v))
            if divides:
                assert mono_div(v, u) == tuple(b - a for a, b in zip(u, v))


def test_order_keys_match_reference_formulas():
    weights = (3, 1, 4, 2)
    rng = random.Random(41)

    def grevlex(m):
        return (sum(e * w for e, w in zip(m, weights)), tuple(-e for e in reversed(m)))

    def block(first, m):
        rest = [i for i in range(len(m)) if i not in first]
        head = [m[i] for i in first]
        tail = [m[i] for i in rest]
        return (sum(m[i] * weights[i] for i in first), tuple(-e for e in reversed(head)),
                sum(m[i] * weights[i] for i in rest), tuple(-e for e in reversed(tail)))

    for _ in range(2000):
        m = tuple(rng.randrange(21) for _ in weights)
        assert GREVLEX.key(m, weights) == grevlex(m)
        assert Block((0,)).key(m, weights) == block((0,), m)
        assert Block((1, 2)).key(m, weights) == block((1, 2), m)


def test_weighted_homogeneous_products():
    ring = RingSpec(QQ, ["X", "Y", "Z"], (3, 4, 5))
    rng = random.Random(7)
    by_w = {}
    for m in ring.monomials_below_plain_degree(6):
        by_w.setdefault(ring.wdeg(m), []).append(m)
    classes = [ms for ms in by_w.values() if len(ms) >= 2]
    for _ in range(200):
        p = ring.from_terms((m, ring.field.from_int(rng.randrange(1, 5)))
                            for m in rng.sample(rng.choice(classes), 2))
        q = ring.from_terms((m, ring.field.from_int(rng.randrange(1, 5)))
                            for m in rng.sample(rng.choice(classes), 2))
        assert p.weighted_degree() is not None
        assert (p * q).weighted_degree() == p.weighted_degree() + q.weighted_degree()
    mixed = ring.var("X") + ring.one()
    assert mixed.weighted_degree() is None


def test_groebner_basis_ignores_generator_order_and_scaling():
    ring = RingSpec(QQ, ["X", "Y", "Z"])
    rng = random.Random(3)
    for text in ("X^2 - Y, X*Y - Z, Y^2 - X*Z",
                 "X*Y*Z - 1, X + Y + Z, X^2 + Z",
                 "X^3 - 2*X*Y, X^2*Y - 2*Y^2 + X"):
        gens = list(parse_poly_list(text, ring))
        base = set(Ideal(ring, gens).groebner_basis(None, DEFAULT_LIMITS))
        for _ in range(4):
            rng.shuffle(gens)
            scaled = [g.scale(ring.field.from_int(rng.choice([1, 2, -3, 5])))
                      for g in gens]
            again = set(Ideal(ring, scaled).groebner_basis(None, DEFAULT_LIMITS))
            assert again == base


def test_colon_intersect_power_laws_on_random_ideals():
    ring = RingSpec(QQ, ["X", "Y"])
    rng = random.Random(13)
    exercised = 0
    while exercised < 10:
        I = Ideal(ring, [p for p in (_rand_poly(rng, ring, 3, 3)
                                     for _ in range(2)) if p])
        J = Ideal(ring, [p for p in (_rand_poly(rng, ring, 2, 2)
                                     for _ in range(2)) if p])
        if not I.gens or not J.gens:
            continue
        exercised += 1
        C = colon(I, J, DEFAULT_LIMITS)
        assert _contains_ideal(C, I)
        assert _contains_ideal(I, ideal_product(C, J))
        M = intersect(I, J, DEFAULT_LIMITS)
        assert _contains_ideal(I, M) and _contains_ideal(J, M)
        assert _contains_ideal(M, ideal_product(I, J))
        assert equal_as_s_ideals(ideal_power(I, 2), ideal_product(I, I),
                                 DEFAULT_LIMITS)


def test_saturation_is_stable_under_another_colon():
    ring = RingSpec(QQ, ["X", "Y"])
    m = maximal_ideal(ring)
    I = Ideal(ring, list(parse_poly_list("X^2*Y, X*Y^2", ring)))
    S, N = saturate(I, m, DEFAULT_LIMITS)
    assert N >= 1
    assert _contains_ideal(S, I)
    assert equal_as_s_ideals(colon(S, m, DEFAULT_LIMITS), S, DEFAULT_LIMITS)


def test_truncated_algebra_is_commutative_and_associative():
    triples = 0
    for ident, K in (("almost_dvr", 6), ("triple_line", 5)):
        z = build(ident, FP(32003))
        ta = TruncatedAlgebra(z.ring, z.local.defining.gens, K)
        rng = random.Random(17)
        basis = list(ta.basis)
        for _ in range(60):
            m1, m2, m3 = (rng.choice(basis) for _ in range(3))
            p1, p2, p3 = (z.ring.from_terms([(m, z.ring.field.one)]) for m in (m1, m2, m3))
            r1 = ta.nf(p1)
            left = ta.multiply_row(ta.multiply_row(r1, p2), p3)
            assert left == ta.multiply_row(r1, p2 * p3)
            assert left == ta.multiply_row(ta.multiply_row(r1, p3), p2)
            assert ta.multiply_row(r1, p2) == ta.multiply_row(ta.nf(p2), p1)
            triples += 1
    assert triples >= 100


def test_stable_lengths_match_the_oracle_at_two_levels():
    for ident, qtxt in (("almost_dvr", "Y^2 - X"), ("almost_dvr", "Y^3 - X*Y"),
                        ("triple_line", "Z^2 + X"), ("quadric_cone", "X + Y, Z")):
        z = build(ident, FP(32003))
        loc = z.local
        Q = loc.ideal(qtxt)
        st = loc.length_of_quotient(Q)
        assert st is not None
        gens = loc.full(Q).gens
        for K in (st.level, st.level + 3):
            assert oracle_quotient_dim(loc.ring, gens, K) == st.value


def test_verdicts_survive_budget_inflation():
    for ident, qtxt in (("almost_dvr", "Y^2 - X"), ("triple_line", "Z^2 + X")):
        z = build(ident, FP(32003))
        loc = z.local
        rep = check_socle_square(loc, loc.ideal(qtxt))
        roomy = LocalRing(loc.ring, loc.defining.gens,
                          replace(loc.limits, trunc_k_budget=loc.limits.trunc_k_budget + 3))
        rep2 = check_socle_square(roomy, roomy.ideal(qtxt))
        assert (rep.equal, rep.len_A_mod_Q, rep.len_A_mod_I, rep.socle_dim) == \
               (rep2.equal, rep2.len_A_mod_Q, rep2.len_A_mod_I, rep2.socle_dim)


def test_socle_enlargement_sandwich_on_sampled_parameters():
    # Q sits inside Q : m, and so does the finite length part whenever it is
    # a single socle class (m kills it, so it lands in every Q : m).
    for ident, depth in (("almost_dvr", 1), ("semigroup3", 1),
                         ("triple_line", 2), ("two_planes", 1)):
        z = build(ident, FP(32003))
        loc = z.local
        rng = random.Random(23)
        W = loc.h0()[0]
        for _ in range(3):
            Q = sample_sop(loc, depth, rng, max_draws=60)
            I = loc.socle_of(Q)
            assert loc.check_contained(Q, I).holds is True
            if W.gens:
                assert loc.check_contained(W, I).holds is True
