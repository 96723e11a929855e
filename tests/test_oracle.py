import random

import pytest

from socleq import DEFAULT_LIMITS, FP, QQ, Ideal, RingSpec, buchberger, normal_form, parse_poly, parse_poly_list
from socleq.errors import BudgetExceededError
from socleq.localring import LocalRing, check_socle_square
from socleq.oracle import (
    Echelon,
    OracleAuditor,
    TruncatedAlgebra,
    graded_member_level,
    oracle_member,
    oracle_member_graded,
    oracle_quotient_dim,
    stable_socle_dim,
    truncate_poly,
)


def ring2(field=QQ):
    return RingSpec(field, ["X", "Y"])


def polys(text, r):
    return list(parse_poly_list(text, r))


# -- the echelon itself -------------------------------------------------------


def test_echelon_rank_and_span():
    ech = Echelon(QQ, keyfn=lambda n: n)
    one = QQ.from_int
    assert ech.add({1: one(1), 2: one(2)}) == 2
    assert ech.add({1: one(3)}) == 1
    # dependent row: 2*(first) - 4*... anything in the span must vanish
    assert ech.add({1: one(5), 2: one(4)}) is None
    assert ech.rank == 2
    assert ech.contains({2: one(7)})
    assert not ech.contains({3: one(1)})


def test_echelon_pivots_canonical_under_row_order():
    # the pivot set of a row space depends only on the space, so shuffling
    # the insertion order must not change it
    rows = [
        {0: QQ.from_int(1), 2: QQ.from_int(1)},
        {1: QQ.from_int(1), 2: QQ.from_int(-1)},
        {0: QQ.from_int(1), 1: QQ.from_int(1)},
        {3: QQ.from_int(2), 0: QQ.from_int(1)},
    ]
    rng = random.Random(7)
    seen = set()
    for _ in range(6):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        ech = Echelon(QQ, keyfn=lambda n: n)
        for row in shuffled:
            ech.add(row)
        seen.add(frozenset(ech.pivots))
    assert len(seen) == 1


# -- truncated algebras -------------------------------------------------------


def test_truncated_algebra_small_quotient():
    r = ring2()
    alg = TruncatedAlgebra(r, polys("X^2, X*Y", r), K=4)
    assert alg.dim == 5
    assert alg.dim == len(alg.basis)
    # surviving classes: 1, x, y, y^2, y^3
    assert set(alg.basis) == {(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)}
    assert alg.contains(parse_poly("X^2 + 3*X*Y", r))
    assert not alg.contains(parse_poly("Y^2", r))
    # multiplication lands back in normal form
    row = truncate_poly(parse_poly("Y", r), 4)
    assert alg.multiply_row(row, parse_poly("Y^2", r)) == {(0, 3): QQ.from_int(1)}
    assert alg.multiply_row(row, parse_poly("X", r)) == {}


def test_truncated_algebra_deterministic():
    r = ring2()
    gens = polys("X^2 - Y, Y^3, X*Y^2", r)
    a = TruncatedAlgebra(r, gens, K=5)
    b = TruncatedAlgebra(r, list(reversed(gens)), K=5)
    assert a.basis == b.basis
    assert set(a.ech.pivots) == set(b.ech.pivots)


def test_dimension_cap_is_enforced():
    r = ring2()
    with pytest.raises(BudgetExceededError):
        oracle_quotient_dim(r, polys("X^2", r), K=200, cap=100)
    with pytest.raises(BudgetExceededError):
        oracle_member(r, polys("X^2", r), parse_poly("X", r), K=200, cap=100)


# -- agreement with the basis engine ------------------------------------------


IDEALS = ["X^2, X*Y", "X^3 - Y, Y^2", "X^2 - Y, Y^3", "X^2*Y - X, Y^2 - X"]


@pytest.mark.parametrize("field", [QQ, FP(32003)], ids=["QQ", "FP32003"])
@pytest.mark.parametrize("text", IDEALS)
def test_quotient_dims_agree_with_basis_engine(field, text):
    r = ring2(field)
    gens = polys(text, r)
    local = LocalRing(r, [])
    for K in range(1, 7):
        want = local.quotient_dim_at(Ideal(r, gens), K)
        assert oracle_quotient_dim(r, gens, K) == want


def test_quotient_dims_agree_on_weighted_ring():
    r = RingSpec(QQ, ["X", "Y", "Z"], weights=[3, 4, 5])
    gens = polys("X*Z - Y^2, X^3 - Y*Z, X^2*Y - Z^2", r)
    local = LocalRing(r, [])
    for K in range(1, 6):
        want = local.quotient_dim_at(Ideal(r, gens), K)
        assert oracle_quotient_dim(r, gens, K) == want


def _random_poly(r, rng, max_deg):
    monos = r.monomials_below_plain_degree(max_deg + 1)
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        m = rng.choice(monos)
        terms[m] = r.field.from_int(rng.choice([-2, -1, 1, 2]))
    return r.from_terms(terms)


@pytest.mark.parametrize("field", [QQ, FP(32003)], ids=["QQ", "FP32003"])
def test_truncated_membership_agrees_with_basis_engine(field):
    r = ring2(field)
    rng = random.Random(20240)
    for text in IDEALS:
        gens = polys(text, r)
        for K in (3, 5):
            basis = buchberger(gens, None, DEFAULT_LIMITS, trunc=K, ring=r)
            for _ in range(30):
                f = _random_poly(r, rng, max_deg=K)
                want = not normal_form(f, basis, DEFAULT_LIMITS, trunc=K)
                assert oracle_member(r, gens, f, K) == want


def test_graded_membership_agrees_with_exact_ideal():
    r = ring2()
    gens = polys("X^2, X*Y", r)
    ideal = Ideal(r, gens)
    rng = random.Random(99)
    hits = 0
    for _ in range(80):
        f = _random_poly(r, rng, max_deg=5)
        want = ideal.contains(f)
        hits += want
        assert oracle_member_graded(r, gens, f) == want
    assert hits  # the sample must exercise both outcomes
    assert hits < 80
    assert oracle_member_graded(r, gens, parse_poly("X^3 + 2*X^2*Y", r))
    assert not oracle_member_graded(r, gens, parse_poly("X^2 + Y^2", r))


def test_graded_member_level_uses_weights():
    r = RingSpec(QQ, ["X", "Y"], weights=[3, 4])
    assert graded_member_level(parse_poly("X^2*Y", r)) == 11
    with pytest.raises(ValueError):
        oracle_member_graded(r, polys("X^2 - Y", r), parse_poly("X", r))


# -- socles --------------------------------------------------------------------


def test_stable_socle_dims_by_hand():
    r = ring2()
    # S/(X^2, XY, Y^3): basis 1, x, y, y^2; socle spanned by x and y^2
    socle, dim, K = stable_socle_dim(r, polys("X^2, X*Y, Y^3", r), budget=10)
    assert (socle, dim) == (2, 4)
    # complete intersection S/(X^2, Y^2): one socle class, xy
    socle, dim, _ = stable_socle_dim(r, polys("X^2, Y^2", r), budget=10)
    assert (socle, dim) == (1, 4)


def test_stable_socle_matches_index_of_reducibility():
    r = ring2()
    local = LocalRing(r, polys("X^2, X*Y", r))
    q = local.ideal("Y^3")
    want = local.index_of_reducibility(q)
    got, _, _ = stable_socle_dim(r, polys("X^2, X*Y, Y^3", r), budget=12)
    assert got == want == 2


def test_stable_socle_needs_finite_colength():
    r = ring2()
    with pytest.raises(BudgetExceededError):
        stable_socle_dim(r, polys("X^2, X*Y", r), budget=8)


# -- the audit hook -------------------------------------------------------------


def test_auditor_agrees_with_full_socle_check(monkeypatch):
    builds = []

    class Counted(TruncatedAlgebra):
        def __init__(self, *args, **kwargs):
            builds.append(args[2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("socleq.oracle.TruncatedAlgebra", Counted)
    r = ring2()
    local = LocalRing(r, polys("X^2, X*Y", r))
    audit = OracleAuditor(dim_cap=2000)
    local.auditor = audit
    report = check_socle_square(local, local.ideal("Y^3"))
    assert report.equal is False
    assert audit.checked > 0
    # consecutive events on the same (gens, K) share one slice
    assert 0 < len(builds) < audit.checked
    assert audit.mismatches == []


def test_auditor_skips_oversized_instances():
    r = RingSpec(QQ, ["X", "Y", "Z", "W"])
    local = LocalRing(r, [])
    audit = OracleAuditor(dim_cap=10)
    local.auditor = audit
    local.quotient_dim_at(Ideal(r, polys("X, Y, Z, W", r)), 5)
    assert audit.skipped == 1
    assert audit.checked == 0
