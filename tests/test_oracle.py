import ast
import random
from pathlib import Path

import pytest

from socleq import DEFAULT_LIMITS, FP, QQ, Ideal, RingSpec, buchberger, normal_form, parse_poly, parse_poly_list
from socleq.errors import BudgetExceededError, UndecidableError
from socleq.localring import LocalRing, check_socle_square
from socleq.oracle import (
    Echelon,
    GradedIdeal,
    OracleAuditor,
    TruncatedAlgebra,
    oracle_member,
    oracle_quotient_dim,
    stable_socle_dim,
    truncate_poly,
)
from socleq.zoo import build


def ring2(field=QQ):
    return RingSpec(field, ["X", "Y"])


def polys(text, r):
    return list(parse_poly_list(text, r))


# -- the echelon itself -------------------------------------------------------


def test_echelon_rank_and_span():
    ech = Echelon(QQ)
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
        ech = Echelon(QQ)
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


def test_socle_dim_counts_every_socle_class():
    r = RingSpec(FP(101), ["X", "Y", "Z"])
    gens = polys("46*Z^3 + 28*X*Z - 5*Z^2", r)
    alg = TruncatedAlgebra(r, gens, K=5)
    # the engine's count: l(S/J) - l(S/(J : m)) for J = (g) + m^5
    J = Ideal(r, gens + [r.from_terms({m: r.field.one}) for m in r.monomials_of_plain_degree(5)])
    assert alg.socle_dim() == LocalRing(r, []).index_of_reducibility(J) == 9
    # Z^3 is a pivot, so a normal form must not keep it
    assert set(alg.nf(parse_poly("Z^4 + X*Z^3", r))) == {(0, 0, 4)}


@pytest.mark.parametrize("name", ["almost_dvr", "triple_line", "plane_line1", "two_planes"])
def test_normal_forms_carry_no_pivot(name):
    z = build(name)
    alg = TruncatedAlgebra(z.ring, list(z.local.defining.gens), K=5)
    rng = random.Random(name)
    for _ in range(100):
        f = _random_poly(z.ring, rng, max_deg=4)
        assert not set(alg.nf(f)) & set(alg.ech.pivots)


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
            power = [r.from_terms({m: r.field.one}) for m in r.monomials_of_plain_degree(K)]
            basis = buchberger([*gens, *power], None, DEFAULT_LIMITS)
            for _ in range(30):
                f = _random_poly(r, rng, max_deg=K)
                want = not normal_form(f, basis, DEFAULT_LIMITS)
                assert oracle_member(r, gens, f, K) == want


def _graded_presentation(name):
    if name == "ring2":
        r = ring2()
        return r, polys("X^2, X*Y", r)
    z = build(name)  # weights 3, 4, 5
    return z.ring, list(z.local.defining.gens)


@pytest.mark.parametrize("name", ["ring2", "semigroup3"])
def test_graded_membership_agrees_with_exact_ideal(name):
    r, gens = _graded_presentation(name)
    ideal, graded = Ideal(r, gens), GradedIdeal(r, gens)
    by_degree: dict = {}
    for m in r.monomials_below_plain_degree(14):
        by_degree.setdefault(r.wdeg(m), []).append(m)
    multipliers = r.monomials_below_plain_degree(4)
    rng = random.Random(99)
    hits = 0
    for _ in range(60):
        # a multiple of one generator, plus up to two stray terms of its
        # weighted degree: homogeneous, and in the ideal only sometimes
        g, u = rng.choice(gens), rng.choice(multipliers)
        f = g.mul_term(u, r.field.from_int(rng.choice([-3, 1, 2])))
        same = by_degree[r.wdeg(u) + g.weighted_degree()]
        for _ in range(rng.randrange(3)):
            f = f + r.from_terms({rng.choice(same): r.field.from_int(rng.choice([-1, 1]))})
        want = not normal_form(f, ideal.groebner_basis())
        hits += want
        assert graded.contains(f) == want
    assert 0 < hits < 60  # the sample must exercise both outcomes
    if name == "ring2":
        assert graded.contains(parse_poly("X^3 + 2*X^2*Y", r))
        assert graded.contains(parse_poly("X^2 + X*Y^3", r))  # two degrees
        assert not graded.contains(parse_poly("X^2 + Y^2", r))
        assert not graded.contains(parse_poly("X^2 + Y", r))


def test_graded_ideal_uses_weights():
    r = RingSpec(QQ, ["X", "Y"], weights=[3, 4])
    with pytest.raises(UndecidableError):
        GradedIdeal(r, polys("X^2 - Y", r))
    # homogeneous of weighted degree 12, though not in the plain grading
    graded = GradedIdeal(r, polys("X^4 - Y^3", r))
    assert graded.contains(parse_poly("X^5 - X*Y^3", r))
    assert not graded.contains(parse_poly("X^4", r))


def test_graded_piece_over_the_cap():
    r = ring2()
    gens = polys("X^2, X*Y", r)
    # degree 3 has four monomials, one more than the cap
    with pytest.raises(BudgetExceededError):
        GradedIdeal(r, gens, cap=3).contains(parse_poly("Y^3", r))
    local = LocalRing(r, gens)
    audit = OracleAuditor(dim_cap=3)
    local.auditor = audit
    got = local.check_contained(local.ideal("X*Y, Y^3"), local.zero_ideal())
    assert (got.holds, got.method) == (False, "graded")
    # X*Y sits in a three-wide piece, Y^3 in a four-wide one
    assert audit.summary() == {"checked": 1, "skipped": 1, "mismatches": 0}


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

    class Counted(Echelon):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    # each slice and each graded piece the auditor row-reduces is one Echelon
    monkeypatch.setattr("socleq.oracle.Echelon", Counted)
    r = ring2()
    local = LocalRing(r, polys("X^2, X*Y", r))
    audit = OracleAuditor(dim_cap=2000)
    local.auditor = audit
    report = check_socle_square(local, local.ideal("Y^3"))
    assert report.equal is False
    assert audit.checked > 0
    # consecutive events on the same (gens, K) share one slice or graded ideal
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


def test_auditor_lets_oracle_faults_through(monkeypatch):
    # only refusals count as skipped; any other error is a fault to report
    def broken(self, row):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(Echelon, "reduce", broken)
    r = ring2()
    local = LocalRing(r, polys("X^2, X*Y", r))
    local.auditor = OracleAuditor(dim_cap=2000)
    with pytest.raises(ValueError):
        local.quotient_dim_at(Ideal(r, polys("X^2, X*Y", r)), 3)


def test_oracle_answers_with_the_monomial_order_disabled(monkeypatch):
    fld = FP(32003)
    events = []
    for name, q in (("semigroup3", "X2*X3^2"), ("plane_line2", "X^2 + Y^2, Z^2")):
        z = build(name, fld)
        z.local.auditor = events.append
        check_socle_square(z.local, z.local.ideal(q))
    graded = [e for e in events if e["K"] is None]
    sliced = [e for e in events if e["K"] is not None][-1]
    r, gens, K = sliced["ring"], sliced["gens"], sliced["K"]
    # every polynomial is built before the order goes: building one sorts its terms
    dense = r.from_terms({m: fld.one for m in r.monomials_below_plain_degree(K)})

    def answers():
        alg = TruncatedAlgebra(r, gens, K)
        audit = OracleAuditor(dim_cap=2000)
        for e in events:
            audit(e)
        return (
            alg.dim, alg.basis, alg.nf(dense), alg.socle_dim(),
            [GradedIdeal(e["ring"], e["gens"]).contains(e["f"]) for e in graded[:20]],
            stable_socle_dim(r, gens, budget=10),
            audit.summary(), audit.mismatches,
        )

    before = answers()

    def no_order(self, mono, weights):
        raise AssertionError("the oracle consulted a monomial order")

    monkeypatch.setattr("socleq.ring.GrevLex.key", no_order)
    assert answers() == before
    assert before[-2] == {"checked": len(events), "skipped": 0, "mismatches": 0}


def test_oracle_imports_nothing_from_the_engine():
    import socleq.oracle

    names = set()  # modules, and names taken from them (catches `from . import groebner`)
    for node in ast.walk(ast.parse(Path(socleq.oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not {n.rpartition(".")[2] for n in names} & {"groebner", "idealops", "localring"}


def test_weighted_socle_check_is_fully_audited():
    z = build("semigroup3", FP(32003))
    audit = OracleAuditor(dim_cap=2000)
    z.local.auditor = audit
    check_socle_square(z.local, z.local.ideal("X2*X3^2"))
    assert audit.checked > 0
    assert audit.skipped == 0
    assert audit.mismatches == []
