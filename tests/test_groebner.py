"""Buchberger engine: reduced bases, normal forms, elimination, budgets."""

from fractions import Fraction

import pytest

from socleq import (
    FP,
    QQ,
    Block,
    BudgetExceededError,
    Ideal,
    Limits,
    RingSpec,
    buchberger,
    eliminate,
    normal_form,
    parse_poly,
    parse_poly_list,
)
from socleq.groebner import lead_ideal_dimension, min_lead_monomials, standard_monomials_below
from socleq.oracle import oracle_member_graded


def ideal(ring, text):
    return Ideal(ring, parse_poly_list(text, ring))


@pytest.fixture
def rxy():
    return RingSpec(QQ, ["X", "Y"])


def test_textbook_lex_basis(rxy):
    # classic example: (XY - 1, Y^2 - 1) under lex X >> Y, which is the
    # block order eliminating X on two variables
    basis = buchberger(parse_poly_list("X*Y - 1, Y^2 - 1", rxy), Block((0,)))
    assert [str(b) for b in sorted(map(str, basis))] == ["X - Y", "Y^2 - 1"]


def test_reduced_basis_unique_under_permutation(rxy):
    gens = parse_poly_list("X^3 - 2*X*Y, X^2*Y - 2*Y^2 + X", rxy)
    b1 = buchberger(list(gens))
    b2 = buchberger(list(reversed(gens)))
    assert b1 == b2
    # scaled generators change nothing either
    b3 = buchberger([g.scale(Fraction(3, 7)) for g in gens])
    assert b1 == b3


def test_byte_identical_across_runs(rxy):
    gens = parse_poly_list("X^2 + Y, X*Y - 1, Y^3 - X", rxy)
    one = repr(buchberger(list(gens)))
    for _ in range(3):
        assert repr(buchberger(list(gens))) == one


def test_membership_and_normal_form(rxy):
    J = ideal(rxy, "X^2, X*Y")
    assert J.contains(parse_poly("X^2*Y^5 + X*Y", rxy))
    assert not J.contains(parse_poly("Y^4", rxy))
    assert J.normal_form(parse_poly("X^2 + Y", rxy)) == parse_poly("Y", rxy)
    assert J.normal_form(rxy.zero()) == rxy.zero()


def test_unit_ideal(rxy):
    J = ideal(rxy, "X, X + 1")
    assert J.is_unit_ideal()
    assert list(map(str, J.groebner_basis())) == ["1"]


def test_zero_ideal(rxy):
    J = Ideal(rxy, [rxy.zero()])
    assert J.is_zero
    assert J.groebner_basis() == ()
    assert J.normal_form(parse_poly("X", rxy)) == parse_poly("X", rxy)


def test_weighted_homogeneous_basis_stays_homogeneous():
    r = RingSpec(QQ, ["X1", "X2", "X3"], [3, 4, 5])
    gens = parse_poly_list("X1*X3 - X2^2, X1^3 - X2*X3", r)
    for b in buchberger(list(gens)):
        assert b.weighted_degree() is not None


def test_reduced_basis_generates_the_same_ideal():
    # weighted homogeneous generators, so the row-reduction oracle decides
    # membership at a finite level, independently of the engine
    r = RingSpec(QQ, ["X", "Y", "Z"], [1, 2, 3])
    gens = parse_poly_list("X^3 - Z, X*Z - Y^2, Y^3 - Z^2", r)
    basis = buchberger(list(gens))
    assert set(basis) != set(gens)
    for b in basis:
        assert oracle_member_graded(r, gens, b)
    for g in gens:
        assert not normal_form(g, basis)


def test_eliminate_by_block_order():
    r = RingSpec(QQ, ["T", "X", "Y"])
    J = ideal(r, "T*X, Y - T*Y")
    # classic elimination check: the T-free part of (TX, (1-T)Y) is (XY)
    E = eliminate(J, ["X", "Y"])
    assert [str(g) for g in E.gens] == ["X*Y"]


def test_eliminate_power_family():
    # (X^l * Y, X^l * Z) eliminated to the {Y, Z} subring is zero for l >= 1
    r = RingSpec(QQ, ["X", "Y", "Z"])
    J = ideal(r, "X^2*Y, X^2*Z")
    E = eliminate(J, ["Y", "Z"])
    assert E.is_zero


def test_step_budget_enforced(rxy):
    # The S-polynomial of these two needs at least one elimination, so a zero
    # budget must trip before the run can finish.
    gens = parse_poly_list("X*Y - 1, Y^2 - 1", rxy)
    with pytest.raises(BudgetExceededError):
        buchberger(list(gens), order=Block((0,)), limits=Limits(step_budget=0))


def test_basis_cache_first_writer_wins(rxy):
    J = ideal(rxy, "X^2, X*Y")
    b1 = J.groebner_basis()
    assert J.groebner_basis() is b1


def test_fp_and_qq_bases_agree_on_integer_input():
    gq = RingSpec(QQ, ["X", "Y", "Z"])
    gp = RingSpec(FP(32003), ["X", "Y", "Z"])
    text = "X*Y - Z^2, X^2*Z - Y^2"
    bq = buchberger(parse_poly_list(text, gq))
    bp = buchberger(parse_poly_list(text, gp))
    assert [str(b) for b in bq] == [str(b) for b in bp]


def test_lead_ideal_dimension():
    r = RingSpec(QQ, ["X", "Y", "Z"])
    J = ideal(r, "X^2*Y, X^2*Z")
    assert lead_ideal_dimension(J.groebner_basis(), r) == 2
    J0 = ideal(r, "X, Y, Z")
    assert lead_ideal_dimension(J0.groebner_basis(), r) == 0
    Ju = ideal(r, "X, X + 1")
    assert lead_ideal_dimension(Ju.groebner_basis(), r) == -1
    hyp = ideal(r, "X*Y - Z^2")
    assert lead_ideal_dimension(hyp.groebner_basis(), r) == 2


def test_standard_monomials(rxy):
    J = ideal(rxy, "X^2, X*Y")
    leads = min_lead_monomials(J.groebner_basis())
    # standard monomials below degree 4: 1, X, Y, Y^2, Y^3
    assert len(standard_monomials_below(leads, rxy, 4)) == 5


def test_truncated_run_recovers_local_behavior():
    # (X + X^2) is locally (X): the truncated basis at any level K sees that
    r = RingSpec(QQ, ["X"])
    g = parse_poly("X + X^2", r)
    for K in (3, 5, 8):
        basis = buchberger([g], trunc=K)
        assert [str(b) for b in basis] == ["X"]


def test_truncated_run_multivariate_cascade():
    # Substituting z = Y - X^2 turns (X*Y - X^3, Y^2) into (X*z, z^2 + X^4)
    # up to the ideal itself, so the local quotient has basis
    # 1, X, X^2, X^3, X^4, z and length 6.  At truncation level 4 the class
    # of X^4 dies and the count is 5; the lead ideal must pick up X^2*Y,
    # which only appears if the pair of X^3 - X*Y against the degree-4
    # monomial X^4 is actually processed.
    r = RingSpec(QQ, ["X", "Y"])
    gens = parse_poly_list("X*Y - X^3, Y^2", r)
    basis = buchberger(list(gens), trunc=4)
    names = [str(b) for b in basis]
    assert "X^2*Y" in names
    leads = min_lead_monomials(basis)
    std = standard_monomials_below(leads, r, 4)
    assert len(std) == 5
    # by level 6 the count stabilises at the true length
    for K in (6, 7):
        bK = buchberger(list(gens), trunc=K)
        stdK = standard_monomials_below(min_lead_monomials(bK), r, K)
        assert len(stdK) == 6


def test_truncated_run_empty_gens_gives_power_ideal():
    r = RingSpec(QQ, ["X", "Y"])
    basis = buchberger([], trunc=2, ring=r)
    assert [str(b) for b in basis] == ["Y^2", "X*Y", "X^2"]
