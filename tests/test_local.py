import pytest

import socleq.groebner
from socleq import FP, QQ, RingSpec, parse_poly, parse_poly_list
from socleq.errors import InputError
from socleq.idealops import ideal_power, ideal_product
from socleq.limits import DEFAULT_LIMITS
from socleq.localring import LocalRing, check_socle_square
from socleq.zoo import build


def make(varnames, defining):
    r = RingSpec(QQ, varnames)
    gens = parse_poly_list(defining, r) if defining else []
    return LocalRing(r, list(gens))


@pytest.fixture
def almost_dvr():
    # k[[X,Y]]/(X^2, XY): a one-dimensional ring with e = 1 that is not
    # a discrete valuation ring (it has a nonzero finite-length part)
    return make(["X", "Y"], "X^2, X*Y")


@pytest.fixture
def triple_line():
    return make(["X", "Y", "Z"], "X^3, X*Y, Y^2 - X*Z")


@pytest.fixture
def plane_with_point():
    return make(["X", "Y", "Z"], "X^2, X*Y, X*Z")


@pytest.fixture
def regular2():
    return make(["X", "Y"], "")


@pytest.fixture
def buchberger_inputs(monkeypatch):
    """Every buchberger input (generators, order, truncation) in call order."""
    seen = []
    real = socleq.groebner.buchberger

    def counted(gens, order=None, limits=DEFAULT_LIMITS, trunc=None, ring=None):
        gens = tuple(g for g in gens if g)
        ring = gens[0].ring if gens else ring
        seen.append((gens, order or ring.default_order, trunc))
        return real(gens, order, limits, trunc, ring)

    monkeypatch.setattr(socleq.groebner, "buchberger", counted)
    return seen


def test_defining_must_be_local():
    r = RingSpec(QQ, ["X"])
    with pytest.raises(InputError):
        LocalRing(r, [parse_poly("X - 1", r)])


def test_dimensions(almost_dvr, triple_line, plane_with_point, regular2):
    assert almost_dvr.krull_dim() == 1
    assert triple_line.krull_dim() == 1
    assert plane_with_point.krull_dim() == 2
    assert regular2.krull_dim() == 2


def test_lengths_with_certificates(almost_dvr):
    got = almost_dvr.length_of_quotient(almost_dvr.ideal("Y"))
    assert got.value == 2
    assert got.level == 2
    # positive-dimensional quotient never stabilises
    assert almost_dvr.length_of_quotient(almost_dvr.zero_ideal()) is None


def test_h0(almost_dvr, triple_line, plane_with_point, regular2):
    W, h0, N = almost_dvr.h0()
    assert h0 == 1 and N == 1
    assert any(str(g) == "X" for g in W.gens)
    assert triple_line.h0()[1] == 1
    assert plane_with_point.h0()[1] == 1
    assert regular2.h0()[1] == 0


def test_multiplicities(almost_dvr, triple_line, regular2):
    assert almost_dvr.multiplicity() == 1
    assert triple_line.multiplicity() == 3
    assert regular2.multiplicity() == 1
    Q = triple_line.ideal("Z")
    assert triple_line.multiplicity(Q) == 3


def test_socle_and_reducibility(almost_dvr, triple_line):
    Q = almost_dvr.ideal("Y")
    I = almost_dvr.socle_of(Q)
    # (a + Y) : m is the whole maximal ideal here
    assert almost_dvr.check_equal(I, almost_dvr.maximal()).equal is True
    assert almost_dvr.index_of_reducibility(Q) == 1
    assert triple_line.index_of_reducibility(triple_line.ideal("Z")) == 2


def test_socle_square_equal_flat_parameter(almost_dvr):
    report = check_socle_square(almost_dvr, almost_dvr.ideal("Y"))
    assert report.equal is True
    assert report.len_A_mod_Q == 2
    assert report.socle_dim == 1
    assert report.witness is None


def test_socle_square_fails_on_deep_power(almost_dvr):
    # Q = (Y^3): the socle enlargement is (X, Y^2) and Y^4 lies in its square
    # but outside Q*I
    report = check_socle_square(almost_dvr, almost_dvr.ideal("Y^3"))
    assert report.equal is False
    assert str(report.witness) == "Y^4"
    assert report.len_A_mod_Q == 4
    # I = (X, Y^2) has colength 2, so Soc(A/Q) is two-dimensional: the ring
    # is not Gorenstein and deep parameters feel the finite-length part
    assert report.socle_dim == 2


def test_socle_square_triple_line(triple_line):
    shallow = check_socle_square(triple_line, triple_line.ideal("Z"))
    assert shallow.equal is False
    assert shallow.len_A_mod_Q == 4
    assert shallow.socle_dim == 2
    deep = check_socle_square(triple_line, triple_line.ideal("Z^2"))
    assert deep.equal is True
    assert deep.len_A_mod_Q == 7
    assert deep.socle_dim == 3


def test_socle_square_buchsbaum_surface(plane_with_point):
    flat = check_socle_square(plane_with_point, plane_with_point.ideal("Y, Z"))
    assert flat.equal is True
    assert flat.socle_dim == 1
    deep = check_socle_square(plane_with_point, plane_with_point.ideal("Y^2, Z^2"))
    assert deep.equal is True
    assert deep.socle_dim == 2
    assert deep.len_A_mod_Q == 5


def test_socle_square_regular_rings(regular2):
    report = check_socle_square(regular2, regular2.ideal("X, Y^3"))
    assert report.equal is False
    assert report.socle_dim == 1
    assert str(report.witness) == "Y^4"
    # Q = m itself: the socle enlargement is the whole ring
    degenerate = check_socle_square(regular2, regular2.ideal("X, Y"))
    assert degenerate.socle_is_unit
    assert degenerate.equal is False


def test_quadric_cone_is_nice():
    A = make(["X", "Y", "Z"], "X*Y - Z^2")
    assert A.krull_dim() == 2
    assert A.multiplicity() == 2
    assert A.h0()[1] == 0
    report = check_socle_square(A, A.ideal("X, Y"))
    assert report.equal is True
    assert report.socle_dim == 1


def test_reduction_number(almost_dvr):
    m = almost_dvr.maximal()
    assert almost_dvr.reduction_number(m, almost_dvr.ideal("Y")) == 1


def test_sop_validation(almost_dvr):
    assert almost_dvr.is_sop(almost_dvr.ideal("Y"))
    assert not almost_dvr.is_sop(almost_dvr.ideal("X, Y"))
    with pytest.raises(InputError):
        check_socle_square(almost_dvr, almost_dvr.ideal("X, Y"))


def test_probe_refutes_but_does_not_confirm():
    # locally (X*Y - X) = (X), but the ideal is inhomogeneous of positive
    # dimension, so membership of X can only be probed, while membership of
    # Y is refuted with a certificate
    A = make(["X", "Y"], "X*Y - X")
    inside = A.check_contained(A.ideal("X"), A.zero_ideal())
    assert inside.holds is None
    outside = A.check_contained(A.ideal("Y"), A.zero_ideal())
    assert outside.holds is False
    assert str(outside.witness) == "Y"


@pytest.mark.xfail(reason="the Samuel-function stopping rule accepts three equal "
                          "d-th differences before the Hilbert-Samuel polynomial "
                          "is reached, and returns e = 2")
@pytest.mark.parametrize("exp", [5, 8])
def test_multiplicity_of_line_with_deep_embedded_point(exp):
    # k[X,Y]/(X^2, X*Y^n) is a line with an embedded point, so e = 1:
    # e(Y) = l(A/YA) - l(0 :_A Y) = 2 - 1 by Serre's formula
    r = RingSpec(FP(32003), ["X", "Y"])
    A = LocalRing(r, list(parse_poly_list(f"X^2, X*Y^{exp}", r)))
    assert A.multiplicity() == 1
    assert A.multiplicity(A.ideal("Y")) == 1


def _semigroup3_golden():
    loc = build("semigroup3").local
    Q = loc.ideal("X1")
    return loc, Q, loc.socle_of(Q)


def test_graded_route_computes_the_target_basis_once(buchberger_inputs):
    # I^3 = Q I^2 at the golden parameter (r = e - 1 = 2), so the graded
    # route tests every generator of I^3 against the one target a + Q I^2
    loc, Q, I = _semigroup3_golden()
    J = ideal_product(Q, ideal_power(I, 2))
    buchberger_inputs.clear()
    got = loc.check_contained(ideal_power(I, 3), J)
    assert got.holds is True and got.method == "graded"
    target = loc.full(J).gens
    assert sum(1 for gens, _, trunc in buchberger_inputs
               if gens == target and trunc is None) <= 1


def test_reduction_number_computes_each_basis_once(buchberger_inputs):
    loc, Q, I = _semigroup3_golden()
    buchberger_inputs.clear()
    assert loc.reduction_number(I, Q) == 2
    assert buchberger_inputs
    assert len(buchberger_inputs) == len(set(buchberger_inputs))
