import random
from dataclasses import replace

import pytest

import socleq.groebner
from socleq import FP, QQ, RingSpec, idealops, parse_poly, parse_poly_list
from socleq.errors import InputError, RingMismatchError, UndecidableError
from socleq.groebner import Ideal, lead_ideal_dimension, normal_forms, standard_monomials
from socleq.idealops import colon, colon_by_poly, ideal_power, ideal_product, intersect
from socleq.limits import DEFAULT_LIMITS, Limits
from socleq.localring import Containment, LocalRing, StableLength, check_socle_square
from socleq.oracle import oracle_quotient_dim
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
    """Every buchberger input (generators, order) in call order."""
    seen = []
    real = socleq.groebner.buchberger

    def counted(gens, order=None, limits=DEFAULT_LIMITS):
        gens = tuple(g for g in gens if g)
        seen.append((gens, order or gens[0].ring.default_order))
        return real(gens, order, limits)

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


@pytest.mark.parametrize("field", [QQ, FP(32003)])
def test_krull_dim_of_inhomogeneous_presentation(field):
    # without weights the dimension is certified only when it is zero: the
    # length of A itself stabilises (Nakayama), so A is Artinian
    r = RingSpec(field, ["X", "Y"])
    artinian = LocalRing(r, list(parse_poly_list("X - Y^2, Y^3", r)))
    assert artinian.krull_dim() == 0
    curve = LocalRing(r, list(parse_poly_list("X - Y^2", r)))
    with pytest.raises(UndecidableError):
        curve.krull_dim()


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


def test_reduction_number_refuses_an_undecided_inclusion():
    # Q sits inside Q : m in every ring; with a two-level truncation budget
    # the inclusion is only probed, so the answer is a refusal, not the
    # claim that Q lies outside I
    base = build("triple_line", FP(32003)).local
    loc = LocalRing(base.ring, base.defining.gens, replace(DEFAULT_LIMITS, trunc_k_budget=2))
    Q = loc.ideal("Z^2 + X")
    I = loc.socle_of(Q)
    got = loc.check_contained(Q, I)
    assert got.holds is None and got.method == "truncation-probe"
    with pytest.raises(UndecidableError):
        loc.reduction_number(I, Q)


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
    assert sum(1 for gens, _ in buchberger_inputs if gens == target) <= 1


def test_reduction_number_computes_each_basis_once(buchberger_inputs):
    loc, Q, I = _semigroup3_golden()
    buchberger_inputs.clear()
    assert loc.reduction_number(I, Q) == 2
    assert buchberger_inputs
    assert len(buchberger_inputs) == len(set(buchberger_inputs))


@pytest.fixture
def containment_calls(monkeypatch):
    """Counts of LocalRing.check_contained and LocalRing.check_equal calls."""
    calls = {"check_contained": 0, "check_equal": 0}
    for name in calls:
        real = getattr(LocalRing, name)

        def counted(self, I, J, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, I, J)

        monkeypatch.setattr(LocalRing, name, counted)
    return calls


def test_socle_square_decides_each_equality_by_one_containment(containment_calls):
    # Q inside I, I^2 inside QI, mI inside mQ: the reverse inclusions follow
    # from the first, so none of them is decided again
    loc = build("triple_line", FP(32003)).local
    report = check_socle_square(loc, loc.ideal("Z"))
    assert report.equal is False
    assert containment_calls == {"check_contained": 3, "check_equal": 0}


def test_reduction_number_decides_one_containment_per_step(containment_calls):
    loc, Q, I = _semigroup3_golden()
    r = loc.reduction_number(I, Q)
    assert r == 2
    assert containment_calls == {"check_contained": r + 2, "check_equal": 0}


def _two_sided_reference(loc, Q):
    """The report fields as read off both inclusions of each equality."""
    I = loc.socle_of(Q)
    verdict = loc.check_equal(ideal_power(I, 2), ideal_product(Q, I))
    assert verdict.equal is not None
    m = loc.maximal()
    m_eq = loc.check_equal(ideal_product(m, I), ideal_product(m, Q))
    bad = verdict.forward if verdict.forward.holds is False else verdict.backward
    level = verdict.forward.level
    return {
        "equal": verdict.equal,
        "witness": bad.witness if verdict.equal is False else None,
        "level": level if level is not None else verdict.backward.level,
        "method": verdict.forward.method,
        "m_I_eq_m_Q": m_eq.equal,
    }


REFERENCE_CASES = (
    [("almost_dvr", q) for q in ("Y", "X + Y", "X - Y", "Y^2 - X", "Y^2",
                                 "Y^2 + X*Y", "Y^3", "Y^3 - X*Y", "Y^4")]
    + [("triple_line", f"Z^{n} + X*({f}) + Y*({g})")
       for f in ("1", "X", "0") for g in ("0", "Y", "Z") for n in (1, 2, 3)]
    + [("plane_line1", "X - Y, Y^2 - Z^2"), ("regular3", "X, Y, Z")]
)


@pytest.mark.parametrize("ident, qtext", REFERENCE_CASES)
def test_socle_square_matches_the_two_sided_verdicts(ident, qtext):
    loc = build(ident, FP(32003)).local
    Q = loc.ideal(qtext)
    report = check_socle_square(loc, Q)
    got = {key: getattr(report, key) for key in ("equal", "witness", "level", "method", "m_I_eq_m_Q")}
    assert got == _two_sided_reference(loc, Q)


def _no_intersect(*args, **kw):
    raise AssertionError("a colon of an Artinian quotient by terms must not intersect")


def _elimination_colon(I, J):
    """The generators of I : J as the intersection of the colons by each
    generator of J, the route of colon before its kernel route."""
    out = colon_by_poly(I, J.gens[0])
    for g in J.gens[1:]:
        out = intersect(out, colon_by_poly(I, g))
    return out.gens


SOCLE_CASES = [
    ("semigroup3", "X1"),
    ("semigroup3", "X2*X3^2"),
    ("semigroup3", "X1^3 + X2*X3"),
    ("triple_line", "Z"),
    ("triple_line", "Z^3 + X*Z^2"),
    ("quadric_cone", "X, Y"),
    ("quadric_cone", "X + Y, Z^3"),
    ("plane_line2", "X - Y, Z^2"),
    ("plane_line2", "Y, X^2 + Z^2"),
    ("two_planes", "X - Z, Y - W"),
    ("two_planes", "X^2 - Z^2, Y*W + Y^2 - W^2"),
    ("regular3", "X, Y, Z"),
]


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("ident, qtext", SOCLE_CASES)
def test_graded_artinian_socle_matches_the_colon(monkeypatch, field, ident, qtext):
    loc = build(ident, field).local
    Q = loc.ideal(qtext)
    want = _elimination_colon(loc.full(Q), loc.maximal())
    loc = build(ident, field).local
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    got = loc.socle_of(Q)
    assert got.gens == want
    if ident == "regular3":
        assert [str(g) for g in got.gens] == ["1"]
    # the output carries its reduced basis
    runs = []
    monkeypatch.setattr(socleq.groebner, "buchberger", lambda *a, **kw: runs.append(a))
    assert got.groebner_basis() == got.gens and runs == []


def _two_points(field):
    """k[X,Y]/(X^2 - X, Y^2): the origin and (1, 0)."""
    r = RingSpec(field, ["X", "Y"])
    return LocalRing(r, list(parse_poly_list("X^2 - X, Y^2", r)))


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("ident, qtext", [("almost_dvr", "Y^2 - X"), ("triple_line", "Z + X + Y"),
                                          ("triple_line", "Z + X + Y^2"), ("two_points", "")])
@pytest.mark.parametrize("divisor", ["m", "X^2, Y"])
def test_artinian_colon_by_terms_matches_elimination(monkeypatch, field, ident, qtext, divisor):
    def numerator():
        loc = _two_points(field) if ident == "two_points" else build(ident, field).local
        J = loc.maximal() if divisor == "m" else loc.ideal(divisor)
        return loc.full(loc.ideal(qtext) if qtext else loc.zero_ideal()), J

    want = _elimination_colon(*numerator())
    I, J = numerator()
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    got = colon(I, J)
    assert got.gens == want
    runs = []
    monkeypatch.setattr(socleq.groebner, "buchberger", lambda *a, **kw: runs.append(a))
    assert got.groebner_basis() == got.gens and runs == []


def test_graded_artinian_socle_reduces_each_product_once(monkeypatch):
    # x_j*b with b standard is its own normal form when it is standard, so
    # only the other products are reduced, each of them once
    loc = build("semigroup3", FP(32003)).local
    Q = loc.ideal("X2*X3^2")
    seen = []
    real = socleq.groebner.normal_forms

    def recorded(fs, basis, limits):
        fs = list(fs)
        for f, rem in zip(fs, real(fs, basis, limits)):
            seen.append((f, rem))
            yield rem

    monkeypatch.setattr(socleq.groebner, "normal_forms", recorded)
    loc.socle_of(Q)
    assert seen
    assert len({f for f, _ in seen}) == len(seen)
    assert all(len(f.terms) == 1 and rem != f for f, rem in seen)


def test_graded_artinian_socle_emits_no_audit_event(monkeypatch):
    loc = build("semigroup3", FP(32003)).local
    events = []
    loc.auditor = events.append
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    I = loc.socle_of(loc.ideal("X1"))
    assert I.gens and events == []


def test_socle_over_a_positive_dimensional_global_quotient_intersects(monkeypatch):
    # A = k[X,Y]_(X,Y)/(X*Y - X, Y^2 - Y) is the field k, but S/a also holds
    # the line Y = 1, so the kernel route does not apply and the colon by m
    # eliminates
    r = RingSpec(FP(32003), ["X", "Y"])
    loc = LocalRing(r, list(parse_poly_list("X*Y - X, Y^2 - Y", r)))
    want = _elimination_colon(loc.defining, loc.maximal())
    calls = []
    monkeypatch.setattr(idealops, "intersect", lambda *a: calls.append(a) or intersect(*a))
    assert loc.socle_of(loc.zero_ideal()).gens == want
    assert len(calls) == 3  # one inside each partial colon, and their meet


def test_containment_tests_generators_in_order_up_to_the_first_miss():
    loc = build("triple_line", FP(32003)).local
    events = []
    loc.auditor = events.append
    I = loc.ideal("Z^2, X*Z, Y, Z^3, X^2")
    got = loc.check_contained(I, loc.ideal("Z^2, X"))
    assert got.holds is False and str(got.witness) == "Y"
    assert [str(e["f"]) for e in events] == ["Z^2", "X*Z", "Y"]
    assert all(e["kind"] == "membership" for e in events)


def test_standard_monomials_exist_exactly_for_artinian_lead_ideals():
    cases = 0
    for ident, qtext in SOCLE_CASES + [("almost_dvr", "X"), ("two_planes", "X"), ("regular2", "X")]:
        loc = build(ident, FP(32003)).local
        unit = Ideal(loc.ring, [loc.ring.one()]).groebner_basis()
        assert standard_monomials(unit, loc.ring) == []
        for ideal in (loc.defining, loc.full(loc.ideal(qtext))):
            basis = ideal.groebner_basis()
            std = standard_monomials(basis, loc.ring)
            assert (std is None) == (lead_ideal_dimension(basis, loc.ring) > 0)
            cases += std is None
    assert cases  # both outcomes occur


def test_intern_returns_the_stored_ideal(triple_line):
    full = triple_line.full(triple_line.ideal("Z^2, X"))
    zero = triple_line.ring.zero()
    assert triple_line._intern([*full.gens, zero, full.gens[0]]) is full
    assert triple_line.full(triple_line.ideal("Z^2, X, Z^2")) is full
    foreign = RingSpec(QQ, ["U"]).var("U")
    with pytest.raises(RingMismatchError):
        triple_line._intern([*full.gens, foreign])


# -- inhomogeneous lengths by the m-adic filtration -------------------------------


def _loop_reference(loc, J):
    """The StableLength and the (K, dim) events of the loop over the bases
    of a + J + m^K: quotient_dim_at at K = 1, 2, ... up to the first flat
    step."""
    events = []
    loc.auditor = events.append
    prev, out = None, None
    for K in range(1, loc.limits.trunc_k_budget + 1):
        dK = loc.quotient_dim_at(J, K)
        if dK == prev:
            out = StableLength(dK, K - 1)
            break
        prev = dK
    loc.auditor = None
    return out, [(e["K"], e["dim"]) for e in events]


def _plus_power(loc, gens, K):
    """gens followed by every monomial of plain degree K."""
    one = loc.ring.field.one
    return [*gens, *(loc.ring.from_terms({m: one}) for m in loc.ring.monomials_of_plain_degree(K))]


def _truncated_containment(loc, I, J, level):
    """Containment of I in J at the stable level by normal forms against
    the basis of a + J + m^level, with its membership events."""
    basis = socleq.groebner.buchberger(_plus_power(loc, loc.full(J).gens, level), None, loc.limits)
    seen = []
    for g, rem in zip(I.gens, normal_forms(I.gens, basis, loc.limits)):
        seen.append((g, level, not rem))
        if rem:
            return Containment(False, "finite-colength", witness=g, level=level), seen
    return Containment(True, "finite-colength", level=level), seen


def _carries_a_power(gens):
    """Are the monomials of some plain degree K all among the generators, as
    in a store ideal a + J + m^K?"""
    monos = {g.terms[0][0] for g in gens if len(g.terms) == 1}
    return any(set(gens[0].ring.monomials_of_plain_degree(K)) <= monos for K in {sum(m) for m in monos})


def _random_poly(rng, nvars):
    """Text of a polynomial of X, Y (and Z) with one term in each of two or
    three plain degrees from 1 to 3, coefficients in {-2, -1, 1, 2, 3}."""
    names = "XYZ"[:nvars]
    terms = []
    for d in sorted(rng.sample((1, 2, 3), rng.randint(2, 3))):
        mono = "*".join(rng.choice(names) for _ in range(d))
        terms.append(f"{rng.choice((-2, -1, 1, 2, 3))}*{mono}")
    return " + ".join(terms)


def _inhomogeneous_cases():
    """(zoo ring id, J text): triple_line's and almost_dvr's inhomogeneous
    parameters, then seeded random ideals of regular2, almost_dvr and
    triple_line, some of them with points away from the origin."""
    cases = [("triple_line", f"Z^{n} + X*({f}) + Y*({g})")
             for f in ("1", "X") for g in ("Y", "Z") for n in (1, 2, 3)]
    cases += [("almost_dvr", q) for q in ("Y^2 - X", "Y^3 - X*Y", "Y - X*Y")]
    rng = random.Random(18)
    for ident, nvars, ngens in [("regular2", 2, 2)] * 12 + [("almost_dvr", 2, 1)] * 8 + [("triple_line", 3, 1)] * 6:
        cases.append((ident, ", ".join(_random_poly(rng, nvars) for _ in range(ngens))))
    return cases


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
def test_filtered_lengths_and_containments_match_the_truncated_loop(field):
    filtered = 0
    for ident, jtext in _inhomogeneous_cases():
        ref = build(ident, field).local
        J = ref.ideal(jtext)
        if ref._is_graded_ideal(J):
            continue
        want, want_dims = _loop_reference(ref, J)
        m = ref.maximal()
        tests = [m, ideal_power(m, 2), ideal_power(m, 3), J, ref.ideal(J.gens[:1]),
                 ref.ideal(_random_poly(random.Random(jtext), ref.ring.nvars))]
        want_in = [_truncated_containment(ref, I, J, want.level) for I in tests] if want else []

        loc = build(ident, field).local
        std = standard_monomials(loc.full(J).groebner_basis(), loc.ring)
        events = []
        loc.auditor = events.append
        assert loc.length_of_quotient(J) == want, (ident, jtext)
        assert [(e["K"], e["dim"]) for e in events] == want_dims
        for I, (contained, members) in zip(tests, want_in):
            events.clear()
            assert loc.check_contained(I, J) == contained, (ident, jtext, I)
            assert [(e["f"], e["K"], e["member"]) for e in events] == members
        # the filtration takes no basis of a + J + m^K; the loop does
        assert any(map(_carries_a_power, loc._ideals)) == (std is None), (ident, jtext)
        filtered += std is not None
    assert filtered >= 20


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
def test_inhomogeneous_known_lengths(monkeypatch, field):
    calls = []
    real = LocalRing.quotient_dim_at
    monkeypatch.setattr(LocalRing, "quotient_dim_at",
                        lambda self, I, K: calls.append(K) or real(self, I, K))
    r = RingSpec(field, ["X", "Y"])

    def length(defining, limits=DEFAULT_LIMITS):
        loc = LocalRing(r, list(parse_poly_list(defining, r)), limits)
        events = []
        loc.auditor = events.append
        got = loc.length_of_quotient(loc.zero_ideal())
        return loc, got, [(e["K"], e["dim"]) for e in events]

    # two points, the origin and (1, 0): the filtration drops the second
    loc, got, dims = length("X^2 - X, Y^2")
    assert got == StableLength(2, 2) and dims == [(1, 1), (2, 2), (3, 2)]
    assert len(standard_monomials(loc.defining.groebner_basis(), loc.ring)) == 4
    # X = X^2 = X^3 = ... lies in m^K for every K, so X is 0 in A; Y is not
    assert loc.check_contained(loc.ideal("X"), loc.zero_ideal()) == Containment(True, "finite-colength", level=2)
    outside = loc.check_contained(loc.ideal("X, Y"), loc.zero_ideal())
    assert outside == Containment(False, "finite-colength", witness=loc.ideal("Y").gens[0], level=2)
    loc, got, dims = length("X - Y^2, Y^3")
    assert got == StableLength(3, 3) and dims == [(1, 1), (2, 2), (3, 3), (4, 3)]
    assert loc.krull_dim() == 0
    assert calls == []

    # a line Y = 1 away from the origin: the global lead ideal is not Artinian
    loc, got, dims = length("X*Y - X, Y^2 - Y")
    assert got == StableLength(1, 1) and dims == [(1, 1), (2, 1)]
    assert calls == [1, 2]
    # more standard monomials than dim_cap: the loop decides, and raises nothing
    calls.clear()
    loc, got, dims = length("X^2 - X, Y^2", Limits(dim_cap=3))
    assert got == StableLength(2, 2) and dims == [(1, 1), (2, 2), (3, 2)]
    assert calls == [1, 2, 3]


# Two inhomogeneous presentations with components away from the origin, so
# the global bases of a and of each a + J below have positive-dimensional
# lead ideals: every d_K and membership takes a basis of a + J + m^K.
# Locally X*Y - X is X times a unit, so the first ring is the plane node
# k[Y,Z]/(Z^2 - Z*Y), with d_K = 2K - 1; X lies in aA, but only the probe
# route sees a, so that containment stays undecided.
FALLBACK_RINGS = {"lines": ("XYZ", "X*Y - X, Z^2 - Z*Y"),
                  "surfaces": ("WXYZ", "X*Y - X*W^2, Z^2 - Z*W + X^3")}
_FALLBACK_J = "W*Y - W, Z*Y - Z, X^2*Y - X^2, Y^2 - Y"
FALLBACK_CONTAINMENTS = [
    ("lines", "X, Y, Z", "", False, "truncation-probe", "Y", 2),
    ("lines", "X", "", None, "truncation-probe", None, 8),
    ("lines", "Z^2", "", False, "truncation-probe", "Z^2", 3),
    ("lines", "X, Y, Z", "Z - Y^2", False, "finite-colength", "Y", 3),
    ("lines", "X, Z^2", "Z - Y^2", True, "finite-colength", None, 3),
    ("surfaces", "W, X, Y, Z", "W, Y", False, "truncation-probe", "X", 2),
    ("surfaces", "Y", "W, Y", None, "truncation-probe", None, 8),
    ("surfaces", "X^2", "W, Y", False, "truncation-probe", "X^2", 3),
    ("surfaces", "W, X, Y, Z", _FALLBACK_J, False, "finite-colength", "X", 2),
    ("surfaces", "Y, Z, X*Z, W^2, X^2", _FALLBACK_J, True, "finite-colength", None, 2),
]


def _fallback_ring(name, field):
    names, defining = FALLBACK_RINGS[name]
    r = RingSpec(field, list(names))
    return LocalRing(r, list(parse_poly_list(defining, r)), Limits(trunc_k_budget=8))


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("name", sorted(FALLBACK_RINGS))
def test_fallback_quotient_dims_match_the_oracle(field, name):
    loc = _fallback_ring(name, field)
    assert standard_monomials(loc.defining.groebner_basis(), loc.ring) is None
    dims = [loc.quotient_dim_at(loc.zero_ideal(), K) for K in range(1, 9)]
    assert dims == [oracle_quotient_dim(loc.ring, loc.defining.gens, K) for K in range(1, 9)]
    if name == "lines":
        assert dims == [2 * K - 1 for K in range(1, 9)]


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("name, itext, jtext, holds, method, witness, level", FALLBACK_CONTAINMENTS)
def test_fallback_containments_are_known(field, name, itext, jtext, holds, method, witness, level):
    loc = _fallback_ring(name, field)
    J = loc.ideal(jtext) if jtext else loc.zero_ideal()
    assert standard_monomials(loc.full(J).groebner_basis(), loc.ring) is None
    want = Containment(holds, method, witness and parse_poly(witness, loc.ring), level)
    assert loc.check_contained(loc.ideal(itext), J) == want
