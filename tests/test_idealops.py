import pytest

from socleq import FP, QQ, Ideal, Limits, RingSpec, buchberger, groebner, idealops, parse_poly, parse_poly_list
from socleq.errors import BudgetExceededError, InputError
from socleq.idealops import (
    colon,
    colon_by_poly,
    equal_as_s_ideals,
    exact_div,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    maximal_ideal,
    saturate,
    with_aux_variable,
    with_variable_last,
)
from socleq.zoo import build


@pytest.fixture
def rxy():
    return RingSpec(QQ, ["X", "Y"])


@pytest.fixture
def rxyz():
    return RingSpec(QQ, ["X", "Y", "Z"])


def ideal(r, text):
    return Ideal(r, parse_poly_list(text, r))


def basis_strs(I):
    return [str(g) for g in I.groebner_basis()]


def test_sum_product_power(rxy):
    I = ideal(rxy, "X")
    m = maximal_ideal(rxy)
    assert basis_strs(ideal_sum(I, m)) == ["Y", "X"]
    assert basis_strs(ideal_product(I, m)) == ["X*Y", "X^2"]
    assert basis_strs(ideal_power(m, 2)) == ["Y^2", "X*Y", "X^2"]
    assert basis_strs(ideal_power(m, 0)) == ["1"]
    assert ideal_power(m, 1) is m


def test_intersect_principal(rxy):
    I = ideal(rxy, "X")
    J = ideal(rxy, "Y")
    assert basis_strs(intersect(I, J)) == ["X*Y"]


def test_intersect_disjoint_planes():
    r = RingSpec(QQ, ["X", "Y", "Z", "W"])
    I = ideal(r, "X, Y")
    J = ideal(r, "Z, W")
    got = basis_strs(intersect(I, J))
    assert sorted(got) == sorted(["X*Z", "X*W", "Y*Z", "Y*W"])


@pytest.mark.parametrize("ident", ["almost_dvr", "triple_line", "semigroup3"])
def test_intersect_result_is_its_own_reduced_basis(monkeypatch, ident):
    z = build(ident, FP(32003))
    ring, a = z.ring, z.local.defining
    xs = ring.gens()
    f = xs[0] + sum(x * x for x in xs)  # not weighted homogeneous
    outs = [intersect(ideal_sum(a, Ideal(ring, [f])), Ideal(ring, [x])) for x in xs]
    outs.append(intersect(a, ideal_power(maximal_ideal(ring), 2)))
    calls = []
    monkeypatch.setattr(groebner, "buchberger", lambda *args, **kw: calls.append(args))
    bases = [out.groebner_basis() for out in outs]
    monkeypatch.undo()
    assert calls == []
    for out, basis in zip(outs, bases):
        assert basis == tuple(buchberger(out.gens))


def test_intersect_with_zero(rxy):
    I = ideal(rxy, "X")
    assert intersect(I, Ideal(rxy, [])).is_zero


def test_exact_div(rxy):
    h = parse_poly("X^2*Y + X*Y^2", rxy)
    f = parse_poly("X*Y", rxy)
    assert str(exact_div(h, f)) == "X + Y"
    with pytest.raises(InputError):
        exact_div(parse_poly("X^2 + Y", rxy), parse_poly("X", rxy))


def test_colon_by_poly(rxy):
    I = ideal(rxy, "X^2, X*Y")
    assert basis_strs(colon_by_poly(I, parse_poly("X", rxy))) == ["Y", "X"]
    assert basis_strs(colon_by_poly(I, parse_poly("Y", rxy))) == ["X"]


def test_colon_by_ideal(rxy):
    I = ideal(rxy, "X^2, X*Y")
    m = maximal_ideal(rxy)
    assert basis_strs(colon(I, m)) == ["X"]


def test_colon_splits_across_disjoint_support(rxyz):
    I = ideal(rxyz, "X*Y, X*Z")
    J = ideal(rxyz, "Y, Z")
    assert basis_strs(colon(I, J)) == ["X"]


def test_colon_edge_cases(rxy):
    I = ideal(rxy, "X^2")
    assert basis_strs(colon(I, Ideal(rxy, []))) == ["1"]
    assert colon_by_poly(Ideal(rxy, []), parse_poly("X", rxy)).is_zero


def test_saturate(rxy):
    I = ideal(rxy, "X^2, X*Y")
    m = maximal_ideal(rxy)
    sat, k = saturate(I, m)
    assert basis_strs(sat) == ["X"]
    assert k == 1
    sat2, k2 = saturate(ideal(rxy, "X"), m)
    assert basis_strs(sat2) == ["X"]
    assert k2 == 0


def test_saturate_m_primary_goes_unit(rxy):
    I = ideal(rxy, "X^2, Y^3")
    sat, k = saturate(I, maximal_ideal(rxy))
    assert basis_strs(sat) == ["1"]
    assert k >= 1


def test_saturate_step_limit_is_a_budget(rxy):
    # (X^2, Y^3) needs at least one colon step before it stabilises
    with pytest.raises(BudgetExceededError):
        saturate(ideal(rxy, "X^2, Y^3"), maximal_ideal(rxy), max_steps=1)


def test_equal_as_s_ideals(rxy):
    assert equal_as_s_ideals(ideal(rxy, "X + Y, Y"), ideal(rxy, "X, Y"))
    assert not equal_as_s_ideals(ideal(rxy, "X"), ideal(rxy, "X, Y"))


def test_aux_variable_avoids_collision():
    r = RingSpec(QQ, ["T", "X"])
    big, lift, project = with_aux_variable(r)
    assert big.vars[0] == "T_"
    p = parse_poly("T*X + 1", r)
    assert str(project(lift(p))) == "T*X + 1"
    with pytest.raises(InputError):
        project(big.gens()[0])


def test_variable_last_moves_name_and_weight():
    r = RingSpec(QQ, ["X", "Y", "Z"], [3, 4, 5])
    moved, to, back = with_variable_last(r, 0)
    assert moved.vars == ("Y", "Z", "X") and moved.weights == (4, 5, 3)
    p = parse_poly("X^2*Y + 2*Z - 1", r)
    assert str(to(p)) == "Y*X^2 + 2*Z - 1"
    assert back(to(p)) == p


def _elimination_colon(I, x):
    """The reference I : x, as (I cap (x)) / x."""
    meet = intersect(I, Ideal(I.ring, [x]))
    return tuple(exact_div(g, x) for g in meet.gens)


def _no_intersect(*args, **kw):
    raise AssertionError("a graded colon by a variable must not intersect")


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("ident, extra", [
    ("semigroup3", ""),
    ("semigroup3", "X1^2*X2"),
    ("semigroup3", "X1^3 + X2*X3, X3^2"),
    ("triple_line", ""),
    ("triple_line", "Z^3"),
    ("triple_line", "X*Z + Y*Z, Z^4"),
    ("quadric_cone", "X^2 - Y*Z, Y^3"),
])
def test_graded_colon_by_variable_matches_elimination(monkeypatch, field, ident, extra):
    z = build(ident, field)
    ring = z.ring
    I = ideal_sum(z.local.defining, Ideal(ring, parse_poly_list(extra, ring) if extra else []))
    assert I.is_homogeneous()
    want = [_elimination_colon(I, x) for x in ring.gens()]
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    for x, ref in zip(ring.gens(), want):
        got = colon_by_poly(I, x)
        assert got.gens == ref
        assert got.groebner_basis() == tuple(buchberger(ref))


def test_inhomogeneous_colon_by_variable_eliminates(monkeypatch, rxy):
    I = ideal(rxy, "X - Y^2, Y^3")
    assert not I.is_homogeneous()
    calls = []
    monkeypatch.setattr(idealops, "intersect", lambda *a: calls.append(a) or intersect(*a))
    out = colon_by_poly(I, parse_poly("Y", rxy))
    assert len(calls) == 1
    assert [str(g) for g in out.gens] == ["X", "Y^2"]


def test_homogeneous_ideal_with_inhomogeneous_generators_takes_graded_route(monkeypatch, rxy):
    I = ideal(rxy, "X + Y^2, Y^2")
    assert I.is_homogeneous()
    want = [_elimination_colon(I, x) for x in rxy.gens()]
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    got = [colon_by_poly(I, x).gens for x in rxy.gens()]
    assert got == want
    assert [str(g) for g in got[1]] == ["Y", "X"]


@pytest.mark.parametrize("f, stored", [("Y", True), ("Y*Z", True), ("2*Y*Z", False)])
@pytest.mark.parametrize("gens", ["X - Y^2, Y^3 + Z^2, X*Z", "X^2 - Y*Z, Y^3, X*Z^2"])
def test_monomial_colon_stores_its_reduced_basis(monkeypatch, gens, f, stored):
    r = RingSpec(FP(32003), ["X", "Y", "Z"])
    I, f = ideal(r, gens), parse_poly(f, r)
    out = colon_by_poly(I, f)
    assert out.gens == _elimination_colon(I, f)
    calls = []
    monkeypatch.setattr(groebner, "buchberger", lambda *args, **kw: calls.append(args) or buchberger(*args, **kw))
    basis = out.groebner_basis()
    assert (calls == []) == stored  # a non-monic monomial leaves non-monic quotients
    assert basis == tuple(buchberger(out.gens))


def test_colon_by_maximal_ideal_intersects_only_the_partial_colons(monkeypatch, rxyz):
    # a positive-dimensional numerator, so the colon eliminates
    I = ideal(rxyz, "X^3, X*Y, Y^2 - X*Z")
    want = colon(I, maximal_ideal(rxyz)).gens
    calls = []
    monkeypatch.setattr(idealops, "intersect", lambda *a: calls.append(a) or intersect(*a))
    assert colon(I, maximal_ideal(rxyz)).gens == want
    assert len(calls) == 2  # the meets of three colons by a variable; none inside them


def _colon_by_meets(I, J, limits=Limits()):
    out = colon_by_poly(I, J.gens[0], limits)
    for g in J.gens[1:]:
        out = intersect(out, colon_by_poly(I, g, limits), limits)
    return out.gens


@pytest.mark.parametrize("gens, divisor, limits, meets", [
    # a positive-dimensional numerator: two meets and one intersection
    # inside the colon by X^2
    ("X^3, X*Y, Y^2 - X*Z", "X^2, Y, Z", Limits(), 3),
    # a divisor with a generator of two terms: one meet and one intersection
    # inside its colon
    ("X^3, X*Y, Y^2 - X*Z, Z^4", "X + Y^2, Z", Limits(), 2),
    # more standard monomials than dim_cap
    ("X^3, X*Y, Y^2 - X*Z, Z^4", "X, Y, Z", Limits(dim_cap=3), 2),
])
def test_colon_falls_back_to_the_partial_colons(monkeypatch, rxyz, gens, divisor, limits, meets):
    I, J = ideal(rxyz, gens), ideal(rxyz, divisor)
    want = _colon_by_meets(I, J, limits)
    assert want == _colon_by_meets(I, J)  # dim_cap does not change the colon
    I = ideal(rxyz, gens)
    calls = []
    monkeypatch.setattr(idealops, "intersect", lambda *a: calls.append(a) or intersect(*a))
    assert colon(I, J, limits).gens == want
    assert len(calls) == meets


def test_artinian_colon_by_terms_intersects_nothing(monkeypatch, rxyz):
    I = ideal(rxyz, "X^3, X*Y, Y^2 - X*Z, Z^4")
    J = ideal(rxyz, "X^2, 3*Y*Z, Z^3")
    want = _colon_by_meets(I, J)
    I = ideal(rxyz, "X^3, X*Y, Y^2 - X*Z, Z^4")
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    assert colon(I, J).gens == want
    assert colon(I, ideal(rxyz, "1, X")).gens == I.groebner_basis()


def test_graded_colon_by_variable_keeps_the_step_budget(monkeypatch):
    z = build("triple_line", FP(32003))
    I = z.local.defining
    I.groebner_basis()
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    with pytest.raises(BudgetExceededError):
        colon_by_poly(I, z.ring.gens()[0], Limits(step_budget=1))
    # both of the route's bases, with x_i moved last and of the quotients,
    # run under the caller's limits
    limits, seen = Limits(step_budget=10_000), []
    monkeypatch.setattr(idealops, "buchberger",
                        lambda gens, order, lim: seen.append(lim) or buchberger(gens, order, lim))
    colon_by_poly(I, z.ring.gens()[0], limits)
    assert seen == [limits, limits]


@pytest.mark.parametrize("gens, var, moved", [("Y^2 - Z^2, Y*Z^2", "X", True),
                                              ("X^2 - Y^2, X*Y^2", "Z", False)])
def test_graded_colon_by_a_nonzerodivisor_is_the_ideal(monkeypatch, rxyz, gens, var, moved):
    I, x = ideal(rxyz, gens), parse_poly(var, rxyz)
    want = _elimination_colon(I, x)
    assert want == I.groebner_basis()
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    seen = []
    monkeypatch.setattr(idealops, "buchberger",
                        lambda gens, order, lim: seen.append(gens) or buchberger(gens, order, lim))
    out = colon_by_poly(I, x)
    assert out.gens == want
    # only the basis with x last is computed, and the output is stored
    assert len(seen) == int(moved)
    runs = []
    monkeypatch.setattr(groebner, "buchberger", lambda *a, **kw: runs.append(a))
    assert out.groebner_basis() == want and runs == []


@pytest.mark.parametrize("field", [FP(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("f", ["3*X", "-Y", "5*Z"])
@pytest.mark.parametrize("gens", ["X^2 - Y*Z, Y^3, X*Z^2", "X*Y, X*Z, Y^2 - Z^2"])
def test_graded_colon_by_a_scaled_variable_matches_elimination(monkeypatch, field, gens, f):
    r = RingSpec(field, ["X", "Y", "Z"])
    I, f = ideal(r, gens), parse_poly(f, r)
    want = _elimination_colon(I, f)
    monkeypatch.setattr(idealops, "intersect", _no_intersect)
    out = colon_by_poly(I, f)
    assert out.gens == want
    calls = []
    monkeypatch.setattr(groebner, "buchberger", lambda *args, **kw: calls.append(args) or buchberger(*args, **kw))
    # the scaled generators are not monic, so they are not stored as a basis
    assert out.groebner_basis() == tuple(buchberger(want))
    assert calls
