import pytest

from socleq import FP, QQ, Ideal, RingSpec, buchberger, groebner, parse_poly, parse_poly_list
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
