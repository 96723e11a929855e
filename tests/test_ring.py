"""Ambient rings, monomial orders, polynomial arithmetic."""

import pytest

from socleq import (
    FP,
    GRADEDLEX,
    GREVLEX,
    LEX,
    QQ,
    Block,
    InputError,
    RingMismatchError,
    RingSpec,
    compare,
    parse_poly,
)


@pytest.fixture
def rxy():
    return RingSpec(QQ, ["X", "Y"])


def test_ring_validation():
    with pytest.raises(InputError):
        RingSpec(QQ, [])
    with pytest.raises(InputError):
        RingSpec(QQ, ["X", "X"])
    with pytest.raises(InputError):
        RingSpec(QQ, ["X"], [0])
    with pytest.raises(InputError):
        RingSpec(QQ, ["X", "Y"], [1])


def test_grevlex_prefers_first_variable_on_equal_degree(rxy):
    x2 = (2, 0)
    xy = (1, 1)
    assert compare(GREVLEX, x2, xy, rxy.weights) == 1
    assert compare(GREVLEX, xy, x2, rxy.weights) == -1
    assert compare(GREVLEX, x2, x2, rxy.weights) == 0


def test_weighted_degree_order_examples():
    r = RingSpec(QQ, ["X", "Y"], [1, 2])
    # Y has weighted degree 2 > X's 1
    assert compare(GRADEDLEX, (0, 1), (1, 0), r.weights) == 1
    assert compare(GREVLEX, (0, 1), (1, 0), r.weights) == 1


def test_lex_and_block_orders():
    r = RingSpec(QQ, ["X", "Y", "Z"])
    assert compare(LEX, (1, 0, 0), (0, 5, 0), r.weights) == 1
    elim = Block([0])  # X dominates {Y, Z}
    assert compare(elim, (1, 0, 0), (0, 5, 0), r.weights) == 1
    assert compare(elim, (0, 1, 0), (0, 0, 2), r.weights) == -1  # grevlex on the tail block
    # keys computed on several ring sizes leave equality and hashing to `first`
    compare(elim, (0, 1), (1, 0), (1, 1))
    assert elim == Block((0,)) and hash(elim) == hash(Block((0,)))
    assert elim != Block((1,)) and elim != LEX


def test_order_axioms_spotchecks(rxy):
    w = rxy.weights
    one = (0, 0)
    for u in [(1, 0), (0, 1), (2, 3)]:
        assert compare(GREVLEX, u, one, w) == 1  # 1 is minimal
    # multiplicativity: u > v implies u+t > v+t
    u, v, t = (2, 0), (1, 1), (3, 4)
    assert compare(GREVLEX, u, v, w) == 1
    assert compare(GREVLEX, (5, 4), (4, 5), w) == 1


def test_weighted_degree_of_named_generators():
    # weights e+i-1 for e=3: the smallest generator has weighted degree 3
    r = RingSpec(QQ, ["X1", "X2", "X3"], [3, 4, 5])
    assert parse_poly("X1", r).weighted_degree() == 3
    d = parse_poly("X2*X1^2 - X3^2", r)
    assert d.weighted_degree() == 10
    r4 = RingSpec(QQ, ["X1", "X2", "X3", "X4"], [4, 5, 6, 7])
    assert parse_poly("X2*X4 - X3*X3", r4).weighted_degree() == 12


def test_arithmetic_and_normalization(rxy):
    x, y = rxy.gens()
    p = (x + y) * (x - y)
    assert p == parse_poly("X^2 - Y^2", rxy)
    assert (x + y) - (x + y) == rxy.zero()
    assert not rxy.zero()
    q = (x + y) ** 3
    assert q == parse_poly("X^3 + 3*X^2*Y + 3*X*Y^2 + Y^3", rxy)
    assert p * rxy.zero() == rxy.zero()


def test_terms_sorted_descending_default_order(rxy):
    p = parse_poly("1 + X^2 + Y + X*Y", rxy)
    monos = [m for m, _ in p.terms]
    keys = [GREVLEX.key(m, rxy.weights) for m in monos]
    assert keys == sorted(keys, reverse=True)
    assert monos[0] == (2, 0)


def test_ring_mismatch_is_an_error(rxy):
    other = RingSpec(QQ, ["X", "Z"])
    with pytest.raises(RingMismatchError):
        rxy.var("X") + other.var("X")
    fp = RingSpec(FP(7), ["X", "Y"])
    with pytest.raises(Exception):
        rxy.var("X") * fp.var("X")


def test_homogeneity_detection(rxy):
    assert parse_poly("X^2 + X*Y", rxy).weighted_degree() == 2
    assert parse_poly("X^2 + Y", rxy).weighted_degree() is None
    wr = RingSpec(QQ, ["X", "Y"], [1, 2])
    assert parse_poly("X^2 + Y", wr).weighted_degree() == 2


def test_monomials_of_plain_degree():
    r = RingSpec(QQ, ["X", "Y", "Z"])
    d2 = r.monomials_of_plain_degree(2)
    assert len(d2) == 6
    assert all(sum(m) == 2 for m in d2)
    assert len(set(d2)) == 6
    below = r.monomials_below_plain_degree(3)
    assert len(below) == 1 + 3 + 6


def test_constant_and_power_edge_cases(rxy):
    p = parse_poly("X + 1", rxy)
    assert p ** 0 == rxy.one()
    with pytest.raises(InputError):
        p ** -1
    assert rxy.const(0) == rxy.zero()
    with pytest.raises(InputError):
        rxy.zero().weighted_degree()
