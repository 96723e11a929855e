"""Polynomial expressions and ring files: parsing, printing, round trips."""

import pytest

from socleq import (
    FP,
    QQ,
    ParseError,
    RingSpec,
    format_poly,
    format_ring_file,
    parse_poly,
    parse_poly_list,
    parse_ring_file,
)


@pytest.fixture
def rxyz():
    return RingSpec(QQ, ["X", "Y", "Z"])


def test_simple_expressions(rxyz):
    x, y, z = rxyz.gens()
    assert parse_poly("X*Y - Z^2", rxyz) == x * y - z * z
    assert parse_poly("(X + Y)^2", rxyz) == x * x + 2 * x * y + y * y
    assert parse_poly("-X - -Y", rxyz) == -x + y
    assert parse_poly("2", rxyz) == rxyz.const(2)
    assert parse_poly("3*X^2*Y", rxyz) == x * x * y + x * x * y + x * x * y


def test_parse_errors_carry_positions(rxyz):
    with pytest.raises(ParseError) as err:
        parse_poly("X + W", rxyz)
    assert "W" in str(err.value) and "column 5" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("X +", rxyz)
    with pytest.raises(ParseError):
        parse_poly("X ^ Y", rxyz)
    with pytest.raises(ParseError):
        parse_poly("X Y", rxyz)  # implicit multiplication is not part of the grammar
    with pytest.raises(ParseError):
        parse_poly("", rxyz)


def test_poly_list(rxyz):
    polys = parse_poly_list("X - Y, Y^2 - Z^2", rxyz)
    assert len(polys) == 2
    with pytest.raises(ParseError) as err:
        parse_poly_list("X,,Y", rxyz)
    assert (err.value.line, err.value.column) == (1, 3)
    with pytest.raises(ParseError) as err:
        parse_poly_list("X, Y + W", rxyz)
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError) as err:
        parse_ring_file("vars X Y Z\nquotient X, Y + W\n")
    assert (err.value.line, err.value.column) == (2, 17)


def test_print_parse_round_trip(rxyz):
    for text in ["X*Y - Z^2", "X^3 + 3*X^2*Y - Z", "-X + 2", "0", "X^2*Y^3*Z"]:
        p = parse_poly(text, rxyz)
        assert parse_poly(format_poly(p), rxyz) == p


def test_print_uses_descending_default_order(rxyz):
    p = parse_poly("1 + Z + X*Y", rxyz)
    assert format_poly(p) == "X*Y + Z + 1"


def test_fp_balanced_printing():
    r = RingSpec(FP(32003), ["X", "Y"])
    p = parse_poly("X - Y", r)
    assert format_poly(p) == "X - Y"
    assert parse_poly(format_poly(p), r) == p


RING_FILE = """\
# one-dimensional example
field QQ
vars X Y
quotient X^2, X*Y
ideal q1 = Y^3
"""


def test_parse_ring_file_and_round_trip():
    rf = parse_ring_file(RING_FILE)
    assert rf.ring.vars == ("X", "Y")
    assert rf.ring.field == QQ
    assert len(rf.quotient) == 2
    assert list(rf.ideals) == ["q1"]
    printed = format_ring_file(rf)
    again = parse_ring_file(printed)
    assert again.ring == rf.ring
    assert again.quotient == rf.quotient
    assert again.ideals == rf.ideals
    assert format_ring_file(again) == printed


def test_ring_file_weights_and_fp():
    # With weights 3 4 5 the two terms tie at weighted degree 8 and grevlex
    # puts X2^2 first, so this is the canonical spelling for the round trip.
    text = "field FP 32003\nvars X1 X2 X3\nweights 3 4 5\nquotient X2^2 - X1*X3\n"
    rf = parse_ring_file(text)
    assert rf.ring.weights == (3, 4, 5)
    assert rf.ring.field == FP(32003)
    assert format_ring_file(rf) == text
    assert rf.quotient[0].weighted_degree() == 8


def test_ring_file_defaults_to_qq():
    rf = parse_ring_file("vars X Y\nquotient X*Y\n")
    assert rf.ring.field == QQ
    assert rf.ring.weights == (1, 1)


def test_ring_file_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_ring_file("vars X Y\nquotient X*W\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_ring_file("quotient X\nvars X\n")
    with pytest.raises(ParseError):
        parse_ring_file("vars X\nweights 0\nquotient X\n")
    with pytest.raises(ParseError):
        parse_ring_file("field FP 32001\nvars X\n")
    with pytest.raises(ParseError):
        parse_ring_file("vars X\nbogus line\n")
    with pytest.raises(ParseError):
        parse_ring_file("")


@pytest.mark.parametrize("text", ["vars X Y\nweights 1\n", "vars X X\n", "vars X Y\nweights 0 1\n"])
def test_bad_ring_without_polynomials_has_a_position(text):
    with pytest.raises(ParseError) as err:
        parse_ring_file(text)
    assert "line" in str(err.value)
