"""Exact scalar arithmetic over QQ and F_p."""

from fractions import Fraction

import pytest

from socleq import FP, QQ, InputError
from socleq.field import is_prime, parse_field


def test_qq_elements_are_reduced_fractions():
    a = QQ.mul(QQ.from_int(6), QQ.inv(QQ.from_int(4)))
    assert a == Fraction(3, 2)
    assert a.denominator == 2 and a.denominator > 0


def test_qq_arithmetic():
    a = QQ.inv(QQ.from_int(3))
    b = QQ.inv(QQ.from_int(6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(1, 18)
    assert QQ.inv(a) == 3
    assert QQ.sub(a, a) == 0


def test_fp_arithmetic_and_inverse():
    F = FP(32003)
    a = F.from_int(-1)
    assert a == 32002
    assert F.mul(a, a) == 1
    for x in (1, 2, 17, 32002, 12345):
        assert F.mul(x, F.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_fp_requires_prime_modulus():
    with pytest.raises(InputError):
        FP(32001)  # 3 * 10667
    with pytest.raises(InputError):
        FP(1)
    with pytest.raises(InputError):
        FP(2**64 + 13)
    FP(2)
    FP(3)
    FP(2**61 - 1)  # Mersenne prime below the 2**64 line


def test_is_prime_deterministic_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)      # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to small bases
    assert is_prime(32003)


def test_field_equality_and_parse():
    assert FP(7) == FP(7)
    assert FP(7) != FP(11)
    assert QQ != FP(7)
    assert parse_field("qq") == QQ
    assert parse_field("fp:32003") == FP(32003)
    with pytest.raises(InputError):
        parse_field("gf:9")
