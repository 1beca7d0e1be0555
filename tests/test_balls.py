"""Ball arithmetic: enclosure, certified comparisons, rounding."""

from fractions import Fraction

import mpmath
import pytest

from pisot import errors
from pisot.balls import Ball, CBall, mpf_to_fraction


def exact(b: Ball) -> Fraction:
    return mpf_to_fraction(b.mid)


def test_from_int_exact():
    b = Ball.from_int(12345, 64)
    assert exact(b) == 12345
    assert mpf_to_fraction(b.rad) == 0


def test_from_fraction_encloses():
    q = Fraction(1, 3)
    b = Ball.from_fraction(q, 128)
    assert mpf_to_fraction(b.lower()) <= q <= mpf_to_fraction(b.upper())
    assert mpf_to_fraction(b.rad) < Fraction(1, 2**120)


def test_add_mul_enclosure():
    third = Ball.from_fraction(Fraction(1, 3), 96)
    seventh = Ball.from_fraction(Fraction(1, 7), 96)
    s = third + seventh
    p = third * seventh
    assert mpf_to_fraction(s.lower()) <= Fraction(10, 21) <= mpf_to_fraction(s.upper())
    assert mpf_to_fraction(p.lower()) <= Fraction(1, 21) <= mpf_to_fraction(p.upper())


def test_neg_and_sub_do_not_lose_precision():
    # Negation/subtraction must not re-round midpoints to the ambient
    # (53-bit) context precision.
    q = Fraction(1, 3)
    b = Ball.from_fraction(q, 192)
    d = -b + b
    assert abs(exact(d)) < Fraction(1, 2**180)
    c = b - Ball.from_fraction(Fraction(1, 7), 192)
    assert abs(exact(c) - (q - Fraction(1, 7))) < Fraction(1, 2**180)


def test_sqrt():
    b = Ball.from_int(2, 128).sqrt()
    v = exact(b)
    assert abs(v * v - 2) < Fraction(1, 2**100)
    with pytest.raises(errors.PrecisionError):
        Ball(mpmath.mpf(0), mpmath.mpf(1), 64).sqrt()


def test_pow_int():
    b = Ball.from_fraction(Fraction(3, 2), 128)
    p = b.pow_int(10)
    assert mpf_to_fraction(p.lower()) <= Fraction(3, 2) ** 10 <= mpf_to_fraction(p.upper())
    assert exact(b.pow_int(0)) == 1


def test_certified_comparisons():
    b = Ball.from_fraction(Fraction(5, 2), 64)
    assert b.gt(2)
    assert b.lt(3)
    assert not b.gt(Fraction(5, 2))  # boundary is never certified
    wide = Ball(mpmath.mpf(0), mpmath.mpf(1), 64)
    assert not wide.gt(0) and not wide.lt(0)


def test_nearest_int_half_away_from_zero():
    assert Ball.from_fraction(Fraction(5, 2), 64).nearest_int() == 3
    assert Ball.from_fraction(Fraction(-5, 2), 64).nearest_int() == -3
    assert Ball.from_fraction(Fraction(49, 20), 64).nearest_int() == 2
    assert Ball.from_fraction(Fraction(-49, 20), 64).nearest_int() == -2


def test_cball_abs_and_mul():
    z = CBall(mpmath.mpc(3, 4), mpmath.mpf(0), 96)
    m = z.abs_ball()
    assert abs(exact(m) - 5) < Fraction(1, 2**80)
