"""Ball records: certified comparisons on exact integers."""

from fractions import Fraction

from pisot.balls import Ball


def test_certified_comparisons():
    b = Ball(5 << 63, 1, 64)  # 5/2 within 2^-64
    assert b.gt(2)
    assert b.lt(3)
    assert not b.gt(Fraction(5, 2))  # boundary is never certified
    assert not b.lt(Fraction(5, 2))
    assert b.gt(Fraction((5 << 63) - 2, 1 << 64)) and b.lt(Fraction((5 << 63) + 2, 1 << 64))
    assert not b.gt(Fraction((5 << 63) - 1, 1 << 64))  # the radius is closed
    wide = Ball(0, 1, 0)
    assert not wide.gt(0) and not wide.lt(0)
