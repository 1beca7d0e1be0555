"""Ball records: certified comparisons on exact integers, and decimal digits."""

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import nstr

from pisot.balls import Ball

from oracles import decimal_reference, int_str_limit, mid


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


def test_fixes_digits_when_both_ends_round_alike():
    # 123456785 is where 8 digits round up: the closed ball of radius 5
    # about 123456780 reaches it, the one of radius 4 does not.
    assert Ball(123456780, 4, 0).fixes_digits(8)
    assert not Ball(123456780, 5, 0).fixes_digits(8)
    assert Ball(123456780 << 70, (5 << 70) - 1, 70).fixes_digits(8)
    assert not Ball(123456780 << 70, 5 << 70, 70).fixes_digits(8)
    # About 1/3 within 2^-64, or 5.4e-20: 18 digits are fixed, 20 are not.
    third = Ball(((1 << 128) - 1) // 3, 1 << 64, 128)
    assert third.fixes_digits(18) and not third.fixes_digits(20)


def _formatter_cases(count, seed):
    """(center, scale, n) triples: random mantissas near unit magnitude;
    exact t * 10^k for powers of ten, 10^n - 1 carries and halves at digit
    n + 1; binary exponents out to +-20,000; and values around nstr's
    switch to a power-of-ten division at 2^+-3500. About a third negative."""
    rng = random.Random(seed)
    cases = [(0, 0, 20)]
    for _ in range(count):
        n = rng.choice((1, 3, 8, 10, 20, 40))
        kind = rng.randrange(4)
        if kind == 0:
            c, s = rng.getrandbits(rng.randint(1, 400)) or 1, rng.randint(-64, 600)
        elif kind == 1:
            k = rng.randint(-1500, 1500)
            t = rng.choice((1, 5, 15, 95, 10**n - 1, 10 ** (n + 1) - 5, 5 * 10**n, 10**n + 5))
            c, s = (t * 10**k, 0) if k >= 0 else (t * 5**-k, -k)
            shift = rng.randint(0, 64)
            c, s = c << shift, s + shift
        elif kind == 2:
            c, s = rng.getrandbits(rng.randint(1, 200)) or 1, rng.randint(-20000, 20000)
        else:
            bits = rng.randint(3400, 4000)
            c = rng.getrandbits(bits) | 1
            s = bits + rng.choice((-3501, -3500, -3499, 3499, 3500, 3501))
        cases.append((-c if rng.random() < 0.3 else c, s, n))
    return cases


def test_digits_match_nstr():
    # Every value is the correctly rounded one. Where nstr prints the same
    # value, the text is nstr's byte for byte, which pins the layout. nstr's
    # digits differ only beyond 2^+-3500, where it divides by a power of ten
    # rounded to a few more bits than it prints.
    for c, s, n in _formatter_cases(2000, seed=12):
        b = Ball(c, 1, s)
        text, theirs = b.digits(n), nstr(mid(b), n)
        assert Decimal(text) == decimal_reference(c, s, n), (c, s, n)
        if Decimal(theirs) == Decimal(text):
            assert text == theirs, (c, s, n)
        else:
            assert abs(abs(c).bit_length() - s) > 3500, (c, s, n)


@pytest.mark.parametrize("scale", [0, 12870, 200000, -5000])
@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
def test_digits_of_a_huge_center_under_the_least_digit_limit(scale, parity):
    # Only the n printed digits pass through str(), so Python's smallest
    # int<->str limit, 640 digits, holds for a 30,103-digit value.
    c = random.Random(scale).getrandbits(100000) | 1 << 99999
    c = c | 1 if parity else c & ~1
    with int_str_limit(640):
        start = time.perf_counter()
        text = Ball(c, 1, scale).digits(40)
        elapsed = time.perf_counter() - start
    assert Decimal(text) == decimal_reference(c, scale, 40)
    assert elapsed < 0.5
