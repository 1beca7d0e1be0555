"""Certified real numbers held as exact integers.

A `Ball` is an integer center c, an integer radius r and a scale s: the
number lies in [(c - r)/2^s, (c + r)/2^s]. Whoever builds a ball states its
bound; balls do no arithmetic, so no rounding can loosen one. `lt` and `gt`
are exact integer comparisons, and `digits` prints a center in decimal
through `decimal_digits`, the one exact formatter, which also prints the
ratios in error messages.

A search candidate reports its value and conjugate moduli as `Ball`s built
from its fixed-point integers, a root disk (`roots.PolyRoot`) gives its
modulus as one, and `minkowski_bound` returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Guard bits beyond a requested precision: in the working precision of root
# isolation and of the cyclotomic embeddings, and in a root disk's radius
# below the scale of its midpoint.
GUARD_BITS = 16

_LOG2_10 = math.log(10, 2)


@dataclass(frozen=True)
class Ball:
    """A real number within radius / 2^scale of center / 2^scale."""

    center: int
    radius: int
    scale: int

    def gt(self, bound) -> bool:
        """Certified `self > bound` for an int/Fraction bound."""
        q = Fraction(bound)
        return (self.center - self.radius) * q.denominator > q.numerator << self.scale

    def lt(self, bound) -> bool:
        """Certified `self < bound` for an int/Fraction bound."""
        q = Fraction(bound)
        return (self.center + self.radius) * q.denominator < q.numerator << self.scale

    def digits(self, n: int) -> str:
        """The center to n >= 1 significant digits by `decimal_digits`:
        correctly rounded, half away from zero, in mpmath's `nstr` layout."""
        return self._digits(self.center, n)

    def fixes_digits(self, n: int) -> bool:
        """Whether both ends of the ball, and so every number in it, round
        to the same n significant digits: then `digits(n)` is the number
        itself correctly rounded, however wide the ball."""
        return self._digits(self.center - self.radius, n) == self._digits(self.center + self.radius, n)

    def _digits(self, num: int, n: int) -> str:
        s = self.scale
        num, den = (num, 1 << s) if s >= 0 else (num << -s, 1)
        return decimal_digits(num, den, n)


def decimal_digits(num: int, den: int, n: int) -> str:
    """num / den (den > 0) to n >= 1 significant digits, correctly rounded
    half away from zero, laid out as mpmath's `nstr` lays them out: "0.0"
    for zero, fixed point when the decimal exponent e satisfies
    min(-(n // 3), -5) < e < n and an exponent otherwise, trailing zeros
    stripped.

    e starts one or two below the decimal exponent (the value exceeds
    2^(bits(num) - bits(den) - 1), and one more absorbs float rounding), so
    the exact quotient q of |num| * 10^(n-1-e) by den has n + 1 or n + 2
    digits; the surplus moves into the remainder r, which decides the
    rounding. Only q goes through str(), so no int<->str digit limit applies."""
    a = abs(num)
    if not a:
        return "0.0"
    lo, hi = 10 ** (n - 1), 10**n
    e = math.floor((a.bit_length() - den.bit_length() - 1) / _LOG2_10) - 1
    k = n - 1 - e
    top, bottom = (a * 10**k, den) if k >= 0 else (a, den * 10**-k)
    q, r = divmod(top, bottom)
    while q >= hi:
        q, last = divmod(q, 10)
        r += last * bottom
        bottom *= 10
        e += 1
    if 2 * r >= bottom:
        q += 1
        if q == hi:  # 9...9 carried to 10...0
            q, e = lo, e + 1
    text = str(q)
    split = 1
    if min(-(n // 3), -5) < e < n:
        if e < 0:
            text = "0" * -e + text
        else:
            split = e + 1
            text += "0" * (split - n)
        e = 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    sign = "-" if num < 0 else ""
    return sign + text + (f"e{e:+d}" if e else "")
