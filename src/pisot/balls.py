"""Certified real and complex numbers held as exact integers.

A `Ball` is an integer center c, an integer radius r and a scale s: the
number lies in [(c - r)/2^s, (c + r)/2^s]. A `CBall` has a Gaussian-integer
center (re, im) and stands for a complex number within r/2^s of
(re + im*i)/2^s. Whoever builds a record states its bound; the records do no
arithmetic, so no rounding can loosen one. `lt` and `gt` are exact integer
comparisons, and `digits` prints a center in decimal.

Root isolation (`roots.poly_roots`) returns its disks as `CBall`s, a search
candidate reports its value and conjugate moduli as `Ball`s built from its
fixed-point integers, and `minkowski_bound` returns one.
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
# ln 2 and ln 10 times 2^128, rounded down.
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
_LN10 = 0x24D763776AAA2B05BA95B58AE0B4C28A3


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
        """The center to n >= 1 significant digits, as mpmath's
        `nstr(center / 2^scale, n)` prints it, byte for byte.

        Like nstr, it reads n + 3 digits rounded toward zero from a p-bit
        truncation of the value, p = int((n + 3) log2 10) + 10, rounds half up
        on digit n + 1, writes the value in fixed point when its decimal
        exponent e satisfies min(-(n // 3), -5) < e < n and with an exponent
        otherwise, and strips trailing zeros. Beyond 2^3500 or below 2^-3500
        nstr first divides by a power of ten near the value, rounded to p
        bits; `_over_power_of_ten` repeats that division and its roundings."""
        c, s = abs(self.center), self.scale
        if not c:
            return "0.0"
        p = int((n + 3) * _LOG2_10) + 10
        e = 0
        if abs(c.bit_length() - s) > 3500:
            c, s, e = _over_power_of_ten(c, s, p)
        f = max(p - (c.bit_length() - s), 0)
        d = int(f / _LOG2_10 + 0.5)
        text = str(_shift(c, f - s) * 10**d >> f)
        e += len(text) - d - 1
        if len(text) > n and text[n] in "56789":
            text = str(int(text[:n]) + 1)
            if len(text) > n:  # 9...9 carried to 10...0
                e += 1
        text = text[:n]
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
        sign = "-" if self.center < 0 else ""
        return sign + text + (f"e{e:+d}" if e else "")


@dataclass(frozen=True)
class CBall:
    """A complex number within radius / 2^scale of (re + im*i) / 2^scale."""

    re: int
    im: int
    radius: int
    scale: int


def _shift(m: int, k: int) -> int:
    """floor(m * 2^k)."""
    return m << k if k >= 0 else m >> -k


def _over_power_of_ten(c: int, s: int, p: int) -> tuple[int, int, int]:
    """(c', s', b) with c'/2^s' = (c/2^s) / 10^b as mpmath's `to_digits_exp`
    computes it for c > 0: b = trunc(x * ln 2 / ln 10), for x the binary
    exponent of c/2^s with its trailing zero bits taken off and both
    logarithms rounded down to bits(|x|) + 5 bits; 10^b rounded down to p
    bits (for b < 0, 1 over 10^-b rounded up to p + 5 bits); the quotient
    rounded down to p bits."""
    x = (c & -c).bit_length() - 1 - s
    q = abs(x).bit_length() + 5
    b = abs(x) * (_LN2 >> (128 - q)) // ((_LN10 >> (130 - q)) << 2)
    if x < 0:
        b = -b
    if b >= 0:
        m, e = _power_of_ten(b, p, up=False)
    else:
        m, e = _power_of_ten(-b, p + 5, up=True)
        m, e = _quotient(1, 0, m, e, p)
    m, e = _quotient(c, -s, m, e, p)
    return m, -e, b


def _power_of_ten(n: int, p: int, up: bool) -> tuple[int, int]:
    """10^n = m * 2^e rounded to p bits, down or up, by mpmath's
    `mpf_pow_int`: exactly when 3n < 1000, else by square-and-multiply on
    5^n * 2^n rounding every product to p + 4 bits(n) + 4 bits the same way."""
    if 3 * n < 1000:
        return _rounded(5**n, n, p, up)
    w = p + 4 * n.bit_length() + 4
    pm, pe, m, e = 1, 0, 5, 1
    while True:
        if n & 1:
            pm, pe = _rounded(pm * m, pe + e, w, up)
            n -= 1
            if not n:
                break
        m, e = _rounded(m * m, 2 * e, w, up)
        n //= 2
    return _rounded(pm, pe, p, up)


def _rounded(m: int, e: int, p: int, up: bool) -> tuple[int, int]:
    """m * 2^e (m > 0) rounded to p significant bits, down or up."""
    k = m.bit_length() - p
    if k <= 0:
        return m, e
    return (-(-m >> k) if up else m >> k), e + k


def _quotient(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    """(am * 2^ae) / (bm * 2^be) rounded down to p significant bits."""
    k = p + bm.bit_length() - am.bit_length() + 1
    return _rounded(_shift(am, k) // bm, ae - be - k, p, up=False)
