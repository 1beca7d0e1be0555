"""Arbitrary-precision real and complex ball arithmetic.

A ball is a midpoint together with an error radius. Radii are propagated
first-order through every operation plus a rounding slack of a few ulps;
this is a ball-arithmetic contract, not rigorous directed rounding. The
precision (in bits) of a result is the minimum of the operand precisions.

Balls serve root isolation, the threshold n0, small powers of the dominant
root and `minkowski_bound`, and report a search candidate's value and
conjugate moduli. The search itself certifies on fixed-point integers
(`algebraic.EmbeddingMatrix`), with no ball arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

# Extra working bits so that midpoint rounding stays well below the slack term.
GUARD_BITS = 16


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert {x!r} to a fraction")
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


class Ball:
    """A real number known to lie within `rad` of `mid`."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad, prec: int):
        # mpf()/mpc() round to the *current* context precision, so values
        # computed under workprec must be stored as-is, never reconstructed.
        self.prec = int(prec)
        if isinstance(mid, mpf):
            self.mid = mid
        else:
            with mp.workprec(self.prec + GUARD_BITS):
                self.mid = mpf(mid)
        self.rad = rad if isinstance(rad, mpf) else mpf(rad)

    def __repr__(self):
        return f"Ball({mpmath.nstr(self.mid, 17)}, rad={mpmath.nstr(self.rad, 5)}, prec={self.prec})"

    @classmethod
    def from_int(cls, n: int, prec: int) -> "Ball":
        with mp.workprec(prec + GUARD_BITS):
            mid = mpf(n)
        rad = mpf(0) if abs(n).bit_length() <= prec else abs(mid) * mpf(2) ** (1 - prec)
        return cls(mid, rad, prec)

    @classmethod
    def from_fraction(cls, q: Fraction, prec: int) -> "Ball":
        with mp.workprec(prec + GUARD_BITS):
            mid = mpf(q.numerator) / q.denominator
            rad = abs(mid) * mpf(2) ** (2 - prec)
        return cls(mid, rad, prec)

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        # Even negation re-rounds to the ambient context precision in mpmath,
        # so it must run under this ball's working precision.
        with mp.workprec(self.prec + GUARD_BITS):
            return Ball(-self.mid, self.rad, self.prec)

    def __abs__(self):
        with mp.workprec(self.prec + GUARD_BITS):
            return Ball(abs(self.mid), self.rad, self.prec)

    def __add__(self, other):
        other = _coerce(other, self.prec)
        prec = min(self.prec, other.prec)
        with mp.workprec(prec + GUARD_BITS):
            mid = self.mid + other.mid
            rad = self.rad + other.rad + abs(mid) * mpf(2) ** (2 - prec)
        return Ball(mid, rad, prec)

    def __sub__(self, other):
        return self + (-_coerce(other, self.prec))

    def __mul__(self, other):
        other = _coerce(other, self.prec)
        prec = min(self.prec, other.prec)
        with mp.workprec(prec + GUARD_BITS):
            mid = self.mid * other.mid
            rad = (
                abs(self.mid) * other.rad
                + abs(other.mid) * self.rad
                + self.rad * other.rad
                + abs(mid) * mpf(2) ** (2 - prec)
            )
        return Ball(mid, rad, prec)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other, self.prec) - self

    def sqrt(self):
        lb = self.mid - self.rad
        if lb <= 0:
            from . import errors

            raise errors.PrecisionError("sqrt of a ball not certified positive")
        with mp.workprec(self.prec + GUARD_BITS):
            mid = mpmath.sqrt(self.mid)
            rad = self.rad / (2 * mpmath.sqrt(lb)) + abs(mid) * mpf(2) ** (2 - self.prec)
        return Ball(mid, rad, self.prec)

    def pow_int(self, n: int) -> "Ball":
        if n < 0:
            raise ValueError("negative exponent")
        result = Ball.from_int(1, self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- certified queries -------------------------------------------------

    def upper(self):
        with mp.workprec(self.prec + GUARD_BITS):
            return self.mid + self.rad

    def lower(self):
        with mp.workprec(self.prec + GUARD_BITS):
            return self.mid - self.rad

    def gt(self, bound) -> bool:
        """Certified `self > bound` for an int/Fraction bound."""
        return mpf_to_fraction(self.lower()) > Fraction(bound)

    def lt(self, bound) -> bool:
        """Certified `self < bound` for an int/Fraction bound."""
        return mpf_to_fraction(self.upper()) < Fraction(bound)

    def nearest_int(self) -> int:
        """Nearest integer to the midpoint, half away from zero."""
        f = mpf_to_fraction(self.mid)
        n = f.numerator
        d = f.denominator
        if n >= 0:
            return (2 * n + d) // (2 * d)
        return -((-2 * n + d) // (2 * d))


def _coerce(x, prec: int) -> Ball:
    if isinstance(x, Ball):
        return x
    if isinstance(x, int):
        return Ball.from_int(x, prec)
    if isinstance(x, Fraction):
        return Ball.from_fraction(x, prec)
    raise TypeError(f"cannot mix Ball with {type(x).__name__}")


class CBall:
    """A complex number known to lie within `rad` of `mid`."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad, prec: int):
        self.prec = int(prec)
        if isinstance(mid, mpc):
            self.mid = mid
        else:
            with mp.workprec(self.prec + GUARD_BITS):
                self.mid = mpc(mid)
        self.rad = rad if isinstance(rad, mpf) else mpf(rad)

    def __repr__(self):
        return f"CBall({mpmath.nstr(self.mid, 17)}, rad={mpmath.nstr(self.rad, 5)}, prec={self.prec})"

    def abs_ball(self) -> Ball:
        with mp.workprec(self.prec + GUARD_BITS):
            m = abs(self.mid)
            rad = self.rad + m * mpf(2) ** (2 - self.prec)
        return Ball(m, rad, self.prec)
