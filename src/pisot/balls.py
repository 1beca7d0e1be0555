"""Certified real and complex numbers held as exact integers.

A `Ball` is an integer center c, an integer radius r and a scale s: the
number lies in [(c - r)/2^s, (c + r)/2^s]. A `CBall` has a Gaussian-integer
center (re, im) and stands for a complex number within r/2^s of
(re + im*i)/2^s. Whoever builds a record states its bound; the records do no
arithmetic, so no rounding can loosen one. `lt` and `gt` are exact integer
comparisons, and `.mid` and `.rad` are exact mpmath views for printing.

Root isolation (`roots.poly_roots`) returns its disks as `CBall`s, a search
candidate reports its value and conjugate moduli as `Ball`s built from its
fixed-point integers, and `minkowski_bound` returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp

# Guard bits beyond a requested precision: in the working precision of root
# isolation and of the cyclotomic embeddings, and in a root disk's radius
# below the scale of its midpoint.
GUARD_BITS = 16


def _exact(m: int, s: int):
    """The mpf m / 2^s, exact whatever the context precision."""
    return mp.make_mpf(from_man_exp(m, -s))


@dataclass(frozen=True)
class Ball:
    """A real number within radius / 2^scale of center / 2^scale."""

    center: int
    radius: int
    scale: int

    @property
    def mid(self):
        return _exact(self.center, self.scale)

    @property
    def rad(self):
        return _exact(self.radius, self.scale)

    def gt(self, bound) -> bool:
        """Certified `self > bound` for an int/Fraction bound."""
        q = Fraction(bound)
        return (self.center - self.radius) * q.denominator > q.numerator << self.scale

    def lt(self, bound) -> bool:
        """Certified `self < bound` for an int/Fraction bound."""
        q = Fraction(bound)
        return (self.center + self.radius) * q.denominator < q.numerator << self.scale


@dataclass(frozen=True)
class CBall:
    """A complex number within radius / 2^scale of (re + im*i) / 2^scale."""

    re: int
    im: int
    radius: int
    scale: int

    @property
    def mid(self):
        s = -self.scale
        return mp.make_mpc((from_man_exp(self.re, s), from_man_exp(self.im, s)))

    @property
    def rad(self):
        return _exact(self.radius, self.scale)
