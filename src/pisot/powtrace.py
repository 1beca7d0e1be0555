"""Nearest integer to alpha^n through power sums of the roots.

For n at or above the certified threshold, [alpha^n] equals the integer
power sum p_n of the roots of f. One engine computes it: x^floor(n/2) mod f
by square-and-reduce, then p_n = sum_{i,j} r_i r_j p_{i+j+(n mod 2)} with the
first 2d power sums from the Newton identities (Fiduccia, "An efficient
formula for linear recurrences", SIAM J. Comput. 14(1), 1985). The same loop
runs on exact integers, on integers mod m and on straight-line program
instructions, and on any other ring its `lift` maps the integers into: the
CLI runs it on `decimal.Decimal` in an exact context, whose products of
large numbers are faster than int's.

Each bit of n costs the square of r, d^2 + d - 2 ring operations of which
d(d+1)/2 are products of two coefficients, and its reduction by f: for each
of the d - 1 or d terms folded back, one product by each distinct |c_i| > 1
and one addition or subtraction per nonzero c_i. With z nonzero c_i of u
distinct magnitudes above 1 that is d^2 + d - 2 + d(z + u) operations per
bit: at most 3d^2 + d, and about 2d^2 when one c_i is large and the others
lie in [-2, 2].

Below the threshold, alpha^n = p_n - S_n, where
S_n = sum_{i >= 2} beta_i^n runs over the other roots, so [alpha^n] is p_n
minus the nearest integer to S_n, which the certified root disks enclose.
"""

from __future__ import annotations

from . import errors
from .algebraic import IntPoly, MinPolyInfo, poly_roots, round_div
from .roots import MAX_WORK_BITS, fixed_power, work_bits


def _axpy(acc, c: int, t):
    """acc + c*t for an integer c != 0, where acc None stands for zero.
    Multiplications by +-1 are left out, which keeps programs short."""
    if acc is None:
        return t if c == 1 else t * c
    if c == 1:
        return acc + t
    if c == -1:
        return acc - t
    return acc + t * c


def _first_power_sums(c: tuple[int, ...], count: int) -> list[int]:
    """p_0 ... p_{count-1} of the roots of x^d + c_{d-1} x^{d-1} + ... + c_0,
    by the Newton identities."""
    d = len(c)
    p = [d]
    for n in range(1, count):
        s = -n * c[d - n] if n <= d else 0
        for i in range(1, min(n - 1, d) + 1):
            s -= c[d - i] * p[n - i]
        p.append(s)
    return p


def power_sum(f: IntPoly, n: int, modulus: int | None = None, lift=None):
    """p_n, the sum of the n-th powers of the roots of the monic f with f(0) != 0.

    Computes r = x^floor(n/2) mod f by square-and-reduce and reads p_n off it
    without forming the last square: p_n = sum_{i,j} r_i r_j p_{i+j+(n mod 2)}.
    The coefficients are whatever `lift` turns an integer into (integers by
    default); they need only +, - and * with each other and with ints. With
    a modulus, every step is reduced mod m and the result lies in [0, m).
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if modulus is not None and modulus < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {modulus}")
    if not f.is_monic:
        raise errors.NotMonic("power sums require a monic polynomial")
    c = f.coefficients[:-1]
    if c[0] == 0:
        raise ValueError("f(0) must be nonzero")
    d = len(c)
    if lift is None:
        lift = int if modulus is None else (lambda v: v % modulus)
    p = _first_power_sums(c, 2 * d)
    if n < 2 * d:
        return lift(p[n])
    k, odd = divmod(n, 2)
    # Start at x^j for the longest leading bit string j of k with j < d.
    shift = k.bit_length()
    while k >> (shift - 1) < d:
        shift -= 1
    r = [lift(1 if i == k >> shift else 0) for i in range(d)]
    # The reduction needs t*|c_i| for each popped t: one product per distinct
    # magnitude above 1, shared by every c_i of that magnitude, whatever its
    # sign. terms holds (i, index of t*|c_i| in the multiples, c_i > 0).
    magnitudes = sorted({abs(v) for v in c} - {0, 1})
    terms = [
        (i, magnitudes.index(abs(v)) + 1 if abs(v) > 1 else 0, v > 0)
        for i, v in enumerate(c)
        if v
    ]
    for bit in range(shift - 1, -1, -1):
        # Symmetric square: d(d+1)/2 products, cross terms doubled once.
        s = [None] * (2 * d - 1)
        for i in range(d):
            for j in range(i + 1, d):
                s[i + j] = _axpy(s[i + j], 1, r[i] * r[j])
        s = [v if v is None else v + v for v in s]
        for i in range(d):
            s[2 * i] = _axpy(s[2 * i], 1, r[i] * r[i])
        if k >> bit & 1:
            s.insert(0, None)  # times x
        # x^e = -sum_i c_i x^(e-d+i) for each e >= d, from the top down.
        for e in range(len(s) - 1, d - 1, -1):
            t = s.pop()
            multiples = [t] + [t * a for a in magnitudes]
            for i, which, positive in terms:
                j = e - d + i
                acc, v = s[j], multiples[which]
                if acc is None:
                    s[j] = t * -c[i] if positive else v
                elif positive:
                    s[j] = acc - v
                else:
                    s[j] = acc + v
        r = s if modulus is None else [v % modulus for v in s]
    # sum_i r_i u_i with u_i = sum_j p_{i+j+odd} r_j: only d full products.
    total = None
    for i in range(d):
        u = None
        for j in range(d):
            if p[i + j + odd]:
                u = _axpy(u, p[i + j + odd], r[j])
        if u is not None:
            total = _axpy(total, 1, r[i] * u)
    return total if modulus is None else total % modulus


def _rounded_conjugate_sum(f: IntPoly, n: int, info: MinPolyInfo) -> int:
    """The nearest integer to S_n = sum_{i >= 2} beta_i^n, so that
    [alpha^n] = p_n minus it; 0 from the threshold n0 on.

    Each beta_i lies in a certified disk of center c and radius R inside the
    unit disk, so |beta_i^n - c^n| <= n*R, and c^n comes from `fixed_power`
    with its truncation bound. When S_n lies within the summed bound of a
    half-integer, the roots are isolated again at twice the precision, up
    to MAX_WORK_BITS.
    """
    if n >= info.threshold_n0:
        return 0
    roots, dom, prec = info.roots, info.dominant_index, info.precision_bits
    while True:
        others = [r for i, r in enumerate(roots) if i != dom]
        s = others[0].value.scale  # one scale for all disks of an isolation
        # The n*R bound needs every disk inside the unit disk.
        if all(r.modulus().lt(1) for r in others):
            total = err = 0
            for r in others:
                u, _, e = fixed_power(r.value.re, r.value.im, n, s)
                total += u
                err += e + n * r.value.radius
            k = round_div(total, 1 << s)
            if 2 * (abs(total - (k << s)) + err) < 1 << s:
                return k
        prec *= 2
        if work_bits(prec) > MAX_WORK_BITS:
            raise errors.PrecisionExhausted(
                f"could not certify the nearest integer to alpha^{n} below "
                f"{MAX_WORK_BITS} working bits"
            )
        roots = poly_roots(f, prec)
        dom = max((i for i, r in enumerate(roots) if r.is_real), key=lambda i: roots[i].value.re)


def nearest_power(f: IntPoly, n: int, info: MinPolyInfo, lift=int):
    """[alpha^n] exactly, where alpha is the Pisot root of f. p_n is computed
    on whatever `lift` turns an integer into (an int by default), as in
    `power_sum`, and the integer round(S_n) is subtracted from it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    info.check_poly(f)
    return power_sum(f, n, lift=lift) - _rounded_conjugate_sum(f, n, info)


def nearest_power_mod(f: IntPoly, n: int, m: int, info: MinPolyInfo) -> int:
    """[alpha^n] mod m in time polynomial in log(mn)."""
    if m < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {m}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    info.check_poly(f)
    return (power_sum(f, n, m) - _rounded_conjugate_sum(f, n, info)) % m
