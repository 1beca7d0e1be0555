"""Certified complex roots of integer polynomials.

`root_layouts`, the one precision ladder of root isolation, finds every
root by Aberth-Ehrlich iterations in floats and Newton steps on fixed-point
Gaussian integers, and certifies each with a disk whose radius comes from an
exact residual: f evaluated exactly at the dyadic midpoint, whatever solver
found it. A layout has one format from the start points to the certificate:
the r real midpoints, counted and split by sign by Sturm's theorem on the
remainder sequence of f and f', then one midpoint of each conjugate pair.
The lower mirrors are never stored, so the float iterations, the Newton and
Aberth steps and the exact residuals run on r + (d - r)/2 midpoints, the
real ones in real arithmetic. Once the d disks are pairwise disjoint, two
facts decide which roots are real with no further test: a disk centred on
the axis is its own mirror, so the mirror of its one root lies in it and
the root is real; and a pair's disk that reached the axis would meet its
own mirror. `share_a_root`
decides exactly whether two integer polynomials have a common root, by
their gcd over Z, from the same remainder sequence. `fixed_power` powers a
fixed-point Gaussian integer with an integer error bound, for the threshold
n0 and for the powers of the small roots below it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING

from . import errors
from .balls import GUARD_BITS, Ball
from .limits import MAX_WORK_BITS

if TYPE_CHECKING:
    from .algebraic import IntPoly

# Sweeps of one Aberth-Ehrlich run, in floats or in fixed point at w.
ABERTH_STEPS = 200
# Working bits above a layout's precision and its guard bits (`work_bits`).
_SLACK_BITS = 32
# Direction in which float Aberth moves an approximation off a coincidence.
_NUDGE = complex(0.6, 0.8)
# Ratio of the moduli of successive real starts on one circle
# (`_start_points`): irrational, so that no start on one circle meets one on
# another, whose radius is a rational power of a rational.
_SPREAD = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class PolyRoot:
    """A root within radius / 2^scale of (re + im*i) / 2^scale; a root
    certified real has im = 0, and only such a root."""

    re: int
    im: int
    radius: int
    scale: int

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def modulus(self) -> Ball:
        """|root| as a Ball: the center's modulus rounded down by isqrt, so
        that the radius grows by one unit to cover the rounding."""
        return Ball(isqrt(self.re * self.re + self.im * self.im), self.radius + 1, self.scale)


def root_layouts(f: IntPoly, precision_bits: int):
    """Yields (prec, roots) at prec = p, 2p, 4p, ... for p = precision_bits:
    every complex root of f in a certified disk within 2^-prec (|x_i| + 1),
    the disks pairwise disjoint and exactly conjugate-symmetric: the real
    ones, then one of each conjugate pair, then their mirrors in that order.

    A repeated root is ruled out exactly first, once, since no precision
    separates it: the primitive remainder sequence of f and f'
    (`_remainder_sequence`) ends at gcd(f, f') over Z, and its signs give
    the numbers of real roots at most 0 and above 0 by Sturm's theorem
    (`_real_root_signs`), r in all. From there on the midpoints are the r
    real ones and one of each of the (d - r)/2 conjugate pairs, from the
    points of `_start_points`. Aberth-Ehrlich iterations in floats refine
    them (`_float_starts`), then Newton steps on fixed-point Gaussian
    integers (a + bi)/2^s as s doubles up to the working precision
    w = work_bits(prec) (`_newton`). When floats overflow or stall, the
    fixed-point steps start from the same points (`_circle_starts`) and are
    Aberth's. Soundness rests on none of that: f is evaluated exactly at
    each dyadic midpoint x_i, and |lead * prod_{j != i} (x_i - x_j)|^2,
    over all d midpoints with the mirrors, is an exact integer product, so
    the Weierstrass radius d*|f(x_i)| / |lead * prod_{j != i} (x_i - x_j)|
    is rounded upward only once (`_certified_roots`). Those disks jointly
    cover the roots, and contain exactly one root each once disjoint. A
    failed certificate doubles w, and Aberth steps at the new w separate
    what the last round could not. After a layout, Newton steps go on from
    its midpoints at w = max(w, work_bits(2 prec)), so the disks keep their
    order. A round whose w would exceed MAX_WORK_BITS, the first included,
    raises PrecisionExhausted instead.
    """
    prec, last, w = precision_bits, None, work_bits(precision_bits)
    _check_cap(f, last, w)
    f_desc = list(reversed(f.coefficients))
    signs = _real_root_signs(f_desc)
    if signs is None:
        raise errors.NotSquarefree(f"{f} has a repeated root: gcd(f, f') != 1")
    real, bits = sum(signs), 53
    approx = _float_starts(f_desc, signs)
    if approx is None:
        zs, repel = _circle_starts(f_desc, signs, bits), True
    else:
        zs = [(_to_fixed(z.real, bits), _to_fixed(z.imag, bits)) for z in approx]
        repel = False
    while True:
        zs = _newton(f_desc, zs, real, bits, w, repel)
        roots = _certified_roots(f, zs, real, w, prec)
        if roots is None:
            bits, w, repel = w, 2 * w, True
        else:
            yield prec, roots
            last, prec = prec, 2 * prec
            bits, w, repel = w, max(w, work_bits(prec)), False
        _check_cap(f, last, w)


def _real_root_signs(f_desc) -> tuple[int, int] | None:
    """(n, p): the numbers of real roots of f, given leading coefficient
    first, in (-inf, 0] and in (0, inf), by Sturm's theorem on the members
    of `_remainder_sequence(f, f')`: with V(x) their sign changes at x,
    zeros dropped, n = V(-inf) - V(0) and p = V(0) - V(inf). None when the
    sequence ends at a gcd(f, f') that is not constant: f has a repeated
    root."""
    d = len(f_desc) - 1
    df_desc = [(d - k) * c for k, c in enumerate(f_desc[:-1])]
    members = list(_remainder_sequence(f_desc, df_desc))
    if len(members[-1]) > 1:
        return None
    # A member of degree m has the sign of its leading coefficient at +inf,
    # that sign times (-1)^m at -inf, and the sign of its constant term at 0.
    at_minus = _sign_changes([(p[0] > 0) == (len(p) % 2 == 1) for p in members])
    at_zero = _sign_changes([p[-1] > 0 for p in members if p[-1]])
    at_plus = _sign_changes([p[0] > 0 for p in members])
    return at_minus - at_zero, at_zero - at_plus


def _sign_changes(positive) -> int:
    return sum(x != y for x, y in zip(positive, positive[1:]))


def _check_cap(f: IntPoly, last: int | None, w: int) -> None:
    if w > MAX_WORK_BITS:
        certified = "none certified" if last is None else f"last certified at {last} bits"
        raise errors.PrecisionExhausted(
            f"root layouts of {f}: {certified}; the next round needs {w} working bits, "
            f"above the cap of {MAX_WORK_BITS}"
        )


def work_bits(precision_bits: int) -> int:
    """Working bits of root disks certified to precision_bits: _SLACK_BITS
    and the guard bits above them."""
    return precision_bits + _SLACK_BITS + GUARD_BITS


def _float_starts(f_desc, signs):
    """The r real and (d - r)/2 upper approximations from Aberth-Ehrlich
    iterations in floats, from the points of `_start_points`, in their
    order; one that ended below the axis is given as its conjugate. None
    when a value overflows a float or the iteration stalls.

    Only those approximations move, the real ones in real arithmetic, and
    each lower one stays the mirror of its upper one; each step is
    Aberth's over all d approximations."""
    try:
        lead, *tail = [float(c) for c in f_desc]
        zs = [math.exp(lr) * u for lr, u in _start_points(f_desc, signs)]
    except OverflowError:
        return None
    r = sum(signs)
    upper = len(zs) - r
    zs += [z.conjugate() for z in zs[r:]]
    d = len(zs)
    tail = [(c, abs(c)) for c in tail]
    unit = 2.0**-53
    tol = 8 * d * unit
    moving = range(r + upper)
    for _ in range(ABERTH_STEPS):
        left = []
        for i in moving:
            z = zs[i]
            az = abs(z)
            fz, dfz, noise = lead, 0.0, abs(lead)
            for c, ac in tail:
                dfz = dfz * z + fz
                fz = fz * z + c
                noise = noise * az + ac
            afz = abs(fz)
            if not (afz < math.inf and noise < math.inf):
                return None
            # Done once |f(z)| is within the rounding error of Horner's
            # rule there, or the correction is below the roundoff.
            if afz <= tol * noise:
                continue
            try:
                repel = sum(1 / (z - zs[j]) for j in range(d) if j != i)
                step = fz / (dfz - fz * (repel.real if i < r else repel))
            except ZeroDivisionError:
                # z meets another approximation, or the correction's
                # denominator vanishes: move z off the coincidence.
                step = (az + 1) * (1024 * unit) * _NUDGE ** (i + 1)
                step = step.real if i < r else step
            zs[i] = z - step
            if i >= r:
                zs[i + upper] = zs[i].conjugate()
            if abs(step) > unit * az:
                left.append(i)
        moving = left
        if not moving:
            return [complex(z.real, abs(z.imag)) for z in zs[: r + upper]]
    return None


def _start_points(f_desc, signs):
    """Starts for the r = n + p real and the (d - r)/2 upper approximations,
    for signs = (n, p) of `_real_root_signs`, as (lr, u) for the point
    exp(lr) * u: lr is a log radius, so no value overflows, and u is a
    float for a real start and a complex number above the axis for the
    others.

    The points come from the circles of the Newton polygon
    (`_start_circles`). Conjugate roots share a modulus, so a circle with an
    odd number of points gets one real start; two more go to the circle
    with the most points left until there are r, and with too many the
    outermost give theirs up. Going inward from the outermost circle, the
    real starts take the signs in turn, + first, while both remain, and the
    j-th on a circle of radius R lies at +-R * _SPREAD^j; it takes the place
    of the circle's point nearest the axis. The circles' other points,
    turned into the upper half plane and ordered by circle and angle, start
    the upper approximations: of each two in turn, the one farther from the
    axis."""
    negative, positive = signs
    circles = [(lr, [u for _, u in group])
               for lr, group in itertools.groupby(_start_circles(f_desc[::-1]), lambda c: c[0])]
    real = [len(units) % 2 for _, units in circles]
    while sum(real) > negative + positive:
        real[len(real) - 1 - real[::-1].index(1)] = 0
    while sum(real) < negative + positive:
        real[max(range(len(real)), key=lambda e: len(circles[e][1]) - real[e])] += 2
    starts, rest = [], []
    for (lr, units), count in zip(reversed(circles), reversed(real)):
        units = sorted(units, key=lambda u: abs(u.imag) / (abs(u) or 1))
        for j in range(count):
            plus = positive > 0 and (j % 2 == 0 or not negative)
            positive, negative = positive - plus, negative - (not plus)
            starts.append((lr, (1 if plus else -1) * _SPREAD**j))
        rest += sorted(((lr, complex(u.real, abs(u.imag))) for u in units[count:]),
                       key=lambda s: math.atan2(s[1].imag, s[1].real))
    return starts + [min(rest[i : i + 2], key=lambda s: abs(math.atan2(s[1].imag, s[1].real) - math.pi / 2))
                     for i in range(0, len(rest) - 1, 2)]


def _circle_starts(f_desc, signs, p: int):
    """The points of `_start_points` as fixed-point Gaussian integers at
    scale 2^p, for when floats overflow or stall: each radius exp(lr) is
    2^e * r with r in [1, 2), so no float holds more than r."""
    out = []
    for lr, u in _start_points(f_desc, signs):
        if lr == -math.inf:
            out.append((0, 0))
            continue
        e = math.floor(lr / math.log(2))
        r = 2.0 ** (lr / math.log(2) - e)
        out.append((_to_fixed(r * u.real, p + e), _to_fixed(r * u.imag, p + e)))
    return out


def _start_circles(coefficients):
    """Starting points for Aberth's method (Bini, Numer. Algorithms 13,
    1996), as (log radius, unit complex) pairs: each edge from k to m of the
    upper convex hull of the points (k, log|c_k|) puts m - k points on the
    circle of radius |c_k / c_m|^(1/(m - k)), about where m - k roots lie.
    A zero root starts at 0."""
    hull = []
    for k, c in enumerate(coefficients):
        if c:
            p = (k, math.log(abs(c)))
            while len(hull) > 1 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(p)
    out = [(-math.inf, 0j)] * hull[0][0]
    for e, ((k, y), (m, z)) in enumerate(zip(hull, hull[1:])):
        angles = [2 * math.pi * j / (m - k) + 0.4 + e for j in range(m - k)]
        out += [((y - z) / (m - k), complex(math.cos(t), math.sin(t))) for t in angles]
    return out


def _to_fixed(x: float, p: int) -> int:
    """The nearest integer to 2^p * x, ties to even: x = m * 2^e with m a
    53-bit fraction, and scaling m by a power of two is exact in floats
    until 2^p * x is an integer."""
    m, e = math.frexp(x)
    k = p + e - 53
    return round(math.ldexp(m, 53 + min(k, 0))) << max(k, 0)


def _newton(f_desc, zs, real: int, bits: int, w: int, repel: bool):
    """Newton steps on fixed-point Gaussian integers: (a, b) stands for
    (a + bi)/2^p, given at p = bits, and zs holds the `real` real midpoints,
    then one of each conjugate pair. The scale p doubles, one sweep over the
    midpoints at each scale, and goes straight to w once a doubling covers
    w - _SLACK_BITS, the layout's precision and its guard bits: quadratic
    convergence takes a start good to `bits` bits to 2 * bits, so from the
    53 bits of a float start one sweep at w = 112 gives the 64-bit layout,
    and two, at 106 and 176, the 128-bit one. The certificate judges the
    result.

    With `repel`, each step is Aberth's (`_step`), each sweep uses the
    approximations it has already moved, and more sweeps run at w, up to
    ABERTH_STEPS, while some approximation still moves."""
    scales = []
    p = bits
    while not scales or p < w:
        p = 2 * p if 2 * p < w - _SLACK_BITS else w
        scales.append(p)
    sweeps = [1] * len(scales)
    if repel:
        scales.append(w)
        sweeps.append(ABERTH_STEPS)
    p = bits
    for q, count in zip(scales, sweeps):
        zs = [(a << (q - p), b << (q - p)) for a, b in zs]
        p = q
        moving = range(len(zs))
        for _ in range(count):
            moving = [i for i in moving if _step(f_desc, zs, i, p, real, repel)]
            if not moving:
                break
    # A real midpoint still moving after the last sweeps is held on the axis
    # by a conjugate pair it cannot reach, and a pair midpoint still moving
    # has no complex root of its own, often a real one beside its mirror:
    # they trade places, and the next round starts from there.
    if repel:
        stuck = [i for i in moving if i < real][:1] + [i for i in moving if i >= real][:1]
        if len(stuck) == 2:
            (a, _), (u, v) = zs[stuck[0]], zs[stuck[1]]
            zs[stuck[0]], zs[stuck[1]] = (u, 0), (a, abs(v) or 1)
    return zs


def _step(f_desc, zs, i: int, p: int, real: int, repel: bool) -> bool:
    """Moves zs[i] by Newton's correction N = f/f' at scale 2^p, where zs
    holds the `real` real midpoints, then one of each conjugate pair: f and
    f' are evaluated together by Horner's rule, with every product
    truncated to the scale, and in real arithmetic on the real axis.

    With `repel`, the step is Aberth's, N / (1 - sum_{j != i} N/(z_i - z_j)),
    the sum over all d approximations, the mirrors (a, -b) of the pairs
    included, which pushes z_i off the others; each ratio there is
    dimensionless, so the scale holds it whatever the size of the roots. An
    approximation that meets another, or whose correction has a zero
    denominator, moves off the coincidence by 2^10 units. A real midpoint
    takes only the real part of the sum and of its step, so it stays real.
    Returns False once z_i has settled: |f(z_i)| within four times the
    truncation error of Horner's rule, or a correction of at most one unit
    per part."""
    a, b = zs[i]
    fr, fi, dr, di = f_desc[0] << p, 0, 0, 0
    if b:
        for c in f_desc[1:]:
            dr, di = ((dr * a - di * b) >> p) + fr, ((dr * b + di * a) >> p) + fi
            fr, fi = ((fr * a - fi * b) >> p) + (c << p), (fr * b + fi * a) >> p
    else:
        for c in f_desc[1:]:
            dr = (dr * a >> p) + fr
            fr = (fr * a >> p) + (c << p)
    if repel:
        size, noise = abs(a) + abs(b), 0
        for _ in f_desc[1:]:
            noise = (noise * size >> p) + 2
        if abs(fr) + abs(fi) <= 4 * noise:
            return False
    step = _ratio(fr, fi, dr, di, p)
    if repel and step:
        others = zs[:i] + zs[i + 1 :] + [(u, -v) for u, v in zs[real:]]
        ratios = [_ratio(*step, a - u, b - v, p) for u, v in others]
        if all(ratios):
            tr = sum(r for r, _ in ratios)
            ti = 0 if i < real else sum(q for _, q in ratios)
            step = _ratio(*step, (1 << p) - tr, -ti, p)
        else:
            step = None
    if step is None:
        if not repel:
            return False
        step = (-((i + 1) << 10),) * 2
    if i < real:
        step = (step[0], 0)
    zs[i] = (a - step[0], b - step[1])
    return abs(step[0]) > 1 or abs(step[1]) > 1


def _ratio(xr: int, xi: int, yr: int, yi: int, p: int):
    """2^p (xr + xi i) / (yr + yi i), floored per part; None when y = 0."""
    den = yr * yr + yi * yi
    if not den:
        return None
    return ((xr * yr + xi * yi) << p) // den, ((xi * yr - xr * yi) << p) // den


def _certified_roots(f: IntPoly, zs, real: int, w: int, prec: int) -> list[PolyRoot] | None:
    """Weierstrass disks around all d roots, from exact integers: zs holds
    the `real` real midpoints x_i = a_i/2^w, then one x_i = (a_i + b_i i)/2^w
    of each conjugate pair, and the d midpoints are those and the pairs'
    mirrors. None when the d disks are not pairwise disjoint, or not within
    2^-prec * (|x_i| + 1).

    With X_i = 2^w x_i, F_i = 2^(wd) f(x_i) by exact Horner and
    Q_i = lead^2 * prod_{j != i} |X_i - X_j|^2 over all d midpoints, the
    radius is
    d * |f(x_i)| / |lead * prod_{j != i} (x_i - x_j)| = 2^-w * d * sqrt(|F_i|^2 / Q_i),
    held as an integer R_i in units of 2^-(w + GUARD_BITS), rounded up.
    F_i and Q_i are computed at the stored midpoints alone, and each mirror
    takes the radius of its pair's: F(conj x) = conj F(x) for integer f, and
    conjugation maps the gaps from conj x_i to the gaps from x_i, so both
    are exact.

    The roots come back in the order of the d midpoints, the first `real`
    on the axis, so `PolyRoot.is_real`, and no other: a pair midpoint on
    the axis is its own mirror, a gap of 0, and is refused. Disjoint disks
    hold one root each, and that is sound: a disk centred on the axis is
    its own mirror, so it holds the mirror of its root, which is then real;
    a pair's disk that reached the axis would meet its own mirror, so it
    holds a root off the axis.
    """
    d = f.degree
    g = GUARD_BITS
    lead = f.coefficients[-1]
    scaled = [c << (w * (d - k)) for k, c in enumerate(f.coefficients)][-2::-1]
    every = zs + [(a, -b) for a, b in zs[real:]]
    gaps = [[(a - u) ** 2 + (b - v) ** 2 for u, v in every] for a, b in zs]
    radii = []
    for i, (a, b) in enumerate(zs):
        q = lead * lead
        for j, gap in enumerate(gaps[i]):
            if j != i:
                q *= gap
        if q == 0:
            return None
        fr, fi = lead, 0
        for c in scaled:
            fr, fi = fr * a - fi * b + c, fr * b + fi * a
        t = -((-(d * d * (fr * fr + fi * fi)) << (2 * g)) // q)
        r = isqrt(t)
        r += r * r < t
        if r << prec > (isqrt(a * a + b * b) + (1 << w)) << g:
            return None
        radii.append(r)
    radii += radii[real:]
    for i, row in enumerate(gaps):
        for j in range(i + 1, d):
            if row[j] << (2 * g) <= (radii[i] + radii[j]) ** 2:
                return None
    return [PolyRoot(a << g, b << g, r, w + g) for (a, b), r in zip(every, radii)]


def share_a_root(f_desc, g_desc) -> bool:
    """Whether two integer polynomials, given with their nonzero leading
    coefficients first, have a common complex root: whether gcd(f, g) over Z
    has degree >= 1, the last member of `_remainder_sequence`."""
    for last in _remainder_sequence(f_desc, g_desc):
        pass
    return len(last) > 1


def _remainder_sequence(f_desc, g_desc):
    """Yields f, g and the members of their primitive pseudo-remainder
    sequence (Collins, J. ACM 14(1), 1967), leading coefficient first, up to
    the last nonzero one: gcd(f, g) over Z when it is not constant. It takes
    O(d^2) integer operations: each remainder is divided by the positive gcd
    of its coefficients, which keeps their size polynomial in the degree
    where plain pseudo-remainders grow exponentially. prem(a, b) is
    lead(b)^(delta + 1) times the remainder, so each member is negated
    unless that power is negative: every member is then a positive multiple
    of the member of Sturm's sequence f, g, -rem(f, g), ..., and for g = f'
    the sign changes at -inf and +inf count the real roots of f."""
    a, b = _primitive(f_desc), _primitive(g_desc)
    yield a
    yield b
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        while r and not r[0]:
            del r[0]
        if not r:
            return
        g = math.gcd(*r)
        if b[0] > 0 or (len(a) - len(b)) % 2:
            g = -g
        a, b = b, [c // g for c in r]
        yield b


def _pseudo_remainder(a, b):
    """prem(a, b): the remainder of lead(b)^(len(a) - len(b) + 1) * a divided
    by b, leading coefficient first and len(b) - 1 long; a itself when a is
    the shorter, so that a sequence goes on with (b, a). Each round cancels
    the leading term of the running remainder."""
    lead, tail = b[0], b[1:]
    r = a
    while len(r) >= len(b):
        c = r[0]
        r = [lead * x - c * y for x, y in zip(r[1:], tail)] + [lead * x for x in r[len(b):]]
    return r


def _primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p]


def fixed_power(a: int, b: int, n: int, s: int) -> tuple[int, int, int]:
    """z^n for z = (a + bi)/2^s in fixed point: (u, v, e) with
    |(u + vi)/2^s - z^n| <= e/2^s. Square-and-multiply on Gaussian integers
    at scale 2^s truncates each product, which moves each part by less than
    one unit; an operand's error carries through |x| by the bound
    |XY - xy| <= |x||Y - y| + |y||X - x| + |X - x||Y - y|, with every modulus
    and quotient rounded up."""
    if n == 0:
        return 1 << s, 0, 0
    u, v, e = a, b, 0
    for bit in bin(n)[3:]:
        u, v, e = _fixed_mul(u, v, e, u, v, e, s)
        if bit == "1":
            u, v, e = _fixed_mul(u, v, e, a, b, 0, s)
    return u, v, e


def _fixed_mul(xr, xi, xe, yr, yi, ye, s):
    bound = (isqrt(xr * xr + xi * xi) + 1) * ye + (isqrt(yr * yr + yi * yi) + 1) * xe + xe * ye
    return (xr * yr - xi * yi) >> s, (xr * yi + xi * yr) >> s, 2 - (-bound >> s)
