"""Nearest integer to alpha^n through power sums of the roots.

For n at or above the certified threshold, [alpha^n] equals the integer
power sum p_n of the roots of f. One engine computes it: x^floor(n/2) mod f
by square-and-reduce, then p_n = sum_{i,j} r_i r_j p_{i+j+(n mod 2)} with the
first 2d power sums from the Newton identities (Fiduccia, "An efficient
formula for linear recurrences", SIAM J. Comput. 14(1), 1985). The same loop
runs on exact integers, on integers mod m and on straight-line program
instructions, and on any other ring its `lift` maps the integers into: the
CLI runs it on `decimal.Decimal`, whose products of large numbers are
faster than int's. The exact rings are the integers and `decimal.Decimal`
with no modulus; `power_sum` decides that once, and it, `nearest_power`
and `slp.slp_eval` run in `_exact_decimal`'s context, so a Decimal is exact
whatever context the caller has.

Each bit of n costs the square of r, d^2 + d - 2 ring operations of which
d(d+1)/2 are products of two coefficients, and its reduction by f: for each
of the d - 1 or d terms folded back, one product by each distinct |c_i| > 1
and one addition or subtraction per nonzero c_i. With z nonzero c_i of u
distinct magnitudes above 1 that is d^2 + d - 2 + d(z + u) operations per
bit: at most 3d^2 + d, and about 2d^2 when one c_i is large and the others
lie in [-2, 2]. On integers mod an m of a few words each of these
operations costs about what the interpreter spends to dispatch it, not the
arithmetic, so there `power_sum` squares by Kronecker substitution instead
(`_packed_square`): r packed into one integer, one C-level square, and about
5d operations per bit on words or packed integers to pack r, fold the high
slots back and unpack the d residues. Program instructions keep the
schoolbook step, since each operation is an instruction of the program's
text and a program has no division; so do moduli of more than
PACKED_MAX_MODULUS_BITS bits, where the packed square costs more than the
products it replaces.

On exact rings a product of two large coefficients costs far more than a
product by a small integer, and a square less than a product. So from
degree 3 on, from the first bit whose r has a coefficient of
EVALUATION_BITS_PER_DEGREE*d + EVALUATION_BITS_OVER_DEGREE/d bits, an exact
ring squares by evaluation instead: r at the 2d - 1 points 0,
+-1, ..., +-(d - 1), 2d - 1 squarings, and one integer map per bit b of
floor(n/2) from the squares straight to x^b r^2 mod f. The map costs
d(2d - 1) products by small integers and d exact divisions by an int, and
the values (d - 1)(d - 2) more products by small integers.

The closing reads p_n = r^T H r (H_ij = p_{i+j+(n mod 2)}) off r as
sum_i r_i u_i, u_i = sum_j H_ij r_j: d^2 products by small integers and d
products at the full size of r, which are most of its cost. On an exact
ring, at any degree, once r has a coefficient of at least
SQUARES_MIN_DIGITS digits, p_n = sum_k c_k l_k(r)^2 / den instead: d squares
of integer forms l_k of r from one fraction-free elimination of H per call
(`_square_forms`), about d(d+1)/2 products by small integers for the forms,
d more for the weights and one exact division by den. Programs and residues
have no exact division, and smaller exact cases gain nothing, so they keep
the d products. Both gates measure r itself, as `_digits` does.

On `decimal.Decimal`, every full-size product of the evaluation step and of
the closing goes through `_mul`. libmpdec 2.5.1 multiplies by schoolbook
while the shorter operand has at most 256 words of 19 digits
(SCHOOLBOOK_MAX_DIGITS = 4,864), by Karatsuba up to a 1,024-word product and
by its number-theoretic transform above. So from PAD_MIN_DIGITS (2,500) to
4,864 digits, `_mul` pads both operands with zeros past 256 words, where a
product costs about a third of the schoolbook one at 4,864 digits; and only
above 512 words (9,728 digits) does a square cost less than a product, about
two thirds of one, which sets SQUARES_MIN_DIGITS. The schoolbook step keeps
plain products.

Below the threshold, alpha^n = p_n - S_n, where
S_n = sum_{i >= 2} beta_i^n runs over the other roots, so [alpha^n] is p_n
minus the nearest integer to S_n, which the certified root disks enclose:
the layout's, then those of `algebraic.pisot_layouts`. `power_sum` alone
checks n and m, and every entry point calls it before any other work.
"""

from __future__ import annotations

import decimal
import fractions
import itertools
import math

from . import errors
from .algebraic import IntPoly, MinPolyInfo, pisot_layouts, round_div
from .roots import fixed_power


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


def _reduced(q: list[int], c: tuple[int, ...]) -> list[int]:
    """q mod f, for integer coefficients q (lowest first) and the low
    coefficients c of the monic f."""
    d = len(c)
    q = list(q)
    for e in range(len(q) - 1, d - 1, -1):
        t = q.pop()
        for i, v in enumerate(c):
            q[e - d + i] -= t * v
    return q


# libmpdec 2.5.1 multiplies by schoolbook while the shorter operand has at
# most 256 words of 19 digits, by Karatsuba while the product has at most
# 1,024 words, and by its number-theoretic transform above. Measured on a
# 2-CPU host (Python 3.11.7): a square of 4,864 digits took 599-682 us and one
# of 4,865 digits 160-181 us. Padded to 4,865 digits, a square cost what the
# schoolbook one did at 2,400-2,500 digits (154-174 us), and less above.
SCHOOLBOOK_MAX_DIGITS = 256 * 19
PAD_MIN_DIGITS = 2500


def _mul(a, b):
    """a * b, where a pair of `decimal.Decimal`s whose shorter operand has
    PAD_MIN_DIGITS to SCHOOLBOOK_MAX_DIGITS digits skips libmpdec's
    schoolbook: both are quantized to the negative exponent that gives the
    shorter SCHOOLBOOK_MAX_DIGITS + 1 digits, and the exactly integral
    product comes back at exponent 0. Padding with zeros and dropping them
    round nothing, so no flag is raised. a is b stays a square, which libmpdec's
    transform computes with one forward transform fewer."""
    if isinstance(a, decimal.Decimal) and isinstance(b, decimal.Decimal):
        digits = min(a.adjusted(), b.adjusted()) + 1
        if PAD_MIN_DIGITS <= digits <= SCHOOLBOOK_MAX_DIGITS:
            unit = decimal.Decimal((0, (1,), digits - SCHOOLBOOK_MAX_DIGITS - 1))
            padded = a.quantize(unit)
            return (padded * (padded if a is b else b.quantize(unit))).to_integral_value()
    return a * b


def _digits(r) -> int:
    """The decimal digits of r's largest coefficient: exact for integral
    Decimals at exponent 0, and about them for ints."""
    if isinstance(r[0], decimal.Decimal):
        return max(map(decimal.Decimal.adjusted, r)) + 1
    return int(max(map(int.bit_length, r)) * math.log10(2)) + 1


# An exact ring, which divides exactly, closes by squares once r has a
# coefficient of SQUARES_MIN_DIGITS digits: from 512 words on, libmpdec's
# transform squares in about two thirds of a product's time (12,000 digits:
# 491 against 723 us), and below it a square costs what a product does.
# Fitted with `nearest_power` on Decimal (2-CPU host, Python 3.11.7; medians
# of 9 alternating runs, squares against products): at r of 1.0-2.0 times
# this size the squares took 0.85-0.91 of the time for d = 3 to 8, 0.90-0.96
# for the 12-nacci and 0.96-0.98 for the 30-nacci, whose elimination takes
# under 1 ms; at 0.3-0.9 times it they took 1.00-1.11. Quadratics, measured
# the same way over 41 runs (x^2 - 5x + 1, x^2 - 11x - 1 and x^2 - 5x - 1 at
# r of 1.0-2.4 times this size), took 0.85-0.88.
SQUARES_MIN_DIGITS = 512 * 19


def _square_forms(h: list[list[int]]) -> tuple[list[tuple[int, list[int]]], int]:
    """Integer forms l_k with weights c_k and a den > 0 such that
    den * x^T h x = sum_k c_k l_k(x)^2 for every x, for a symmetric integer h.

    A fraction-free symmetric elimination: with a nonzero diagonal pivot a
    (the least in magnitude) and row l of h,
    a * x^T h x = l(x)^2 + x^T (a h - l l^T) x, whose matrix is 0 in the
    pivot's row and column. When every remaining diagonal entry is 0 and
    h_ij = e is not, rows u, v of i and j give
    e * x^T h x = 2 u(x) v(x) + x^T (e h - u v^T - v u^T) x, and
    2 u v = ((u + v)^2 - (u - v)^2) / 2. Each remainder is divided by the
    gcd of its entries. The elimination stops when the remainder is 0, which
    takes rank(h) forms: d for the Hankel of power sums of a squarefree f
    with f(0) != 0, fewer otherwise.
    """
    d = len(h)
    b = [list(row) for row in h]
    live = list(range(d))
    scale = fractions.Fraction(1)  # x^T h x = sum_k w_k l_k(x)^2 + scale * x^T b x
    weighted = []
    while True:
        pivots = [i for i in live if b[i][i]]
        if pivots:
            i = min(pivots, key=lambda i: abs(b[i][i]))
            a, u = b[i][i], b[i]
            scale /= a
            weighted.append((scale, u))
            b = [[a * b[s][t] - u[s] * u[t] for t in range(d)] for s in range(d)]
            live.remove(i)
        else:
            pair = next(((i, j) for i in live for j in live if b[i][j]), None)
            if pair is None:
                break
            i, j = pair
            e, u, v = b[i][j], b[i], b[j]
            scale /= e
            weighted.append((scale / 2, [x + y for x, y in zip(u, v)]))
            weighted.append((-scale / 2, [x - y for x, y in zip(u, v)]))
            b = [[e * b[s][t] - u[s] * v[t] - v[s] * u[t] for t in range(d)] for s in range(d)]
            live.remove(i)
            live.remove(j)
        g = math.gcd(*(x for row in b for x in row))
        if g == 0:
            break
        b = [[x // g for x in row] for row in b]
        scale *= g
    forms = []
    for w, row in weighted:
        g = math.gcd(*row)
        forms.append((w * g * g, [x // g for x in row]))
    den = math.lcm(*(w.denominator for w, _ in forms))
    return [(int(w * den), row) for w, row in forms], den


def _evaluation_square(c: tuple[int, ...], lift):
    """The step r, b -> x^b r^2 mod f of an exact ring, squaring by
    evaluation (Toom-Cook; Bodrato and Zanoni, ISSAC 2007).

    r is evaluated at the 2d - 1 points 0, +-1, ..., +-(d - 1), and each
    value is squared. Lagrange interpolation of the squares, followed by the
    reduction by f, is one linear map per b, built here in integers in
    O(d (2d - 1)^2) operations: with W = prod_k (x - x_k),
    P_k = W / (x - x_k) and delta_k = P_k(x_k), column k is
    (x^b P_k mod f) / delta_k. Each row is scaled to integers over its least
    denominator, so coefficient i of x^b r^2 mod f is an integer combination
    of the squares, divided exactly by an int. The ring needs an exact // by
    a positive int besides +, - and *: //, not /, since on ints / gives a
    float, and `decimal.Decimal` / at MAX_PREC works out MAX_PREC digits of
    any quotient that is not exact and raises an untyped MemoryError.
    """
    d = len(c)
    points = [0] + [s * j for j in range(1, d) for s in (1, -1)]
    # W, lowest coefficient first.
    w = [1]
    for x0 in points:
        w = [0] + w
        for i in range(len(w) - 1):
            w[i] -= x0 * w[i + 1]
    columns = ([], [])
    deltas = []
    for xk in points:
        # P_k by synthetic division of W by x - x_k.
        p = [0] * (len(w) - 1)
        carry = 0
        for i in range(len(w) - 1, 0, -1):
            carry = p[i - 1] = w[i] + xk * carry
        deltas.append(sum(v * xk**i for i, v in enumerate(p)))
        q = _reduced(p, c)
        columns[0].append(q)
        columns[1].append(_reduced([0] + q, c))
    common = math.lcm(*deltas)
    maps = []
    for cols in columns:
        rows = []
        for i in range(d):
            entries = [q[i] * (common // delta) for q, delta in zip(cols, deltas)]
            g = math.gcd(common, *entries)
            row = [(k, lift(e // g)) for k, e in enumerate(entries) if e]
            rows.append((row, lift(common // g)))
        maps.append(rows)
    # r(+-j) = even(j) +- odd(j), the even and odd parts of r at j; no
    # product is needed at j = 1.
    powers = [None] * (d > 1) + [[lift(j**i) for i in range(d)] for j in range(2, d)]

    def step(r, b):
        values = [r[0]]
        for pw in powers:
            even, odd = r[0], 0
            for i in range(1, d):
                t = r[i] if pw is None else r[i] * pw[i]
                if i & 1:
                    odd = odd + t
                else:
                    even = even + t
            values += (even + odd, even - odd)
        squares = [_mul(v, v) for v in values]
        out = []
        for row, den in maps[b]:
            acc = None
            for k, e in row:
                t = squares[k] * e
                acc = t if acc is None else acc + t
            out.append(acc // den)
        return out

    return step


# Integers mod m square by packing up to this size of m, and by the
# schoolbook above it. A packed square is one product of a d(2 log2 m)-bit
# integer, so its cost grows faster in m than the d^2 products of words it
# replaces. Fitted with `power_sum` at n = 8,386,254,639,759,710,208 (2-CPU
# host, Python 3.11.7): at d = 2, 3, 4, 7, 12 and 30, packing was 1.42-1.85x
# faster at 128 bits and 1.06-1.38x at 192; at 224 bits it lost at d = 7, 12
# and 30 (0.84-1.00x), and at 256 bits on the 30-nacci (0.68x). At d = 1 it
# was 1.2-1.3x faster from 30 to 160 bits. Every m the CLI takes is at most
# 10^19, below 2^64.
PACKED_MAX_MODULUS_BITS = 192


def _packed_square(c: tuple[int, ...], m: int):
    """The step r, b -> x^b r^2 mod (f, m) on residues in [0, m), squaring
    by Kronecker substitution (Harvey, "Faster polynomial multiplication via
    multipoint Kronecker substitution", J. Symbolic Comput. 44(10), 2009).

    The d residues of r are packed into one integer, `slot` bits apart, and
    that integer is squared once, so one C-level product forms every
    coefficient of r^2; times x is a shift by one slot. Each slot of the
    square holds at most d products of residues, and folding the high slots
    back, each reduced mod m and times a packed row x^(d+j) mod (f, m), adds
    at most d more: every slot stays below 2d m^2 < 2^slot, so none
    carries into the next. The low d slots, reduced mod m, are the result.
    """
    d = len(c)
    slot = 2 * m.bit_length() + (2 * d).bit_length()
    mask = (1 << slot) - 1
    # x^(d+j) mod (f, m) for j < d, each packed like r.
    rows, row = [], [-v % m for v in c]
    for _ in range(d):
        rows.append(sum(v << slot * i for i, v in enumerate(row)))
        top = row.pop()
        row = [(u - top * v) % m for u, v in zip([0] + row, c)]
    low = slot * d
    low_mask = (1 << low) - 1
    shifts = range(0, low, slot)

    def step(r, b):
        x = 0
        for v in reversed(r):
            x = x << slot | v
        q = x * x
        if b:
            q <<= slot
        s = q & low_mask
        q >>= low
        for row in rows[: d - 1 + b]:
            s += (q & mask) % m * row
            q >>= slot
        return [(s >> i & mask) % m for i in shifts]

    return step


# The `decimal` context for exact integer results: at MAX_PREC no sum or
# product of integers rounds, and if any operation would round, Inexact
# raises instead of giving a wrong digit.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, flags=[],
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)


def _exact_decimal():
    """A local context made from a copy of `_EXACT` on entry, so no flag or
    trap set inside one entry reaches the next. libmpdec multiplies large
    numbers by a number-theoretic transform, faster than int's Karatsuba,
    but only above its schoolbook and Karatsuba sizes (`_mul`). str() of an
    integral Decimal needs no base conversion. `power_sum`, `nearest_power`
    and `slp.slp_eval` enter it, so a `decimal.Decimal` lift is exact
    whatever the caller's context, which is restored on exit."""
    return decimal.localcontext(_EXACT)


# Where an exact square by evaluation starts: at the first bit whose r has a
# coefficient of EVALUATION_BITS_PER_DEGREE*d + EVALUATION_BITS_OVER_DEGREE/d
# bits or more, about where one such square saves what its plan cost. The
# plan takes about d^3 operations on growing integers, and a square saves
# about d^2/2 products, so the size grows with d; at small d the squares
# save only a few of the d(d+1)/2 products, which the 1/d term reflects.
# Fitted on decimal.Decimal, the CLI's ring (2-CPU host, Python 3.11.7):
# one square's saving first exceeded the plan's cost, on a grid of sizes
# 1.41x apart, at 7,802 bits for d = 3, 5,534 for 4, 3,925 for 5 to 12,
# 5,534 for 16 to 30, 7,802 for 45 and 11,000 for 60 (plans of 0.04-0.06,
# 0.08-0.12, 0.15-1.5, 3.3-12.9, 54 and 172 ms).
EVALUATION_MIN_DEGREE = 3  # at d = 2, 3 squares replace 2 squares and a product
EVALUATION_BITS_PER_DEGREE = 180
EVALUATION_BITS_OVER_DEGREE = 22000


def power_sum(f: IntPoly, n: int, modulus: int | None = None, lift=None):
    """p_n, the sum of the n-th powers of the roots of the monic f with f(0) != 0.

    Computes r = x^floor(n/2) mod f by square-and-reduce and reads p_n off it
    without forming the last square: p_n = sum_{i,j} r_i r_j p_{i+j+(n mod 2)}.
    The coefficients are whatever `lift` turns an integer into (integers by
    default); they need only +, - and * with each other and with ints. With
    a modulus, every step is reduced mod m and the result lies in [0, m).
    On the integers mod m (no `lift`), r is squared by `_packed_square`
    while m has at most PACKED_MAX_MODULUS_BITS bits.

    The exact rings are the integers and `decimal.Decimal` with no modulus;
    the work runs in `_exact_decimal`'s context, so a Decimal is exact
    whatever the caller's context. They alone divide exactly, and both gates
    below measure r as `_digits` does. From degree EVALUATION_MIN_DEGREE on,
    r is squared by `_evaluation_square` from the first bit whose r has a
    coefficient of EVALUATION_BITS_PER_DEGREE*d + EVALUATION_BITS_OVER_DEGREE/d
    bits or more. Once r has a coefficient of SQUARES_MIN_DIGITS digits, at
    any degree, p_n is read off by d squares of integer forms of r
    (`_square_forms`) instead of d products.
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
    exact = modulus is None and lift in (None, int, decimal.Decimal)
    # Integers mod a small enough m square by packing. Programs, which must
    # keep their text, and every other ring keep the schoolbook square.
    packed = lift is None and modulus is not None and (
        modulus.bit_length() <= PACKED_MAX_MODULUS_BITS
    )
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
    square = _packed_square(c, modulus) if packed else None
    # An exact ring squares by evaluation from the first r = x^j with a
    # coefficient of evaluate_at digits. Those of x^j mod f are at most
    # (1 + max|c_i|)^j, so no r before j = measure_from reaches it.
    evaluate_at = math.log10(2) * (EVALUATION_BITS_PER_DEGREE * d + EVALUATION_BITS_OVER_DEGREE / d)
    measure_from = math.inf
    if exact and d >= EVALUATION_MIN_DEGREE:
        measure_from = (evaluate_at - 2) / math.log10(1 + max(map(abs, c)))
    with _exact_decimal():
        for bit in range(shift - 1, -1, -1):
            if k >> (bit + 1) >= measure_from and _digits(r) >= evaluate_at:
                square, measure_from = _evaluation_square(c, lift), math.inf
            if square is not None:
                r = square(r, k >> bit & 1)
                continue
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
        # An exact ring divides exactly, so once r is large it closes by
        # sum_k c_k l_k(r)^2 / den, d squares of integer forms of r.
        if exact and _digits(r) >= SQUARES_MIN_DIGITS:
            forms, den = _square_forms([[p[i + j + odd] for j in range(d)] for i in range(d)])
            total = None
            for c_k, row in forms:
                form = None
                for v, t in zip(row, r):
                    if v:
                        form = _axpy(form, v, t)
                total = _axpy(total, c_k, _mul(form, form))
            return total if den == 1 else total // den
        # sum_i r_i u_i with u_i = sum_j p_{i+j+odd} r_j: only d full products.
        total = None
        for i in range(d):
            u = None
            for j in range(d):
                if p[i + j + odd]:
                    u = _axpy(u, p[i + j + odd], r[j])
            if u is not None:
                total = _axpy(total, 1, _mul(r[i], u))
        return total if modulus is None else total % modulus


def _rounded_conjugate_sum(info: MinPolyInfo, n: int) -> int:
    """The nearest integer to S_n = sum_{i >= 2} beta_i^n, so that
    [alpha^n] = p_n minus it; 0 from the threshold n0 on.

    Each beta_i lies in a certified disk of center c and radius R inside the
    unit disk, so |beta_i^n - c^n| <= n*R, and c^n comes from `fixed_power`
    with its truncation bound. The disks of info come first; while S_n lies
    within the summed bound of a half-integer, the layouts of
    `pisot_layouts` from twice info.precision_bits follow.
    """
    if n >= info.threshold_n0:
        return 0
    first = [(info.precision_bits, info.roots, info.dominant_index)]
    later = pisot_layouts(info.poly, 2 * info.precision_bits)
    for _, roots, dom in itertools.chain(first, later):
        others = [r for i, r in enumerate(roots) if i != dom]
        s = others[0].scale  # one scale for all disks of a layout
        total = err = 0
        for r in others:
            u, _, e = fixed_power(r.re, r.im, n, s)
            total += u
            err += e + n * r.radius
        k = round_div(total, 1 << s)
        if 2 * (abs(total - (k << s)) + err) < 1 << s:
            return k


def nearest_power(info: MinPolyInfo, n: int, lift=int):
    """[alpha^n] exactly, where alpha is the Pisot root of info.poly: p_n
    from `power_sum` on whatever `lift` turns an integer into (an int by
    default), minus the integer round(S_n). Like `power_sum`, a nonzero
    round(S_n) is subtracted in `_exact_decimal`'s context, so on
    `decimal.Decimal` the result is exact whatever the caller's context."""
    p_n, k = power_sum(info.poly, n, lift=lift), _rounded_conjugate_sum(info, n)
    if k == 0:  # always from n0 on: no Decimal operation is left
        return p_n
    with _exact_decimal():
        return p_n - k


def nearest_power_mod(info: MinPolyInfo, n: int, m: int) -> int:
    """[alpha^n] mod m, where alpha is the Pisot root of info.poly, in time
    polynomial in log(mn). For m of at most PACKED_MAX_MODULUS_BITS bits
    (every m the CLI takes) each bit of n costs one square of a
    d(2 log2 m + log2 2d)-bit integer and about 5d operations on words or
    packed integers; above that, the schoolbook step's
    d^2 + d - 2 + d(z + u) operations on residues."""
    return (power_sum(info.poly, n, m) - _rounded_conjugate_sum(info, n)) % m
