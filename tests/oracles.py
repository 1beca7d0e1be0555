"""Test oracles: a brute-force shortest vector, an all-integer LLL,
companion-matrix powers, polynomial roots and resultants.

They compute what the package computes by slower, independent means, so the
tests compare against them; the package itself does not use them.
`companion_matrix` and `matpow` give p_n as the trace of C(f)^n, the oracle
for the power-sum engine. `polyroots_oracle` gives roots by mpmath's
Durand-Kerner solver, the oracle for root isolation, for the threshold n0
(`scanned_threshold`) and for powers below it (`nearest_power_oracle`);
`real_roots_oracle` counts its real roots, the oracle for Sturm's count.
`mid` and `rad` are exact mpmath views of a `Ball` or a `PolyRoot`, and
`decimal_reference` is the correctly rounded decimal value of a center, the
oracle for `Ball.digits`; `int_str_limit` runs a test under Python's int<->str
digit limit.
`sylvester_resultant` is the oracle for the common-root test `share_a_root`.
`lll_columns` is de Weger's all-integer LLL, and `check_reduced` an exact
rational test of LLL-reducedness: the oracles for `lattice.lll_reduce`.
`float_pass_oracle` is the LLL float pass before it kept current Gram-Schmidt
entries, the oracle for `lattice._float_pass` on floats. `parse_slp_oracle`
is the SLP text parser before it matched whole lines against one pattern,
the oracle for `slp.parse_slp`'s programs and error messages; `program`
builds an SLP's columns from instruction tuples, and `slp_eval_oracle`
evaluates those tuples mod m in a list of ints, the oracle for `slp_eval`'s
residues. `parse_poly_oracle` is the
polynomial parser before it matched each term against one pattern, the
oracle for `cli.parse_poly`'s polynomials, messages and offsets.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from pisot import errors
from pisot.algebraic import IntPoly
from pisot.lattice import _FLOAT_BITS, IntLattice, LLLResult, _dot
from pisot.limits import MAX_COEFFICIENT_DIGITS, MAX_SEARCH_DEGREE
from pisot.roots import PolyRoot
from pisot.slp import ONE, SLP


class DimensionTooLarge(errors.PisotError):
    pass


def svp_bruteforce(lat: IntLattice, coeff_bound: int):
    """Shortest nonzero vector with coefficients bounded by coeff_bound.

    Exhaustive; intended as a test oracle on small, already-reduced bases.
    Returns (vector, coefficients, norm_sq).
    """
    if lat.k > 6:
        raise DimensionTooLarge("brute-force oracle is limited to k <= 6")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    basis = lat.basis
    n = lat.k
    best_norm = None
    best_vec = None
    best_coeffs = None
    partial = [0] * n
    coeffs = [0] * n

    # Only coefficient vectors whose first nonzero entry is positive are
    # visited (sign symmetry); the first minimum in depth-first
    # lexicographic order wins.
    def recurse(i, nonzero_seen):
        nonlocal best_norm, best_vec, best_coeffs
        if i == n:
            if not nonzero_seen:
                return
            norm = 0
            for x in partial:
                norm += x * x
            if best_norm is None or norm < best_norm:
                best_norm = norm
                best_vec = tuple(partial)
                best_coeffs = tuple(coeffs)
            return
        lo = 0 if not nonzero_seen else -coeff_bound
        col = basis[i]
        for c in range(lo, coeff_bound + 1):
            coeffs[i] = c
            if c != 0:
                for j in range(n):
                    partial[j] += c * col[j]
            recurse(i + 1, nonzero_seen or c != 0)
            if c != 0:
                for j in range(n):
                    partial[j] -= c * col[j]
        coeffs[i] = 0

    recurse(0, False)
    return best_vec, best_coeffs, best_norm


def sylvester_resultant(f_desc, g_desc) -> int:
    """Res(f, g) for coefficient lists with the leading coefficient first:
    the Bareiss determinant of the Sylvester matrix. It is zero exactly when
    f and g have a common root."""
    m, n = len(f_desc) - 1, len(g_desc) - 1
    rows = [[0] * i + list(f_desc) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g_desc) + [0] * (m - 1 - i) for i in range(m)]
    return IntLattice(tuple(map(tuple, rows))).det()


@dataclass(frozen=True)
class CompanionMatrix:
    d: int
    rows: tuple[tuple[int, ...], ...]

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.d))


def companion_matrix(f: IntPoly) -> CompanionMatrix:
    """Companion matrix: subdiagonal ones, last column -c_0 ... -c_{d-1}."""
    if not f.is_monic:
        raise errors.NotMonic("companion matrix requires a monic polynomial")
    d = f.degree
    if d < 2:
        raise ValueError("degree must be >= 2")
    rows = []
    for i in range(d):
        row = [0] * d
        if i > 0:
            row[i - 1] = 1
        row[d - 1] = -f.coefficients[i]
        rows.append(tuple(row))
    return CompanionMatrix(d=d, rows=tuple(rows))


def _mat_mul(a, b, d, m=None):
    out = []
    for i in range(d):
        row = []
        ai = a[i]
        for j in range(d):
            s = 0
            for l in range(d):
                s += ai[l] * b[l][j]
            row.append(s % m if m is not None else s)
        out.append(tuple(row))
    return tuple(out)


def matpow(c: CompanionMatrix, n: int, modulus: int | None = None):
    """C^n by repeated squaring, optionally with entries reduced mod m."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if modulus is not None and modulus < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {modulus}")
    d = c.d
    ident = tuple(
        tuple((1 if i == j else 0) % modulus if modulus is not None else (1 if i == j else 0)
              for j in range(d))
        for i in range(d)
    )
    if n == 0:
        return ident
    base = tuple(
        tuple(x % modulus if modulus is not None else x for x in row) for row in c.rows
    )
    result = base
    for bit in bin(n)[3:]:
        result = _mat_mul(result, result, d, modulus)
        if bit == "1":
            result = _mat_mul(result, base, d, modulus)
    return result


@functools.lru_cache(maxsize=None)
def polyroots_oracle(f: IntPoly, bits: int) -> tuple:
    """All complex roots of f from `mpmath.polyroots` at `bits` bits; cached,
    since several tests ask for the same polynomial at 2000 bits."""
    with mp.workprec(bits):
        return tuple(mpmath.polyroots(list(reversed(f.coefficients)), maxsteps=400, extraprec=64))


def real_roots_oracle(f: IntPoly, bits: int) -> int:
    """How many roots of `polyroots_oracle(f, bits)` lie within
    2^(-bits/2) (|z| + 1) of the real axis."""
    with mp.workprec(bits):
        cut = mpmath.mpf(2) ** (-(bits // 2))
        return sum(abs(mpmath.im(z)) < cut * (abs(z) + 1) for z in polyroots_oracle(f, bits))


def _exact(m: int, s: int):
    """The mpf m / 2^s, exact whatever the context precision."""
    return mp.make_mpf(from_man_exp(m, -s))


def mid(x):
    """The center of a Ball (an mpf) or a PolyRoot (an mpc), exactly."""
    if isinstance(x, PolyRoot):
        s = -x.scale
        return mp.make_mpc((from_man_exp(x.re, s), from_man_exp(x.im, s)))
    return _exact(x.center, x.scale)


def rad(x):
    """The radius of a Ball or a PolyRoot as an mpf, exactly."""
    return _exact(x.radius, x.scale)


def decimal_reference(c: int, s: int, n: int) -> decimal.Decimal:
    """c / 2^s correctly rounded to n significant digits, half away from
    zero: the exact integer c * 5^s (or c * 2^-s) rounded in a decimal context
    of precision n, then scaled by 10^-s, which rounds nothing more."""
    ctx = decimal.Context(
        prec=n, rounding=decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
    )
    if s < 0:
        return ctx.create_decimal(c << -s)
    return ctx.create_decimal(c * 5**s).scaleb(-s, ctx)


@contextlib.contextmanager
def int_str_limit(limit: int):
    """Run the body with Python's int<->str digit limit at `limit`, and
    restore the old limit after; a no-op on a Python without the limit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert {x!r} to a fraction")
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def scanned_threshold(f: IntPoly, bits: int = 2000, cap: int = 99999):
    """Brute-force n0 of the Pisot polynomial f: the least n >= 1 with
    (d-1)|alpha_2|^n < 1/2, where |alpha_2| is the second largest root
    modulus from the oracle at `bits` bits. The scan compares in exact
    rationals, from dyadic bounds lo/2^t <= |alpha_2| <= hi/2^t with
    t = 256, far wider than the oracle's error. None when n passes the cap,
    or when the bounds cannot decide a comparison."""
    with mp.workprec(bits):
        second = mpf_to_fraction(sorted(abs(z) for z in polyroots_oracle(f, bits))[-2])
    # (d-1)(hi/2^t)^n < 1/2 exactly when 2(d-1)hi^n < 2^(tn); so for lo.
    t = 256
    hi = math.ceil(second * 2**t) + 1
    lo = math.floor(second * 2**t) - 1
    up = down = 2 * (f.degree - 1)
    for n in range(1, cap + 1):
        up, down = up * hi, down * lo
        if up.bit_length() <= t * n:
            return n
        if down.bit_length() <= t * n:
            return None
    return None


def nearest_power_oracle(f: IntPoly, ns) -> dict:
    """[alpha^n] for each n in ns, from the Pisot root alpha given by the
    oracle at max(n) * log2(alpha) + 64 bits or more: alpha^n is then within
    about n * 2^-64 of its true value. Below 2000 bits the 2000-bit roots
    serve, which other tests have often cached already."""
    alpha = max(polyroots_oracle(f, 64), key=lambda z: z.real).real
    bits = max(2000, int(max(ns) * math.log2(alpha)) + 64)
    with mp.workprec(bits):
        alpha = max(polyroots_oracle(f, bits), key=lambda z: z.real).real
        return {n: int(mpmath.nint(alpha**n)) for n in ns}


def lll_columns(basis, delta_num, delta_den, transform):
    """The reference for `lattice.lll_reduce`: de Weger's all-integer LLL
    (Cohen Alg. 2.6.7) on column vectors, with the same decision rules.

    `basis` is a sequence of n column vectors of n ints each, and
    `transform` the columns of a unimodular U0. Returns (reduced_columns,
    transform_columns) with reduced = basis * U' and transform = U0 * U',
    det(U') = +-1. Raises RankDeficient on rank-deficient input.
    """
    n = len(basis)
    b = [list(col) for col in basis]
    u = [list(col) for col in transform]  # columns of U

    # D[i] = Gram determinant of the first i vectors (D[0] = 1);
    # lam[i][j] = D[j+1] * mu_{i,j} with all entries integral.
    big_d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            t = _dot(b[i], b[j])
            for k in range(j):
                t = (big_d[k + 1] * t - lam[i][k] * lam[j][k]) // big_d[k]
            if j < i:
                lam[i][j] = t
            else:
                if t <= 0:
                    raise errors.RankDeficient("basis is rank deficient")
                big_d[i + 1] = t

    def size_reduce(k, l):
        dl = big_d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            if lam[k][l] >= 0:
                r = (2 * lam[k][l] + dl) // (2 * dl)
            else:
                r = -((-2 * lam[k][l] + dl) // (2 * dl))
            bk, bl = b[k], b[l]
            for i in range(n):
                bk[i] -= r * bl[i]
            uk, ul = u[k], u[l]
            for i in range(n):
                uk[i] -= r * ul[i]
            lam[k][l] -= r * dl
            for j in range(l):
                lam[k][j] -= r * lam[l][j]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        # Lovasz condition in integral form; swap only on strict failure.
        lkk = lam[k][k - 1]
        if delta_den * (big_d[k + 1] * big_d[k - 1] + lkk * lkk) < delta_num * big_d[k] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lam_val = lam[k][k - 1]
            new_dk = (big_d[k - 1] * big_d[k + 1] + lam_val * lam_val) // big_d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (big_d[k + 1] * lam[i][k - 1] - lam_val * t) // big_d[k]
                lam[i][k - 1] = (new_dk * t + lam_val * lam[i][k]) // big_d[k + 1]
            big_d[k] = new_dk
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b, u


@dataclass(frozen=True)
class ReducednessReport:
    basis_product_ok: bool
    unimodular_ok: bool
    size_reduced_ok: bool
    lovasz_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.basis_product_ok
            and self.unimodular_ok
            and self.size_reduced_ok
            and self.lovasz_ok
        )


def _gram_schmidt(cols):
    """Exact rational Gram-Schmidt; returns (orthogonal vectors, mu matrix)."""
    n = len(cols)
    star = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in cols[i]]
        for j in range(i):
            denom = sum(x * x for x in star[j])
            mu[i][j] = sum(Fraction(a) * b for a, b in zip(cols[i], star[j])) / denom
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
    return star, mu


def check_reduced(result: LLLResult, original: IntLattice) -> ReducednessReport:
    """Verify B*U = B', det(U) = +-1, size-reduction, and the Lovasz
    condition at delta = 3/4, the package's one delta, all in exact rational
    arithmetic."""
    n = original.k
    b = original.basis
    u = result.transform
    bp = result.reduced.basis
    product_ok = all(
        bp[j][i] == sum(b[l][i] * u[j][l] for l in range(n))
        for i in range(n)
        for j in range(n)
    )
    unimodular_ok = abs(IntLattice(u).det()) == 1

    star, mu = _gram_schmidt(bp)
    size_ok = all(
        abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i)
    )
    lovasz_ok = True
    for i in range(1, n):
        lhs = sum(x * x for x in star[i])
        prev = sum(x * x for x in star[i - 1])
        if lhs < (Fraction(3, 4) - mu[i][i - 1] ** 2) * prev:
            lovasz_ok = False
            break
    return ReducednessReport(product_ok, unimodular_ok, size_ok, lovasz_ok)


def float_pass_oracle(b, u, delta):
    """The reference for `lattice._float_pass`: the same pass, recomputing
    every Gram-Schmidt row in full and updating `b` with every column
    operation. The pass must return the same `b` and `u` on every input.

    LLL with exact integer updates and a floating-point Gram-Schmidt, in
    the manner of Nguyen and Stehle's L^2 (SIAM J. Comput. 39(3), 2009).

    Reduces the columns `b` in place and applies every column operation to
    the columns `u` and to their exact Gram matrix as well, so b = original
    * u keeps holding. r and mu are floats computed from the exact inner
    products, all shifted right by one common power of two so they fit a
    float; mu and the Lovasz test do not depend on that scale. The decisions
    are exact LLL's: reduce when |mu| > 1/2, rounding half away from zero,
    and swap on strict failure of Lovasz with the caller's delta. Column k is
    size-reduced against all earlier columns before its Lovasz test; that
    changes b_k only by multiples of b_0 ... b_{k-2}, which leaves
    mu_{k,k-1}, r_kk and so every swap the same. A wrong decision near a tie
    is possible, so the pass certifies nothing: `finish_reduce` checks its
    result. The
    pass never raises; on a column it cannot accept with r_kk > 0, a
    non-finite mu or more swaps than exact LLL can make, it stops where it is.
    """
    n = len(b)
    g = [[_dot(x, y) for y in b] for x in b]  # exact Gram matrix, kept with b
    top = max(g[i][i] for i in range(n)).bit_length()
    shift = max(0, top - _FLOAT_BITS)
    r = [[0.0] * n for _ in range(n)]
    mu = [[0.0] * n for _ in range(n)]
    d = float(delta)
    # Every exact swap multiplies prod_i D_i, at most 2^(n*n*top) and at
    # least 1, by less than delta.
    swaps_left = math.ceil(n * n * top / (1 - delta))

    def gso_row(k):
        # r[k][:k+1] and mu[k][:k] of column k.
        gk, rk, muk = g[k], r[k], mu[k]
        for j in range(k):
            muj = mu[j]
            t = float(gk[j] >> shift)
            for i in range(j):
                t -= muj[i] * rk[i]
            rk[j] = t
            muk[j] = t / r[j][j]
        t = float(gk[k] >> shift)
        for j in range(k):
            t -= muk[j] * rk[j]
        rk[k] = t

    def size_reduce(k):
        # Sweeps column k until no |mu| exceeds 1/2 or a sweep stops
        # shrinking it; False on a non-finite mu.
        gso_row(k)
        bk, uk, gk, muk = b[k], u[k], g[k], mu[k]
        while True:
            norm, swept = gk[k], False
            for l in range(k - 1, -1, -1):
                m = muk[l]
                if abs(m) > 0.5:
                    swept = True
                    if not math.isfinite(m):
                        return False
                    x = math.floor(abs(m) + 0.5)
                    if m < 0:
                        x = -x
                    bl, ul, gl, mul = b[l], u[l], g[l], mu[l]
                    for i in range(n):
                        bk[i] -= x * bl[i]
                        uk[i] -= x * ul[i]
                    gkk = gk[k] - x * (2 * gk[l] - x * gl[l])
                    for j in range(n):
                        gk[j] -= x * gl[j]
                    gk[k] = gkk
                    for j in range(n):
                        g[j][k] = gk[j]
                    for j in range(l):
                        muk[j] -= x * mul[j]
            if not swept:
                return True
            gso_row(k)
            if gk[k] >= norm:
                return True

    def swap(k):
        for v in (b, u, g):
            v[k], v[k - 1] = v[k - 1], v[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]

    try:
        gso_row(0)
        if not r[0][0] > 0:
            return
        k = 1
        while k < n:
            if not size_reduce(k):
                return
            rkk, prev, m = r[k][k], r[k - 1][k - 1], mu[k][k - 1]
            # Cancellation can leave a tiny r_kk <= 0; then Lovasz fails
            # and b_k moves down, so no r_kk <= 0 is ever divided by.
            if rkk + m * m * prev < d * prev:
                swap(k)
                swaps_left -= 1
                if swaps_left < 0:
                    return
                if k == 1:
                    gso_row(0)
                    if not r[0][0] > 0:
                        return
                k = max(k - 1, 1)
            elif rkk > 0:
                k += 1
            else:
                return
    except OverflowError:
        return


def _parse_ref_oracle(token: str, line_no: int) -> int:
    if not token.startswith("v") or not token[1:].isdigit():
        raise errors.MalformedProgram(f"bad operand {token!r}", line=line_no)
    return int(token[1:])


def parse_slp_oracle(text: str) -> SLP:
    """The reference for `slp.parse_slp`: each line split on whitespace and
    checked token by token, then the whole program validated. The parser
    must return the same program, or raise `MalformedProgram` with the same
    message and line, on every input but one kind: an index of non-ASCII
    digits, which `str.isdigit` accepts here and `int` may then refuse with
    a `ValueError`, is a bad operand to the parser."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "slp v1":
        raise errors.MalformedProgram("missing 'slp v1' header", line=1)
    instructions = []
    result_index = None
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise errors.MalformedProgram("empty line", line=line_no)
        if parts[0] == "result":
            if len(parts) != 2 or result_index is not None:
                raise errors.MalformedProgram("malformed result line", line=line_no)
            result_index = _parse_ref_oracle(parts[1], line_no)
            if line_no != len(lines):
                raise errors.MalformedProgram(
                    "result must be the last line", line=line_no
                )
            continue
        idx = len(instructions)
        if len(parts) < 3 or parts[1] != "=":
            raise errors.MalformedProgram("expected 'v<i> = <op> ...'", line=line_no)
        if _parse_ref_oracle(parts[0], line_no) != idx:
            raise errors.MalformedProgram(
                f"expected definition of v{idx}, got {parts[0]!r} "
                "(duplicate or out-of-order definition)",
                line=line_no,
            )
        if parts[2] == "one":
            if len(parts) != 3:
                raise errors.MalformedProgram("'one' takes no operands", line=line_no)
            if idx != 0:
                raise errors.MalformedProgram(
                    "'one' is only allowed as instruction 0", line=line_no
                )
            instructions.append(ONE)
            continue
        if parts[2] not in ("add", "sub", "mul"):
            raise errors.MalformedProgram(f"unknown opcode {parts[2]!r}", line=line_no)
        if len(parts) != 5:
            raise errors.MalformedProgram(
                f"{parts[2]} takes exactly two operands", line=line_no
            )
        a = _parse_ref_oracle(parts[3], line_no)
        b = _parse_ref_oracle(parts[4], line_no)
        if a >= idx or b >= idx:
            raise errors.MalformedProgram("forward reference", line=line_no)
        instructions.append((parts[2], a, b))
    if result_index is None:
        raise errors.MalformedProgram("missing result line", line=len(lines))
    return program(instructions, result_index)


_OPCODES = {"one": 0, "add": 1, "sub": 2, "mul": 3}


def program(instructions, result_index: int) -> SLP:
    """The SLP of instructions given as tuples, ONE and then (op, a, b)."""
    rows = [("one", 0, 0) if ins == ONE else ins for ins in instructions]
    return SLP(bytes(_OPCODES[op] for op, _, _ in rows), array("q", [a for _, a, _ in rows]),
               array("q", [b for _, _, b in rows]), result_index)


def slp_eval_oracle(p: SLP, modulus: int) -> int:
    """The program's value mod m, from its instruction tuples and a list of
    every residue."""
    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y, "mul": lambda x, y: x * y}
    values = []
    for ins in p.instructions:
        values.append(1 % modulus if ins == ONE else ops[ins[0]](values[ins[1]], values[ins[2]]) % modulus)
    return values[p.result_index]


_DIGIT_RUN_ORACLE = re.compile(r"[0-9]*")


def parse_poly_oracle(source: str) -> IntPoly:
    """The reference for `cli.parse_poly`: the polynomial scanned character
    by character. The parser must return the same polynomial, or raise
    `PolySyntaxError` with the same message and offset, on every input."""
    s = source
    n = len(s)
    pos = 0

    def skip():
        nonlocal pos
        while pos < n and s[pos] in " \t":
            pos += 1

    def read_digits():
        """The run of digits at pos without its leading zeros, "0" for zeros only."""
        nonlocal pos
        j = _DIGIT_RUN_ORACLE.match(s, pos).end()
        text, pos = s[pos:j], j
        return text.lstrip("0") or "0"

    terms: dict[int, int] = {}
    skip()
    if pos >= n:
        raise errors.PolySyntaxError("empty expression", pos)
    first = True
    while pos < n:
        skip()
        if first:
            sign = 1
            if pos < n and s[pos] in "+-":
                sign = -1 if s[pos] == "-" else 1
                pos += 1
            first = False
        else:
            if s[pos] not in "+-":
                raise errors.PolySyntaxError("expected '+' or '-'", pos)
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        skip()
        start = pos
        coef = None
        if pos < n and s[pos] in "0123456789":
            digits = read_digits()
            # A coefficient longer than the cap is refused unread.
            if len(digits) > MAX_COEFFICIENT_DIGITS:
                raise errors.PolySyntaxError(
                    f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits "
                    "(MAX_COEFFICIENT_DIGITS)", start
                )
            coef = int(digits)
        exp = 0
        if pos < n and s[pos] == "x":
            pos += 1
            exp = 1
            if pos < n and s[pos] == "^":
                pos += 1
                if pos >= n or s[pos] not in "0123456789":
                    raise errors.PolySyntaxError("expected exponent", pos)
                at = pos
                digits = read_digits()
                # An exponent longer than the cap's digits is refused unread.
                if len(digits) > len(str(MAX_SEARCH_DEGREE)) or int(digits) > MAX_SEARCH_DEGREE:
                    raise errors.PolySyntaxError(
                        f"exponent above {MAX_SEARCH_DEGREE} (MAX_SEARCH_DEGREE)", at
                    )
                exp = int(digits)
        if pos == start:
            raise errors.PolySyntaxError("expected a term", pos)
        terms[exp] = terms.get(exp, 0) + sign * (1 if coef is None else coef)
        skip()
    degree = max((e for e, c in terms.items() if c != 0), default=-1)
    if degree < 1:
        raise errors.PolySyntaxError("polynomial must have degree >= 1", 0)
    return IntPoly(tuple(terms.get(e, 0) for e in range(degree + 1)))
