"""LLL reduction with transform tracking. `float_reduce` does the bulk of
the work in the one reduction loop, `_float_pass`, on floats; its transform
is unimodular, but its basis is not certified reduced. `finish_reduce`
checks that basis in exact integers and, where the floats could not decide,
runs the same loop on `decimal.Decimal` until the check passes. `lll_reduce`
runs both; its results are exact and reproducible across platforms.
Every reduction is at delta = 3/4, the quality that the search's scales
were fitted on (`pisotsearch.gaussian_scale_P`). The loop updates a
Gram-Schmidt row in place after a size reduction, and keeps it while its
r_kk agrees with the exact Gram matrix to a relative tolerance (2^-30 on
floats, 10^-floor(prec/2) on Decimals); it skips the sweep of a column that
a swap moved down, which is already size-reduced. A result holds the
transform; its reduced basis is formed when a caller reads it.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from . import errors

# The largest squared norm is shifted to below 2^_FLOAT_BITS before it
# becomes a float, which leaves 2^63 of headroom under the float range.
_FLOAT_BITS = 960


@dataclass(frozen=True)
class IntLattice:
    """Full-rank integer lattice given by k column vectors of length k."""

    basis: tuple[tuple[int, ...], ...]  # columns

    def __post_init__(self):
        cols = tuple(tuple(int(x) for x in col) for col in self.basis)
        if not cols or any(len(c) != len(cols) for c in cols):
            raise ValueError("basis must be a square set of column vectors")
        object.__setattr__(self, "basis", cols)

    @property
    def k(self) -> int:
        return len(self.basis)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        n = self.k
        m = [[self.basis[j][i] for j in range(n)] for i in range(n)]
        sign = 1
        prev = 1
        for col in range(n - 1):
            if m[col][col] == 0:
                for r in range(col + 1, n):
                    if m[r][col] != 0:
                        m[col], m[r] = m[r], m[col]
                        sign = -sign
                        break
                else:
                    return 0
            for r in range(col + 1, n):
                for c in range(col + 1, n):
                    m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
                m[r][col] = 0
            prev = m[col][col]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class LLLResult:
    original: IntLattice
    transform: tuple[tuple[int, ...], ...]  # columns of U

    @cached_property
    def reduced(self) -> IntLattice:
        """original * U, formed on first read: the search reads only U."""
        return IntLattice(_times(self.original.basis, self.transform))


def lll_reduce(lat: IntLattice) -> LLLResult:
    """LLL-reduce the lattice basis; the returned transform U is unimodular
    with reduced.basis = lat.basis * U. The float pass runs first, and
    `finish_reduce` certifies its basis and finishes from it."""
    return finish_reduce(float_reduce(lat))


def float_reduce(lat: IntLattice) -> LLLResult:
    """The float pass of `lll_reduce` alone; uncertified. The transform U is
    unimodular with reduced.basis = lat.basis * U, since every column
    operation is an exact integer swap or subtraction, but a float decision
    near a tie, or a pass that stops early, can leave the basis short of
    LLL-reduced. `finish_reduce` makes it so."""
    u = _identity(lat.k)
    _float_pass(u, _gram(lat.basis))
    return LLLResult(lat, tuple(map(tuple, u)))


def finish_reduce(result: LLLResult) -> LLLResult:
    """Certify a unimodular reduction of some lattice, such as
    `float_reduce`'s, and finish it where floats could not decide. The
    result is LLL-reduced, checked in exact integers, and its transform
    still maps the original basis. Raises RankDeficient on a rank-deficient
    basis."""
    u = result.transform
    g = _gram(result.reduced.basis)
    digits = _start_digits(len(u))
    # Each Decimal pass starts from the latest basis. Once the precision
    # separates the finitely many quantities that exact LLL compares from
    # that basis, every decision is the exact one, so the pass ends
    # LLL-reduced and the check passes; doubling reaches such a precision.
    while not _is_reduced(g):
        ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN,
                              Emax=decimal.MAX_EMAX, traps=[decimal.FloatOperation])
        v = _identity(len(u))
        with decimal.localcontext(ctx):
            _float_pass(v, g, ctx)
        u = _times(u, v)
        digits *= 2
    return LLLResult(result.original, tuple(map(tuple, u)))


def _start_digits(k: int) -> int:
    # L^2 decides correctly at about log2(3) k = 1.6k bits plus lower-order
    # terms; k digits are 3.3k bits, and 16 more cover the rest.
    return k + 16


def _is_reduced(g) -> bool:
    """Whether the basis with exact Gram matrix g is LLL-reduced.
    One fraction-free pass, as in Cohen's Alg. 2.6.7, gives the Gram
    determinants D_i (D_0 = 1) and lam_ij = D_{j+1} mu_ij, all integers;
    then |mu_ij| <= 1/2 is 2|lam_ij| <= D_{j+1}, and Lovasz for column i is
    D_{i+1} D_{i-1} + lam_{i,i-1}^2 >= (3/4) D_i^2. Raises RankDeficient
    when some D_i is not positive."""
    n = len(g)
    big_d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    reduced = True
    for i in range(n):
        li = lam[i]
        for j in range(i + 1):
            t = g[i][j]
            for k in range(j):
                t = (big_d[k + 1] * t - li[k] * lam[j][k]) // big_d[k]
            if j < i:
                li[j] = t
                reduced = reduced and 2 * abs(t) <= big_d[j + 1]
            elif t <= 0:
                raise errors.RankDeficient("basis is rank deficient")
            else:
                big_d[i + 1] = t
        if i and reduced:
            lovasz = big_d[i + 1] * big_d[i - 1] + li[i - 1] ** 2
            reduced = 4 * lovasz >= 3 * big_d[i] ** 2
    return reduced


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _identity(k):
    return [[int(i == j) for i in range(k)] for j in range(k)]


def _gram(cols):
    g = [[0] * len(cols) for _ in cols]
    for i, x in enumerate(cols):
        for j in range(i + 1):
            g[i][j] = g[j][i] = _dot(x, cols[j])
    return g


def _times(a, v):
    """The columns of A V, for A and V given by their columns."""
    rows = list(zip(*a))
    return [[_dot(row, vj) for row in rows] for vj in v]


def _float_pass(u, g, ctx=None):
    """LLL with exact integer updates and a floating-point Gram-Schmidt, in
    the manner of Schnorr and Euchner (Math. Programming 66, 1994) and
    Nguyen and Stehle's L^2 (SIAM J. Comput. 39(3), 2009).

    `g` is the exact Gram matrix of original * u, and the pass applies every
    column operation to the columns `u` and to `g`; a caller that needs the
    basis forms original * u once, however the pass ends. r and mu are floats
    computed from the exact inner products, all shifted right by one common
    power of two so they fit a float; mu and the Lovasz test do not depend
    on that scale. Given a decimal context `ctx`, which must also be the
    current one, they are Decimals instead, each inner product rounded to
    its precision, with no shift and no exponent range to leave. The
    decisions are exact LLL's: reduce when |mu| > 1/2, rounding half away
    from zero, and swap on strict failure of Lovasz with delta = 3/4.
    Column k is size-reduced against all earlier columns before its Lovasz
    test; that changes b_k only by multiples of b_0 ... b_{k-2}, which
    leaves mu_{k,k-1}, r_kk and so every swap the same.

    A row of r and mu is computed from g only where no cheaper rule holds:
    - A sweep that reduces column k by x b_l updates mu_k in place, as
      Schnorr and Euchner do: mu_kj -= x mu_lj for j < l, and mu_kl -= x.
      After the sweep r_kj = mu_kj r_jj, and r_kk is recomputed from the
      exact g_kk. Size reduction leaves b*_k, so r_kk, as it was: the row
      stands when the new r_kk lies within a relative `tol` of the one the
      sweep started from, 2^-30 on floats and 10^-floor(prec/2) on
      Decimals. Otherwise cancellation has eaten the updated row, and it is
      recomputed in full from g, as L^2 does after every sweep.
    - After a swap at k >= 2, the column now at k - 1 was size-reduced
      against b_0 ... b_{k-2}, which the swap left as they were. Only its
      r_{k-1,k-1} is computed, and it goes to its Lovasz test unswept. (A
      column whose sweeps stopped shrinking it may keep a |mu| > 1/2; the
      pass leaves that to `finish_reduce`, as it does at that column.)

    A wrong decision near a tie is possible, so the pass certifies nothing:
    `finish_reduce` checks its result. The pass raises only on a float mixed
    into its Decimals; on a column it cannot accept with r_kk > 0, a
    non-finite mu or more swaps than exact LLL can make, it stops where it
    is.
    """
    n = len(g)
    top = max(g[i][i] for i in range(n)).bit_length()
    if ctx is None:
        shift = max(0, top - _FLOAT_BITS)

        def num(x):
            return float(x >> shift)

        half, d, tol, finite = 0.5, 0.75, 2.0**-30, math.isfinite
    else:
        # Rounded from the leading bits alone: an exact Decimal of a long
        # int costs time quadratic in its length.
        bits, powers = 4 * ctx.prec + 8, {}

        def num(x):
            s = x.bit_length() - bits
            if s <= 0:
                return ctx.create_decimal(x)
            if s not in powers:
                powers[s] = ctx.power(2, s)
            return ctx.multiply(ctx.create_decimal(x >> s), powers[s])

        half, d = ctx.divide(1, 2), ctx.divide(3, 4)
        tol = ctx.power(10, -(ctx.prec // 2))
        finite = decimal.Decimal.is_finite
    r = [[num(0)] * n for _ in range(n)]
    mu = [[num(0)] * n for _ in range(n)]
    # fresh[k] leading entries of r[k] and mu[k] are current. A swap at k
    # leaves b*_0 ... b*_{k-2} as they were; r[k][k] is computed on every
    # visit. Rows after the current column k keep at most k entries, since
    # the pass came to k from k - 1 or by a swap at k + 1; so a size
    # reduction of column k, which changes only inner products with b_k,
    # makes only row k stale.
    fresh = [0] * n
    # Every exact swap multiplies prod_i D_i, at most 2^(n*n*top) and at
    # least 1, by less than 3/4.
    swaps_left = 4 * n * n * top

    def gso_row(k):
        # r[k][:k+1] and mu[k][:k] of column k, from entry fresh[k] on.
        gk, rk, muk = g[k], r[k], mu[k]
        for j in range(fresh[k], k):
            muj = mu[j]
            t = num(gk[j])
            for i in range(j):
                t -= muj[i] * rk[i]
            rk[j] = t
            muk[j] = t / r[j][j]
        fresh[k] = k
        t = num(gk[k])
        for j in range(k):
            t -= muk[j] * rk[j]
        rk[k] = t

    def size_reduce(k):
        # Sweeps column k until no |mu| exceeds 1/2 or a sweep stops
        # shrinking it; False on a non-finite mu.
        gso_row(k)
        uk, gk, rk, muk = u[k], g[k], r[k], mu[k]
        while True:
            norm, rkk, swept = gk[k], rk[k], False
            for l in range(k - 1, -1, -1):
                m = muk[l]
                if abs(m) > half:
                    swept = True
                    if not finite(m):
                        return False
                    x = math.floor(abs(m) + half)
                    if m < 0:
                        x = -x
                    ul, gl, mul = u[l], g[l], mu[l]
                    gkk = gk[k] - x * (2 * gk[l] - x * gl[l])
                    # One loop updates u_k and row and column k of the Gram
                    # matrix, with no product when x = +-1, as in most
                    # reductions; the entry (k, k) is gkk.
                    if x == 1:
                        for j in range(n):
                            uk[j] -= ul[j]
                            g[j][k] = gk[j] = gk[j] - gl[j]
                    elif x == -1:
                        for j in range(n):
                            uk[j] += ul[j]
                            g[j][k] = gk[j] = gk[j] + gl[j]
                    else:
                        for j in range(n):
                            uk[j] -= x * ul[j]
                            g[j][k] = gk[j] = gk[j] - x * gl[j]
                    gk[k] = gkk
                    for j in range(l):
                        muk[j] -= x * mul[j]
                    muk[l] = m - x
            if not swept:
                return True
            # The row updated in place stands if r_kk, which size reduction
            # leaves as it was, comes out the same from the exact g_kk.
            for j in range(k):
                rk[j] = muk[j] * r[j][j]
            gso_row(k)
            if not abs(rk[k] - rkk) <= tol * rkk:
                fresh[k] = 0
                gso_row(k)
            if gk[k] >= norm:
                return True

    def swap(k):
        for v in (u, g, r, mu, fresh):
            v[k], v[k - 1] = v[k - 1], v[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        # b*_0 ... b*_{k-2} stay as they were; entries k-1 on do not.
        for i in range(k - 1, n):
            if fresh[i] > k - 1:
                fresh[i] = k - 1

    try:
        gso_row(0)
        if not r[0][0] > 0:
            return
        k, moved = 1, False
        while k < n:
            if moved:
                gso_row(k)
            elif not size_reduce(k):
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
                # b_k, now at k - 1, was size-reduced against b_0 ... b_{k-2},
                # which the swap left as they were: only its r_kk is new.
                moved = k > 1
                k = max(k - 1, 1)
            elif rkk > 0:
                k, moved = k + 1, False
            else:
                return
    except OverflowError:
        return
