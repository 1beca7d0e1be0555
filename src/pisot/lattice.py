"""LLL reduction with transform tracking, plus a reducedness check.

`lll_reduce` runs two steps, each also public. `float_reduce` (after
Schnorr and Euchner, and Nguyen and Stehle's L^2) does the bulk of the
work: exact integer updates of the transform and the Gram matrix,
Gram-Schmidt coefficients as floats from exact inner products, recomputed
only where a column operation made them stale, the exact kernel's decision
rules, and the basis formed once from the transform. Its transform is
unimodular by construction, but its basis is not certified reduced.
`finish_reduce` then runs the all-integer kernel of de Weger / Cohen Alg.
2.6.7 from that basis and transform: every quantity there is an exact
integer, so it certifies the reduction and repairs any decision the floats
got wrong, and results are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    reduced: IntLattice
    transform: tuple[tuple[int, ...], ...]  # columns of U; reduced = original * U
    delta: Fraction


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


def lll_reduce(lat: IntLattice, delta: Fraction = Fraction(3, 4)) -> LLLResult:
    """LLL-reduce the lattice basis; the returned transform U is unimodular
    with reduced.basis = lat.basis * U. The float pass runs first and the
    exact kernel finishes from its basis and transform."""
    return finish_reduce(float_reduce(lat, delta))


def float_reduce(lat: IntLattice, delta: Fraction = Fraction(3, 4)) -> LLLResult:
    """The float pass of `lll_reduce` alone; uncertified. The transform U is
    unimodular with reduced.basis = lat.basis * U, since every column
    operation is an exact integer swap or subtraction, but a float decision
    near a tie, or a pass that stops early, can leave the basis short of
    LLL-reduced. `finish_reduce` makes it so."""
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    b = [list(col) for col in lat.basis]
    u = [[int(i == j) for i in range(lat.k)] for j in range(lat.k)]
    _float_pass(b, u, delta)
    return _result(b, u, delta)


def finish_reduce(result: LLLResult) -> LLLResult:
    """Run the exact kernel from a unimodular reduction of some lattice, such
    as `float_reduce`'s, with its delta. The result is LLL-reduced, certified
    in exact integers, and its transform still maps the original basis."""
    delta = result.delta
    b, u = _lll_columns(result.reduced.basis, delta.numerator, delta.denominator, result.transform)
    return _result(b, u, delta)


def _result(b, u, delta) -> LLLResult:
    return LLLResult(
        reduced=IntLattice(tuple(tuple(c) for c in b)),
        transform=tuple(tuple(c) for c in u),
        delta=delta,
    )


def _dot(u, v):
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def _float_pass(b, u, delta):
    """LLL with exact integer updates and a floating-point Gram-Schmidt, in
    the manner of Schnorr and Euchner (Math. Programming 66, 1994) and
    Nguyen and Stehle's L^2 (SIAM J. Comput. 39(3), 2009).

    Applies every column operation to the columns `u` and to the exact Gram
    matrix of original * u, and on exit, however the pass ends, sets the
    columns `b` in place to original * u. r and mu are floats computed from
    the exact inner products, all shifted right by one common power of two
    so they fit a float; mu and the Lovasz test do not depend on that scale.
    Each row of r and mu keeps a count of its leading entries that are still
    current, and only the rest are recomputed: a swap at k leaves b*_0 ...
    b*_{k-2} as they were, and a size reduction of column k changes only the
    inner products with b_k. A kept float has the same inputs, in the same
    order, as its recomputation would, so every decision is the one a full
    recomputation makes. The decisions are the exact kernel's: reduce when
    |mu| > 1/2, rounding half away from zero, and swap on strict failure of
    Lovasz with the caller's delta. Column k is size-reduced against all
    earlier columns before its Lovasz test; that changes b_k only by
    multiples of b_0 ... b_{k-2}, which leaves mu_{k,k-1}, r_kk and so every
    swap the same. A wrong decision near a tie is possible, so the pass
    certifies nothing: `finish_reduce` runs the exact kernel after it. The
    pass never raises; on a column it cannot accept with r_kk > 0, a
    non-finite mu or more swaps than exact LLL can make, it stops where it is.
    """
    n = len(b)
    g = [[_dot(x, y) for y in b] for x in b]  # exact Gram matrix of original * u
    top = max(g[i][i] for i in range(n)).bit_length()
    shift = max(0, top - _FLOAT_BITS)
    r = [[0.0] * n for _ in range(n)]
    mu = [[0.0] * n for _ in range(n)]
    # fresh[k] leading entries of r[k] and mu[k] are current; r[k][k] is
    # recomputed on every visit, since nothing leaves it current. Rows after
    # the current column k keep at most k entries, since the pass came to k
    # from k - 1 or by a swap at k + 1; so a size reduction of column k,
    # which changes only inner products with b_k, makes only row k stale.
    fresh = [0] * n
    d = float(delta)
    # Every exact swap multiplies prod_i D_i, at most 2^(n*n*top) and at
    # least 1, by less than delta.
    swaps_left = math.ceil(n * n * top / (1 - delta))

    def gso_row(k):
        # r[k][:k+1] and mu[k][:k] of column k, from entry fresh[k] on.
        gk, rk, muk = g[k], r[k], mu[k]
        for j in range(fresh[k], k):
            muj = mu[j]
            t = float(gk[j] >> shift)
            for i in range(j):
                t -= muj[i] * rk[i]
            rk[j] = t
            muk[j] = t / r[j][j]
        fresh[k] = k
        t = float(gk[k] >> shift)
        for j in range(k):
            t -= muk[j] * rk[j]
        rk[k] = t

    def size_reduce(k):
        # Sweeps column k until no |mu| exceeds 1/2 or a sweep stops
        # shrinking it; False on a non-finite mu.
        gso_row(k)
        uk, gk, muk = u[k], g[k], mu[k]
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
            if not swept:
                return True
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
    finally:
        rows = list(zip(*b))
        b[:] = [[_dot(row, uj) for row in rows] for uj in u]


def _lll_columns(basis, delta_num, delta_den, transform):
    """All-integer LLL on column vectors.

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
    condition, all in exact rational arithmetic."""
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
        if lhs < (result.delta - mu[i][i - 1] ** 2) * prev:
            lovasz_ok = False
            break
    return ReducednessReport(product_ok, unimodular_ok, size_ok, lovasz_ok)
