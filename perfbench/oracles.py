"""Independent answers for every request the benchmark sends.

Nothing here imports the package under test. Powers come from x^n mod f
and Newton power sums (no companion matrices); root layouts come from
mpmath at a precision far above the package's defaults; search answers are
re-derived from the benchmark's own cosines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mp

ROOT_DPS = 60
# Two fixed 61-bit primes: exact answers are compared modulo each.
CHECK_PRIMES = (2**61 - 1, 2**61 - 31)


def poly_str(coeffs) -> str:
    """Ascending integer coefficients as a CLI expression, e.g. "x^3-x-1"."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("x" if e == 1 else f"x^{e}")
        terms.append(("-" if c < 0 else ("+" if terms else "")) + body)
    return "".join(terms)


def newton_sums(coeffs, count: int) -> list[int]:
    """Power sums p_0 .. p_{count-1} of the roots of a monic polynomial."""
    d = len(coeffs) - 1
    p = [d]
    for k in range(1, count):
        s = k * coeffs[d - k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            s += coeffs[d - i] * p[k - i]
        p.append(-s)
    return p


def xpow_mod(coeffs, n: int, m: int) -> list[int]:
    """Coefficients r_0 .. r_{d-1} of x^n mod (f, m), by square-and-multiply
    on residues of polynomials."""
    d = len(coeffs) - 1

    def mulmod(u, v):
        prod = [0] * (2 * d - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    prod[i + j] += ui * vj
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k] % m
            if c:
                for i in range(d):
                    prod[k - d + i] -= c * coeffs[i]
        return [x % m for x in prod[:d]]

    result = [1 % m] + [0] * (d - 1)
    base = [0, 1 % m] + [0] * (d - 2)
    for bit in bin(n)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, base)
    return result


class PisotPoly:
    """Root layout of a monic integer polynomial, computed with mpmath."""

    def __init__(self, coeffs):
        self.coeffs = tuple(int(c) for c in coeffs)
        self.d = len(self.coeffs) - 1
        with mp.workdps(ROOT_DPS):
            roots = mpmath.polyroots(
                list(reversed(self.coeffs)), maxsteps=400, extraprec=4 * ROOT_DPS
            )
        self.roots = sorted(roots, key=lambda z: -abs(z))
        self.alpha = self.roots[0]
        self.second = abs(self.roots[1])
        self._sums = newton_sums(self.coeffs, self.d)
        self._n0 = None

    def is_pisot(self, margin) -> bool:
        """One real root above 1 + margin, all others inside |z| < 1 - margin,
        and a nonzero constant term; together these make f irreducible."""
        a = self.alpha
        return (
            self.coeffs[0] != 0
            and abs(a.imag) < mpmath.mpf(10) ** (-ROOT_DPS // 2)
            and a.real > 1 + margin
            and self.second < 1 - margin
        )

    def log2_alpha(self) -> float:
        return float(mpmath.log(self.alpha.real, 2))

    def threshold_terms(self, n: int):
        """(d-1)*|alpha_2|^n, the bound the trace path must push below 1/2."""
        with mp.workdps(ROOT_DPS):
            return (self.d - 1) * self.second**n

    @property
    def n0(self) -> int:
        """Smallest n >= 1 with (d-1)*|alpha_2|^n < 1/2."""
        if self._n0 is None:
            with mp.workdps(ROOT_DPS):
                guess = mpmath.log(mpmath.mpf(1) / (2 * (self.d - 1))) / mpmath.log(
                    self.second
                )
            n = max(1, int(guess) - 1)
            while self.threshold_terms(n) >= 0.5:
                n += 1
            while n > 1 and self.threshold_terms(n - 1) < 0.5:
                n -= 1
            self._n0 = n
        return self._n0

    def _correction(self, n: int) -> int:
        """[alpha^n] - p_n, which is 0 from the threshold on."""
        if n >= self.n0:
            return 0
        with mp.workdps(ROOT_DPS):
            rest = mpmath.fsum(z**n for z in self.roots[1:])
            return int(mpmath.nint(-rest.real))

    def nearest_power_mod(self, n: int, m: int) -> int:
        """[alpha^n] mod m from x^n mod f and the Newton power sums."""
        r = xpow_mod(self.coeffs, n, m)
        p_n = sum(ri * si for ri, si in zip(r, self._sums))
        return (p_n + self._correction(n)) % m


def check_threshold(poly: PisotPoly, n0) -> str | None:
    """(d-1)|alpha_2|^n0 < 1/2 <= (d-1)|alpha_2|^(n0-1)."""
    if not isinstance(n0, int) or n0 < 1:
        return f"threshold {n0!r} is not a positive integer"
    if not poly.threshold_terms(n0) < 0.5:
        return f"(d-1)|a2|^{n0} >= 1/2"
    if n0 > 1 and not poly.threshold_terms(n0 - 1) >= 0.5:
        return f"(d-1)|a2|^{n0 - 1} < 1/2, so {n0} is not the least"
    return None


def check_exact_power(poly: PisotPoly, n: int, value: int) -> str | None:
    """Compare modulo two 61-bit primes and the bit length with n*log2(alpha)."""
    for q in CHECK_PRIMES:
        want = poly.nearest_power_mod(n, q)
        if value % q != want:
            return f"result mod {q} is {value % q}, expected {want}"
    if n > 0:
        expect = n * poly.log2_alpha()
        if abs(value.bit_length() - (int(expect) + 1)) > 1:
            return f"result has {value.bit_length()} bits, expected ~{expect:.1f}"
    return None


def check_power_mod(poly: PisotPoly, n: int, m: int, value) -> str | None:
    want = poly.nearest_power_mod(n, m)
    if value != want:
        return f"got {value}, expected {want}"
    return None


# --- search answers ---------------------------------------------------------


def coprime_reps(n: int) -> list[int]:
    """Representatives a <= n/2 of (Z/nZ)*/{+-1}, ascending."""
    return [a for a in range(1, n // 2 + 1) if gcd(a, n) == 1]


def cyclotomic_rows(n: int, dps: int):
    """Rows sigma_t(beta_j) = 2cos(2 pi t a_j / n) of the cosine basis."""
    reps = coprime_reps(n)
    with mp.workdps(dps):
        return [[2 * mpmath.cospi(mpmath.mpf(2 * ((t * a) % n)) / n) for a in reps] for t in reps]


def power_basis_rows(n: int, dps: int):
    """Rows of the integral basis {1} U {2cos(2 pi j / n) : 1 <= j < k}."""
    reps = coprime_reps(n)
    with mp.workdps(dps):
        return [
            [mpmath.mpf(1)] + [2 * mpmath.cospi(mpmath.mpf(2 * ((t * j) % n)) / n) for j in range(1, len(reps))]
            for t in reps
        ]


def check_pisot_candidate(obj: dict, basis_rows, epsilon: Fraction) -> str | None:
    """A find/verify answer is right when the returned minpoly has degree k,
    its roots are the coefficients applied to the embeddings (matched through
    all coefficients of prod(x - sigma_t(alpha))), exactly one of them lies
    above 1 and it is the returned value, the others lie below epsilon, and
    they are pairwise distinct, so alpha generates the field.

    `basis_rows(dps)` gives the embedding rows at a decimal precision; it may
    return several candidate bases, and one must fit.
    """
    try:
        z = [int(c) for c in obj["coefficients"]]
        f = [int(c) for c in obj["minpoly"]]
        value_text = str(obj["value"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"
    k = len(z)
    if len(f) != k + 1 or f[-1] != 1:
        return f"minpoly has degree {len(f) - 1} or is not monic; expected degree {k}"
    digits = max(len(str(abs(c))) for c in f + z)
    dps = 2 * digits + 40
    eps = mpmath.mpf(epsilon.numerator) / epsilon.denominator
    reason = "no basis given"
    for rows in basis_rows(dps):
        with mp.workdps(dps):
            value = mpmath.mpf(value_text)
            conj = [mpmath.fsum(zj * b for zj, b in zip(z, row)) for row in rows]
            prod = [mpmath.mpf(1)]
            for c in conj:
                nxt = [mpmath.mpf(0)] * (len(prod) + 1)
                for i, p in enumerate(prod):
                    nxt[i + 1] += p
                    nxt[i] -= c * p
                prod = nxt
            if any(abs(p - q) > mpmath.mpf("0.01") for p, q in zip(prod, f)):
                reason = "minpoly roots are not the conjugates of the coefficient vector"
                continue
            above = [c for c in conj if c > 1]
            if len(above) != 1 or conj[0] is not above[0]:
                reason = f"{len(above)} conjugates above 1, or the value is not the first"
                continue
            if abs(conj[0] - value) > mpmath.mpf(10) ** -30 * max(1, abs(value)):
                reason = "returned value differs from the coefficients applied to the embeddings"
                continue
            if any(not abs(c) < eps for c in conj[1:]):
                reason = f"a conjugate has modulus >= epsilon {epsilon}"
                continue
            gap = min(abs(a - b) for i, a in enumerate(conj) for b in conj[i + 1:])
            if gap < mpmath.mpf(10) ** (-dps // 2):
                reason = "conjugates are not distinct"
                continue
            return None
    return reason
