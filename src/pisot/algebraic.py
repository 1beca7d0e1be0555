"""Totally real fields, their embeddings, and certified polynomial root data.

Embeddings are fixed-point integers: entry m stands for 2^s * sigma, known to
within one error bound err for the whole matrix. A cyclotomic field's
cosines come from pi (Machin's formula) and a Taylor series, all in integer
fixed point; no step uses floating point, and its discriminant comes from
the conductor alone, through Ramanujan sums. An explicit field's trace
form and discriminant, the values of an integer combination and the minimal
polynomial built from them are exact integer computations checked against
that bound. Polynomial roots are integer disks (a Gaussian-integer center
and a radius at one scale) from `roots.root_layouts`, whose radii rest on
an exact residual. The Pisot layout and the threshold n0 are integer
comparisons against those radii; n0 compares fixed-point powers of the upper
and lower bounds of |alpha_2|, each with its carried error bound, to 1/2.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, isqrt

from . import errors
from .balls import Ball, decimal_digits
from .lattice import IntLattice
from .limits import MAX_FIELD_ENTRY_CHARS, MAX_FIELD_INT_CHARS, MAX_WORK_BITS, THRESHOLD_CAP
from .roots import PolyRoot, fixed_power, root_layouts, share_a_root

# Precision of the first root layout that `analyze_minpoly` asks for: the
# largest of the ladder's 64 * 2^k that one Newton sweep from float starts
# reaches (`roots._newton`), since 2 * 53 >= 64 + GUARD_BITS and not 128.
FIRST_LAYOUT_BITS = 64
# Significant digits of |alpha_2| that `threshold` prints: `analyze_minpoly`
# keeps a layout only once its ball of |alpha_2| fixes them, since a 64-bit
# certificate covers only about 19 of them.
SECOND_MODULUS_DIGITS = 20


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending: c_0 + c_1 x + ... + c_d x^d."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise ValueError("polynomial must have degree >= 1 with nonzero leading coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __str__(self):
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coefficients[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{e}" if mag == 1 else f"{mag}x^{e}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


@dataclass(frozen=True)
class FieldSpec:
    """Input description of a totally real Galois field."""

    kind: str  # "cyclotomic" | "explicit"
    conductor: int | None = None
    embedding_rows: tuple[tuple[str, ...], ...] | None = None
    stated_precision_bits: int | None = None
    discriminant: int | None = None

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        """The spec a field file's JSON object describes; a missing key or a
        value of the wrong type or range is a ParseError."""
        if not isinstance(obj, dict):
            raise errors.ParseError(
                f"field file: a JSON object is required, got {type(obj).__name__}"
            )
        kind = obj.get("kind")
        if kind == "cyclotomic":
            return cls(kind="cyclotomic", conductor=_field_int(obj, "conductor", 1))
        if kind == "explicit":
            rows, labels = obj.get("embedding_rows"), obj.get("basis_labels", [])
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise errors.ParseError("field file: 'embedding_rows' must be a list of lists")
            # basis_labels names the basis for a reader: checked, not used.
            if not isinstance(labels, list):
                raise errors.ParseError("field file: 'basis_labels' must be a list")
            disc = obj.get("discriminant")
            return cls(
                kind="explicit",
                embedding_rows=tuple(tuple(row) for row in rows),
                stated_precision_bits=_field_int(obj, "precision_bits", 1),
                discriminant=None if disc is None else _field_int(obj, "discriminant"),
            )
        raise errors.ParseError(f"unknown field kind: {kind!r:.60}")

    @classmethod
    def from_file(cls, path) -> "FieldSpec":
        """The spec of an ASCII JSON field file. A file that is not such
        text, or holds an integer literal longer than MAX_FIELD_INT_CHARS,
        is a ParseError, decided before int() reads it."""
        try:
            with open(path, "r", encoding="ascii") as fh:
                obj = json.load(fh, parse_int=_json_int_literal)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
            raise errors.ParseError(f"field file {path}: {exc}") from None
        return cls.from_json(obj)


_FIELD_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _json_int_literal(text: str) -> int:
    if len(text) > MAX_FIELD_INT_CHARS:
        raise errors.ParseError(
            f"field file: an integer of {len(text)} characters, above {MAX_FIELD_INT_CHARS}"
        )
    return int(text)


def _field_int(obj: dict, key: str, least: int | None = None) -> int:
    """obj[key] as an int of at least `least`: a JSON integer, or a string of
    ASCII digits with an optional sign; anything else is a ParseError."""
    v = obj.get(key)
    if isinstance(v, str) and len(v) <= MAX_FIELD_INT_CHARS and _FIELD_INT_TEXT.fullmatch(v):
        v = int(v)
    if type(v) is not int or (least is not None and v < least):
        bound = "an integer" if least is None else f"an integer >= {least}"
        raise errors.ParseError(f"field file: {key!r} must be {bound}, got {v!r:.60}")
    return v


@dataclass(frozen=True)
class EmbeddingMatrix:
    """All real embeddings of an integral basis in fixed point; row 0 is the
    identity embedding. entries[t][j] is an int m with
    |2^s * sigma_t(b_j) - m| <= err, where s = precision_bits."""

    k: int
    entries: tuple[tuple[int, ...], ...]
    err: int
    precision_bits: int
    discriminant: int
    conductor: int | None = None


@dataclass(frozen=True)
class MinPolyInfo:
    """Certified root layout of the Pisot minimal polynomial `poly`, which
    the power layer reads from here and takes nowhere else: one layout of
    `pisot_layouts`, at `precision_bits`, and the n0 that it decides."""

    poly: IntPoly
    roots: tuple[PolyRoot, ...]
    dominant_index: int
    second_modulus: Ball
    threshold_n0: int
    precision_bits: int

    @property
    def dominant_root(self) -> PolyRoot:
        return self.roots[self.dominant_index]


def coprime_residues(n: int):
    """Representatives of (Z/nZ)*/{±1}, ascending, generated lazily."""
    return (a for a in range(1, n // 2 + 1) if gcd(a, n) == 1)


def cyclotomic_embeddings(conductor: int, precision_bits: int) -> EmbeddingMatrix:
    """Embedding matrix of the real subfield of the cyclotomic field of the
    given conductor n, with integral basis {2cos(2*pi*a/n) : a in reps}.
    For n = 2 mod 4, Q(zeta_n) = Q(zeta_{n/2}), so n/2 replaces n and is the
    matrix's conductor.

    For n not squarefree the sum of that basis is mu(n) = 0, so it is
    dependent, and the power basis {1, 2cos(2*pi*j/n) : 1 <= j < k} of
    Z[2cos(2*pi/n)], the ring of integers (Washington, Introduction to
    Cyclotomic Fields, Prop. 2.16), is used instead. The choice is made
    from n alone, before any cosine is computed.

    Each cosine 2cos(2*pi*m/n) is computed once per residue m = t*a mod n
    that occurs, to within 2^-16 units of 2^-s (`_two_cosines`), then rounded
    to the nearest integer at scale 2^s; err = 1 covers both.
    """
    n, reps, exponents = _cosine_basis(conductor)
    s = _capped(precision_bits)
    cosines = _two_cosines(n, {(t * a) % n for t in reps for a in exponents if a}, s)
    entries = tuple(tuple(cosines[(t * a) % n] if a else 1 << s for a in exponents) for t in reps)
    return EmbeddingMatrix(
        k=len(reps),
        entries=entries,
        err=1,
        precision_bits=s,
        conductor=n,
        discriminant=cyclotomic_invariants(n)[1],
    )


def _cosine_basis(conductor: int):
    """(n, reps, exponents) of `cyclotomic_embeddings`' basis: n is the
    conductor with n = 2 mod 4 halved, reps are `coprime_residues(n)`, and
    basis element j is 2cos(2*pi*exponents[j]/n), where exponent 0 stands
    for the element 1, not for 2cos(0) = 2."""
    n = int(conductor)
    if n % 4 == 2:
        n //= 2
    reps = list(coprime_residues(n))
    if len(reps) < 2:
        raise errors.UnsupportedConductor(f"conductor {conductor} gives degree {len(reps)} < 2")
    squarefree = _mobius_totient(n)[0] != 0
    return n, reps, reps if squarefree else range(len(reps))


@functools.lru_cache(maxsize=64)
def cyclotomic_invariants(conductor: int) -> tuple[int, int]:
    """(k, disc) of `cyclotomic_embeddings`' basis from the conductor alone,
    with disc = det(Tr(b_i b_j)) taken over the exact trace form.

    Tr 2cos(2*pi*m/n) is the Ramanujan sum c_n(m) = mu(n/g) phi(n) / phi(n/g)
    with g = gcd(m, n), since t and -t over the k reps run through the units
    mod n. With x_a = 2cos(2*pi*a/n) and 1 = x_0 / 2, the product
    x_a x_b = x_(a+b) + x_(a-b) gives Tr(b_i b_j) = (c_n(a+b) + c_n(a-b)) / 2^z,
    where z counts the exponents a, b that are 0."""
    n, reps, exponents = _cosine_basis(conductor)
    phi = 2 * len(reps)
    ramanujan = {}
    for g in range(1, n + 1):
        if n % g == 0:
            mu, phi_q = _mobius_totient(n // g)
            ramanujan[g] = mu * phi // phi_q

    def trace(a, b):
        return (ramanujan[gcd(a + b, n)] + ramanujan[gcd(a - b, n)]) >> ((a == 0) + (b == 0))

    gram = tuple(tuple(trace(a, b) for b in exponents) for a in exponents)
    return len(reps), IntLattice(gram).det()


def _mobius_totient(q: int) -> tuple[int, int]:
    """(mu(q), phi(q)) by trial division."""
    mu, phi, p = 1, q, 2
    while q > 1:
        if q % p == 0:
            q //= p
            mu, phi = (0 if q % p == 0 else -mu), phi - phi // p
            while q % p == 0:
                q //= p
        p += 1
    return mu, phi


def _two_cosines(n: int, residues, s: int) -> dict[int, int]:
    """{m: round(2^s * 2cos(2*pi*m/n))} for n >= 5, in integer fixed point
    at w = s + 64 + bits(n) bits, each within 2^-16 units before rounding.

    pi = 16 atan(1/5) - 4 atan(1/239) (Machin) is within 4w + 40 units of
    2^w pi (`_arctan_inv`), so theta = floor(2^(w+1) pi / n) is within
    2w + 17 units of 2^w * 2pi/n. The Taylor series of exp(i theta / 2^w),
    every term floored, adds at most 5w + 8, so z = re + i*im is within
    e0 = 7w + 25 units of 2^w exp(2 pi i / n). Each Gaussian product
    z^r = floor(z^(r-1) * z / 2^w) adds at most e0 + 2, and cos is even in
    m, so with r = min(m, n - m) <= n/2, twice the real part of z^r is within
    n(7w + 27) < 2^(w - s - 16) units.
    """
    w = s + 64 + n.bit_length()
    theta = 2 * (16 * _arctan_inv(5, w) - 4 * _arctan_inv(239, w)) // n
    re = im = 0
    term, j = 1 << w, 0
    while term:  # term = 2^w theta^j / j!, times i^j
        if j % 2:
            im += term if j % 4 == 1 else -term
        else:
            re += term if j % 4 == 0 else -term
        j += 1
        term = (term * theta >> w) // j
    reduced = {m: min(m % n, n - m % n) for m in residues}
    table = {}
    a, b = 1 << w, 0
    for r in range(1, max(reduced.values()) + 1):
        a, b = (a * re - b * im) >> w, (a * im + b * re) >> w
        table[r] = (a + (1 << (w - s - 2))) >> (w - s - 1)
    return {m: table[r] for m, r in reduced.items()}


def _arctan_inv(x: int, w: int) -> int:
    """2^w atan(1/x) for an integer x >= 2, by its Taylor series: the k-th
    power floor(2^w / x^(2k+1)) is exact, and each of its at most
    w / (2 log2 x) + 1 nonzero terms, floored, and the tail lose less than
    one unit each."""
    total, power, k = 0, (1 << w) // x, 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= x * x
        k += 2
    return total


def explicit_embeddings(spec: FieldSpec, precision_bits: int) -> EmbeddingMatrix:
    """Embedding matrix parsed from decimal strings supplied by the user.

    An entry x stands for sigma within (|x| + 1) * 2^(1-s), s = precision_bits
    (at most the stated precision); rounded to an integer at scale 2^s, it is
    within err = 2 * (A + 1) + 1 units for |x| <= A over the matrix.
    """
    if spec.kind != "explicit":
        raise errors.ParseError("explicit_embeddings requires an explicit-kind FieldSpec")
    s = _capped(precision_bits)
    if spec.stated_precision_bits is None or spec.stated_precision_bits < precision_bits:
        raise errors.PrecisionError(
            "requested precision exceeds the stated precision of the input"
        )
    rows = spec.embedding_rows or ()
    k = len(rows)
    if k < 2 or any(len(r) != k for r in rows):
        raise errors.ParseError("embedding matrix must be square with k >= 2")

    entries = []
    for row in rows:
        parsed = []
        for x in row:
            if isinstance(x, str) and len(x) > MAX_FIELD_ENTRY_CHARS:
                raise errors.ParseError(
                    f"decimal entry {x!r:.60} has {len(x)} characters, "
                    f"above {MAX_FIELD_ENTRY_CHARS}"
                )
            # x = m * 10^e expands into an integer of about e digits, so the
            # size of an entry is read off its decimal exponent E first, with
            # 10^(E-1) <= |x| < 10^E. log2(10) > 3.3219, so neither test
            # misjudges a magnitude.
            d = _decimal_entry(x) if isinstance(x, str) else None
            e10 = d.adjusted() + 1 if d is not None and d.is_finite() and d else None
            if e10 is not None and (e10 - 1) * 33219 > (s + 64) * 10000:
                raise errors.PrecisionError(
                    f"entry {x[:40]!r} exceeds 2^{s + 64} in magnitude: "
                    f"no error bound below 1/2 holds at {s} bits"
                )
            if e10 is not None and -e10 * 33219 > (s + 64) * 10000:
                parsed.append(0)  # below 2^-(s+64): rounds to 0 at scale 2^s
                continue
            # A decimal's ratio converts no text to int, so it holds to no
            # int/str digit limit. Fraction reads p and q with int(), so in
            # library use a fraction's p and q are held to Python's limit
            # (4,300 digits by default), which `cli.run` lifts.
            try:
                num, den = (Fraction(x) if d is None else d).as_integer_ratio()
            except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
                raise errors.ParseError(f"bad decimal entry {x!r:.60}") from exc
            parsed.append(round_div(num << s, den))
        entries.append(tuple(parsed))
    entries = tuple(entries)
    err = 2 * ((max(abs(m) for row in entries for m in row) >> s) + 2) + 1

    disc = _discriminant(entries, s, err)
    if disc == 0:
        raise errors.RankDeficient("the basis is linearly dependent: its discriminant is 0")
    if spec.discriminant is not None and abs(spec.discriminant) != disc:
        raise errors.DiscriminantMismatch(
            f"the basis has discriminant {disc}, but {abs(spec.discriminant)} is stated"
        )
    return EmbeddingMatrix(
        k=k,
        entries=entries,
        err=err,
        precision_bits=s,
        discriminant=disc,
    )


def _capped(precision_bits: int) -> int:
    """precision_bits, or PrecisionExhausted when it exceeds MAX_WORK_BITS."""
    if precision_bits > MAX_WORK_BITS:
        raise errors.PrecisionExhausted(
            f"embeddings at {precision_bits} bits exceed the cap of {MAX_WORK_BITS}"
        )
    return precision_bits


# Decimal drops every underscore of its text; Fraction, which reads the
# fractions p/q, takes one only between two digits, and so do decimal entries.
_STRAY_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


def _decimal_entry(x: str) -> Decimal | None:
    """The decimal string x, read by Decimal without expanding it into an
    integer; None for a fraction p/q, which Fraction then parses or rejects.
    Any other string Decimal cannot read, such as an exponent beyond 10^18,
    or one with a stray underscore, is a ParseError."""
    try:
        d = Decimal(x)
    except InvalidOperation:
        d = None
    if d is None or "_" in x and _STRAY_UNDERSCORE.search(x):
        if "/" in x:
            return None
        raise errors.ParseError(f"bad decimal entry {x!r:.60}")
    return d


def round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, half away from zero (b > 0)."""
    q = (2 * abs(a) + b) // (2 * b)
    return q if a >= 0 else -q


def _discriminant(entries, s: int, err: int) -> int:
    """disc = det(Tr(b_i b_j)) exactly, for the basis embedded as entries[t][j]
    with |2^s * sigma_t(b_j) - entries[t][j]| <= err.

    The trace form G_ij = sum_t sigma_t(b_i) sigma_t(b_j) of an integral basis
    is an integer matrix. Summed exactly from the entries, 2^(2s) * G_ij is
    known within E = k * err * (2A + err), where A = max |entry|. With
    E < 2^(2s) / 2, G_ij is the one integer within E of its sum; no integer
    there means a non-integral basis.
    """
    k = len(entries)
    bound = k * err * (2 * max(abs(m) for row in entries for m in row) + err)
    one = 1 << (2 * s)
    if 2 * bound >= one:
        raise errors.PrecisionError(
            f"trace form error bound {decimal_digits(bound, one, 3)} is not below 1/2 at {s} bits"
        )
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            acc = sum(row[i] * row[j] for row in entries)
            g = round_div(acc, one)
            if abs(acc - g * one) > bound:
                raise errors.NotIntegral(
                    f"Tr(b_{i} b_{j}) ~ {decimal_digits(acc, one, 6)} is not an integer: "
                    "the basis is not integral"
                )
            gram[i][j] = gram[j][i] = g
    return IntLattice(tuple(map(tuple, gram))).det()


def embeddings_for(spec: FieldSpec, precision_bits: int) -> EmbeddingMatrix:
    if spec.kind == "cyclotomic":
        return cyclotomic_embeddings(spec.conductor, precision_bits)
    return explicit_embeddings(spec, precision_bits)


def eval_combination(z, emb: EmbeddingMatrix) -> list[int]:
    """Images of sum_j z_j * beta_j under every embedding, in fixed point:
    each is an int within ||z||_1 * err of 2^s times the image. Component 0
    is the value itself."""
    z = [int(c) for c in z]
    if len(z) != emb.k:
        raise ValueError(f"coefficient vector has length {len(z)}, expected {emb.k}")
    return [sum(c * m for c, m in zip(z, row)) for row in emb.entries]


def minimal_polynomial(values, s: int, e: int) -> IntPoly:
    """Monic integer polynomial prod_t (x - sigma_t) from fixed-point values:
    each v_t is an int within e of 2^s * sigma_t.

    With X = 2^s * x, prod_t (X - v_t) is exact, and its coefficient of X^j
    stands for 2^(s(k-j)) * c_j within the coefficient of X^j in
    prod_t (X + |v_t| + e) - prod_t (X + |v_t|). A bound of at least 1/2
    (in units of c_j) raises PrecisionError; no integer within it raises
    NotIntegral.
    """
    values = [int(v) for v in values]
    if not values:
        raise ValueError("need at least one conjugate")
    k = len(values)
    exact = _from_roots(values)
    low = _from_roots([-abs(v) for v in values])
    high = _from_roots([-abs(v) - e for v in values])
    out = []
    for j in range(k + 1):
        shift = s * (k - j)
        bound = high[j] - low[j]
        if 2 * bound >= 1 << shift:
            raise errors.PrecisionError(
                f"the coefficient of x^{j} has an error bound of at least 1/2 at {s} bits"
            )
        c = round_div(exact[j], 1 << shift)
        if abs(exact[j] - (c << shift)) > bound:
            raise errors.NotIntegral(f"the coefficient of x^{j} is not an integer")
        out.append(c)
    return IntPoly(tuple(out))


def _from_roots(roots) -> list[int]:
    """Ascending coefficients of prod_r (X - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def analyze_minpoly(f: IntPoly) -> MinPolyInfo:
    """Certify that f is the minimal polynomial of a Pisot number and locate
    its roots, dominant root, and the trace-path threshold.

    The first layout of `pisot_layouts(f, FIRST_LAYOUT_BITS)` whose ball of
    |alpha_2| fixes its SECOND_MODULUS_DIGITS digits and that decides n0 is
    kept; past the cap on working bits, `root_layouts` raises
    PrecisionExhausted."""
    if not f.is_monic:
        raise errors.NotMonic("analyze_minpoly requires a monic polynomial")
    if f.degree < 2:
        raise errors.NotPisot("degree must be at least 2")
    if f.coefficients[0] == 0:
        raise errors.NotPisot(f"f(0) = 0, so x divides {f}: it is not irreducible")
    # At d >= 3 an irreducible Pisot f shares no root with x^d f(1/x): that
    # makes f reciprocal, pairing each root r with 1/r, and one root outside
    # the unit disk cannot pair with d-1 >= 2 inside. A root on the unit
    # circle is shared (its conjugate is its reciprocal). Decided exactly,
    # before any root isolation, by gcd(f, x^d f(1/x)) over Z. x^2 - 3x + 1
    # is reciprocal and Pisot, so d = 2 is exempt.
    if f.degree >= 3 and share_a_root(list(reversed(f.coefficients)), list(f.coefficients)):
        raise errors.NotPisot(f"{f} shares a root with its reciprocal x^d f(1/x)")

    for prec, roots, dominant in pisot_layouts(f, FIRST_LAYOUT_BITS):
        others = [r for i, r in enumerate(roots) if i != dominant]
        # |center| + radius picks the disk of the largest upper bound on
        # |alpha_2|: every disk of a layout has one scale.
        second = max(others, key=lambda r: isqrt(r.re * r.re + r.im * r.im) + r.radius).modulus()
        if not second.fixes_digits(SECOND_MODULUS_DIGITS):
            continue
        n0 = _threshold_n0(second, f.degree)
        if n0 is not None:
            return MinPolyInfo(
                poly=f,
                roots=tuple(roots),
                dominant_index=dominant,
                second_modulus=second,
                threshold_n0=n0,
                precision_bits=prec,
            )


def pisot_layouts(f: IntPoly, precision_bits: int):
    """(prec, roots, dominant_index) of each layout of `root_layouts` with every other disk
    certified inside the unit disk; an ambiguous layout is skipped, a reason raises NotPisot."""
    for prec, roots in root_layouts(f, precision_bits):
        verdict = _certify_pisot_roots(roots)
        if verdict == "ambiguous":
            continue
        if isinstance(verdict, str):
            raise errors.NotPisot(verdict)
        yield prec, roots, verdict


def _certify_pisot_roots(roots):
    """Index of the dominant root, a NotPisot reason string, or 'ambiguous'.
    An index certifies every other disk inside the unit disk. Every test
    compares a disk's integer bounds with 1 at its scale, and each verdict
    and reason depends on the set of disks, not on their order: a conjugate
    certified outside the unit disk is named by the largest lower bound of
    a conjugate's modulus, and rules f out even when another is undecided."""
    dominant = []
    for i, r in enumerate(roots):
        if not r.is_real:
            continue
        if r.re - r.radius > 1 << r.scale:
            dominant.append(i)
        elif r.re + r.radius > 1 << r.scale:
            return "ambiguous"
    if len(dominant) > 1:
        return "more than one real root greater than 1"
    if not dominant:
        return "no real root greater than 1"
    idx = dominant[0]
    moduli = [r.modulus() for i, r in enumerate(roots) if i != idx]
    one = 1 << moduli[0].scale
    top = max(moduli, key=lambda m: m.center - m.radius)
    if top.center - top.radius >= one:
        return f"a conjugate root has modulus >= 1 (the largest is ~{top.digits(8)})"
    if any(m.center + m.radius >= one for m in moduli):
        return "ambiguous"
    return idx


def _threshold_n0(second: Ball, d: int) -> int | None:
    """Smallest n with (d-1)*|alpha_2|^n < 1/2, by certified comparison.

    The sequence decreases in n, so n is estimated from logarithms at the
    center, moved while the certified comparisons say so, and certified by
    two fixed-point powers: the upper bound of |alpha_2| to the n below 1/2,
    and the lower bound to the n-1 at least 1/2. Returns None when a
    comparison at the 1/2 boundary is not certified at the current precision
    (the caller then retries with more bits). Raises PrecisionExhausted when
    (d-1)*|alpha_2|^THRESHOLD_CAP is certified at least 1/2: n0 exceeds the
    cap, and no precision changes that.
    """
    s = second.scale
    hi, lo = second.center + second.radius, second.center - second.radius

    @functools.cache
    def side(n):
        """-1 if certified below 1/2, 1 if certified at least 1/2, else 0;
        the walks and the final check ask for some n twice, computed once."""
        if n == 0:
            return 1  # d - 1 >= 1
        u, _, e = fixed_power(hi, 0, n, s)
        if 2 * (d - 1) * (u + e) < 1 << s:
            return -1
        u, _, e = fixed_power(max(lo, 0), 0, n, s)
        return 1 if 2 * (d - 1) * (u - e) >= 1 << s else 0

    estimate = THRESHOLD_CAP
    mid = second.center / (1 << s)
    if 0 < mid < 1:
        estimate = min(estimate, math.ceil(math.log(2 * (d - 1)) / -math.log(mid)))
    n = max(1, estimate)
    while n > 1 and side(n - 1) < 0:
        n -= 1
    while n < THRESHOLD_CAP and side(n) > 0:
        n += 1
    if n == THRESHOLD_CAP and side(n) > 0:
        raise errors.PrecisionExhausted(
            f"threshold n0 > {THRESHOLD_CAP}: (d-1)*|alpha_2|^{THRESHOLD_CAP} >= 1/2 "
            f"with |alpha_2| ~ {second.digits(8)}, at any precision"
        )
    return n if side(n) < 0 and side(n - 1) > 0 else None
