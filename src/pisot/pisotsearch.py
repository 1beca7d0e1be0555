"""Search for a Pisot generator of a totally real Galois field.

Builds the embedding lattice scaled by P (chosen from |det D| = sqrt(disc),
with the discriminant computed exactly), rounds it at scale Q, LLL-reduces
it, and reads candidate coefficient vectors off the unimodular transform.
Each candidate is certified from scratch in ball arithmetic at a precision
sized from the candidate itself. If no candidate of a reduction certifies,
Q doubles; that is the only retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

import mpmath

from . import errors
from .algebraic import (
    EmbeddingMatrix,
    FieldSpec,
    IntPoly,
    embeddings_for,
    eval_combination,
    minimal_polynomial,
)
from .balls import Ball, mpf_to_fraction
from .lattice import IntLattice, lll_reduce

DEFAULT_Q = 1 << 32
SEARCH_RETRY_CAP = 8


@dataclass(frozen=True)
class SearchParams:
    epsilon: Fraction = field(default_factory=lambda: Fraction(1))
    precision_bits: int = 256

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        if not 0 < eps <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class ScaledLatticeBasis:
    P: int
    Q: int
    lattice: IntLattice


@dataclass(frozen=True)
class PisotCandidate:
    coefficients: tuple[int, ...]
    value: Ball
    conjugate_moduli: tuple[Ball, ...]
    minpoly: IntPoly
    epsilon_certified: Fraction
    conductor: int | None = None

    def to_json(self) -> dict:
        obj = {
            "coefficients": [str(c) for c in self.coefficients],
            "value": mpmath.nstr(self.value.mid, 40),
            "conjugate_moduli": [mpmath.nstr(m.mid, 20) for m in self.conjugate_moduli],
            "minpoly": [str(c) for c in self.minpoly.coefficients],
            "epsilon": format_fraction(self.epsilon_certified),
        }
        if self.conductor is not None:
            obj["conductor"] = self.conductor
        return obj


def format_fraction(q: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a 5^b, else 'p/q'."""
    den = q.denominator
    a = b = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    shift = max(a, b)
    scaled = q.numerator * 10**shift // q.denominator
    if shift == 0:
        return str(scaled)
    s = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{s[:-shift]}.{s[-shift:]}"


def compute_scale_P(k: int, det_abs, epsilon) -> int:
    """An integer strictly greater than (2/sqrt(3))^(k^2) * k^(k/2) * |det D|
    / epsilon^k: one more than the floor of its certified upper bound. Any
    integer above the bound is a valid scale, so no precision is retried."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not isinstance(det_abs, Ball):
        det_abs = Ball.from_str(str(det_abs), 128)
    prec = max(128, det_abs.prec)
    factor = (Ball.from_int(4, prec) / Ball.from_int(3, prec)).sqrt().pow_int(k * k)
    factor = factor * Ball.from_int(k, prec).sqrt().pow_int(k) * det_abs
    factor = factor * Ball.from_fraction(1 / eps**k, prec)
    return floor(mpf_to_fraction(factor.upper())) + 1


def build_scaled_lattice(emb: EmbeddingMatrix, P: int, Q: int) -> ScaledLatticeBasis:
    """Integer lattice with columns (round(Q*beta_j), round(Q*P*sigma_i(beta_j)))."""
    if P < 1 or Q < 1:
        raise ValueError("P and Q must be >= 1")
    prec = emb.precision_bits
    half = Fraction(1, 2)
    q_ball = Ball.from_int(Q, prec)
    qp_ball = Ball.from_int(Q * P, prec)
    columns = []
    for j in range(emb.k):
        col = []
        for i in range(emb.k):
            scaled = emb.entries[i][j] * (q_ball if i == 0 else qp_ball)
            if not mpf_to_fraction(scaled.rad) < half:
                raise errors.PrecisionError(
                    f"entry ({i}, {j}) has rounding radius >= 1/2 at {prec} bits"
                )
            col.append(scaled.nearest_int())
        columns.append(tuple(col))
    return ScaledLatticeBasis(P=P, Q=Q, lattice=IntLattice(tuple(columns)))


def verify_pisot(z, emb: EmbeddingMatrix, epsilon) -> PisotCandidate:
    """Certify that the integer combination z over the integral basis is an
    epsilon-Pisot generator; sign-normalizes z so the value is positive."""
    eps = Fraction(epsilon)
    z = tuple(int(c) for c in z)
    if all(c == 0 for c in z):
        raise ValueError("coefficient vector must be nonzero")
    values = eval_combination(z, emb)
    if values[0].mid < 0:
        z = tuple(-c for c in z)
        values = [-v for v in values]
    value = values[0]
    if not value.gt(1):
        raise errors.NotPisot(
            f"value {mpmath.nstr(value.mid, 10)} not certified > 1"
        )
    moduli = []
    for i, v in enumerate(values[1:], start=1):
        m = abs(v)
        if not m.lt(eps):
            excess = mpf_to_fraction(m.upper()) - eps
            raise errors.NotPisot(
                f"conjugate {i} has modulus ~{mpmath.nstr(m.mid, 8)}, "
                f"exceeding epsilon={format_fraction(eps)} by {float(excess):.3g}"
            )
        moduli.append(m)
    try:
        mp_poly = minimal_polynomial(values)
    except errors.DuplicateConjugates as exc:
        raise errors.NotPrimitive(
            "conjugates are not distinct; the candidate does not generate the field"
        ) from exc
    if mp_poly.degree != emb.k:
        raise errors.NotPrimitive(
            f"minimal polynomial has degree {mp_poly.degree}, expected {emb.k}"
        )
    return PisotCandidate(
        coefficients=z,
        value=value,
        conjugate_moduli=tuple(moduli),
        minpoly=mp_poly,
        epsilon_certified=eps,
        conductor=emb.conductor,
    )


def verify_precision(z, spec: FieldSpec, precision_bits: int) -> int:
    """Precision that certifies candidate z: at least `precision_bits`, and
    2*bits(||z||_1) + 2k + 32 (capped at an explicit field's stated precision).
    The conjugates lose bits(||z||_1) bits to cancellation, and the minpoly's
    coefficients grow like ||z||_1 * 2^k, so its 1/4-rounding needs twice that."""
    need = 2 * sum(abs(int(c)) for c in z).bit_length() + 2 * len(z) + 32
    if spec.stated_precision_bits is not None:
        need = min(need, spec.stated_precision_bits)
    return max(precision_bits, need)


def find_pisot(spec: FieldSpec, params: SearchParams | None = None) -> PisotCandidate:
    """Algorithm: scale, round, LLL-reduce, then certify candidate vectors
    taken from the transform columns (first reduced vector first)."""
    params = params or SearchParams()
    eps = params.epsilon
    emb = embeddings_for(spec, params.precision_bits)
    P = compute_scale_P(emb.k, emb.det_abs, eps)
    Q = DEFAULT_Q
    last_failure = None
    for _ in range(SEARCH_RETRY_CAP):
        need = P.bit_length() + Q.bit_length() + 64
        if emb.precision_bits < need:
            emb = embeddings_for(spec, max(params.precision_bits, need))
        result = lll_reduce(build_scaled_lattice(emb, P, Q).lattice)
        for z in result.transform:
            prec = verify_precision(z, spec, params.precision_bits)
            try:
                return verify_pisot(z, embeddings_for(spec, prec), eps)
            except (errors.NotPisot, errors.NotPrimitive, errors.AmbiguousRounding) as exc:
                last_failure = exc
        Q <<= 1
    raise errors.SearchFailed(f"retry cap exhausted; last failure: {last_failure}")


def minkowski_bound(k: int, disc_abs: int, delta) -> Ball:
    """Upper bound sqrt(|disc|) / delta^(k-1) on the minimal Pisot generator;
    diagnostic only, not used by the search."""
    d = Fraction(delta)
    if not 0 < d < 1:
        raise ValueError("delta must lie in (0, 1)")
    prec = 128
    return Ball.from_int(abs(int(disc_abs)), prec).sqrt() * Ball.from_fraction(
        1 / d ** (k - 1), prec
    )
