"""Search for a Pisot generator of a totally real Galois field.

Builds the embedding lattice scaled by P (exact, from |det D| = sqrt(disc),
with the discriminant computed exactly: a cyclotomic field's from its
conductor, before any embedding), rounds it at scale Q, LLL-reduces
it, and reads candidate coefficient vectors off the unimodular transform.
Each candidate is certified from scratch at a precision sized from the
candidate itself. Every step works on the fixed-point integers of
`EmbeddingMatrix` and checks one error bound: the lattice rounding, value
> 1, conjugate moduli < epsilon, and the minimal polynomial's integer
coefficients.

The certificate alone makes an answer sound, whatever basis it came from,
so the search spends as little on the lattice as it can. For k from
GAUSSIAN_MIN_DEGREE to 71, P starts at `gaussian_scale_P`, where the
Gaussian heuristic expects LLL's first vector to certify; that rung runs
the float LLL pass alone. P then goes to `practical_scale_P`, the paper's
bound without LLL's worst-case factor, and rises k bits per failed
reduction up to the paper's P (`compute_scale_P`); there Q doubles, up to
SEARCH_RETRY_CAP reductions, as the paper's guarantee asks. From
`practical_scale_P` on, each reduction certifies the candidates of the
float LLL pass first, and runs the exact finisher only when none of them
certifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import errors
from .algebraic import (
    EmbeddingMatrix,
    FieldSpec,
    IntPoly,
    cyclotomic_invariants,
    embeddings_for,
    eval_combination,
    minimal_polynomial,
    round_div,
)
from .balls import Ball, decimal_digits
from .lattice import IntLattice, finish_reduce, float_reduce

DEFAULT_Q = 1 << 32
SEARCH_RETRY_CAP = 8
FLOOR_BITS = 256


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
            "value": self.value.digits(40),
            "conjugate_moduli": [m.digits(20) for m in self.conjugate_moduli],
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


def compute_scale_P(k: int, disc: int, epsilon) -> int:
    """The least integer P > (2/sqrt(3))^(k^2) * k^(k/2) * sqrt(disc) /
    epsilon^k, exactly: P = isqrt(floor(B)) + 1, where
    B = (4/3)^(k^2) * k^k * disc / epsilon^(2k) is the square of that bound.
    This is the paper's scale, the ceiling of the search's ladder."""
    return _least_above(Fraction(4, 3) ** (k * k), k, disc, epsilon)


def practical_scale_P(k: int, disc: int, epsilon) -> int:
    """The least integer P > k^(k/2) * sqrt(disc) / epsilon^k: the paper's
    bound without (2/sqrt(3))^(k^2), LLL's worst-case approximation factor,
    which LLL does far better than in practice. The first rung of the
    search's ladder."""
    return _least_above(1, k, disc, epsilon)


def _least_above(factor, k: int, disc: int, epsilon) -> int:
    """isqrt(floor(B)) + 1 for B = factor * k^k * disc / epsilon^(2k)."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if k < 2:
        raise ValueError("k must be >= 2")
    B = factor * k**k * int(disc) / eps ** (2 * k)
    return isqrt(B.numerator // B.denominator) + 1


# The Gaussian heuristic puts the first reduced vector of a k-dimensional
# lattice at sqrt(k / (2 pi e)) det^(1/k), and LLL finds one within about
# 1.02^k of that (Gama and Nguyen, "Predicting Lattice Reduction", 2008).
# GAUSSIAN_DIVISOR = 17 < 2 pi e ~ 17.08 and ROOT_HERMITE_FACTOR = 51/50
# both make P err high. The rung lies about 2.04k - 0.029k^2 bits below
# `practical_scale_P`: 11 bits at k = 6, 30 at k = 20, 36 at k = 30-40, 20
# at k = 60, 1 at k = 71, and none from k = 72 on. Fitted on the 129 inputs
# of conductors 5-61 (n != 2 mod 4) at epsilon 1, 1/2 and 1/4, best of 3
# alternating in-process runs on a 2-CPU host: from k = 6 on every rung
# certified, 99 answers shrank and none grew, and the searches took
# 0.65-0.80 of their time without the rung (3.55 s -> 2.72 s in all). At
# k = 2-5 the heuristic is poor: the rung failed on 21 of the 30 inputs and
# the searches took 1.49 times as long, so GAUSSIAN_MIN_DEGREE = 6.
GAUSSIAN_DIVISOR = 17
ROOT_HERMITE_FACTOR = Fraction(51, 50)
GAUSSIAN_MIN_DEGREE = 6


def gaussian_scale_P(k: int, disc: int, epsilon) -> int:
    """The least integer P > (51/50)^(k^2) * (k/17)^(k/2) * sqrt(disc) /
    epsilon^k: the scale at which LLL's first vector is expected to certify,
    from the Gaussian heuristic and LLL's root Hermite factor in practice.
    The search's first rung for GAUSSIAN_MIN_DEGREE <= k <= 71."""
    factor = ROOT_HERMITE_FACTOR ** (2 * k * k) / GAUSSIAN_DIVISOR**k
    return _least_above(factor, k, disc, epsilon)


def build_scaled_lattice(emb: EmbeddingMatrix, P: int, Q: int) -> IntLattice:
    """Integer lattice with columns (round(Q*beta_j), round(Q*P*sigma_i(beta_j))),
    each rounded half away from zero from the fixed-point entries. The
    largest scaled error, Q*P*err / 2^s, must stay below 1/2."""
    if P < 1 or Q < 1:
        raise ValueError("P and Q must be >= 1")
    s = emb.precision_bits
    if 2 * Q * P * emb.err >= 1 << s:
        raise errors.PrecisionError(f"scaled rounding error is not below 1/2 at {s} bits")
    columns = tuple(
        tuple(
            round_div((Q if i == 0 else Q * P) * emb.entries[i][j], 1 << s)
            for i in range(emb.k)
        )
        for j in range(emb.k)
    )
    return IntLattice(columns)


def verify_pisot(z, emb: EmbeddingMatrix, epsilon) -> PisotCandidate:
    """Certify that the integer combination z over the integral basis is an
    epsilon-Pisot generator; sign-normalizes z so the value is positive.

    Value > 1 and every other conjugate modulus < epsilon are decided on the
    fixed-point values, each within e = ||z||_1 * err. Then alpha is the one
    conjugate above 1, so prod_t (x - sigma_t(alpha)) = m_alpha^(k / deg alpha)
    is the minimal polynomial and alpha generates the field."""
    eps = Fraction(epsilon)
    z = tuple(int(c) for c in z)
    if all(c == 0 for c in z):
        raise ValueError("coefficient vector must be nonzero")
    values = eval_combination(z, emb)
    if values[0] < 0:
        z = tuple(-c for c in z)
        values = [-v for v in values]
    s = emb.precision_bits
    e = sum(abs(c) for c in z) * emb.err
    value = Ball(values[0], e, s)
    if not values[0] - e > 1 << s:
        raise errors.NotPisot(f"value {value.digits(10)} not certified > 1")
    moduli = []
    for i, v in enumerate(values[1:], start=1):
        m = Ball(abs(v), e, s)
        if not m.lt(eps):
            excess = Fraction(abs(v) + e, 1 << s) - eps
            raise errors.NotPisot(
                f"conjugate {i} has modulus ~{m.digits(8)}, "
                f"exceeding epsilon={format_fraction(eps)} by "
                f"{decimal_digits(excess.numerator, excess.denominator, 3)}"
            )
        moduli.append(m)
    return PisotCandidate(
        coefficients=z,
        value=value,
        conjugate_moduli=tuple(moduli),
        minpoly=minimal_polynomial(values, s, e),
        epsilon_certified=eps,
        conductor=emb.conductor,
    )


def floor_bits(spec: FieldSpec) -> int:
    """The least precision of a search or a verification: FLOOR_BITS, or an
    explicit field's stated precision when that is lower."""
    if spec.stated_precision_bits is None:
        return FLOOR_BITS
    return min(FLOOR_BITS, spec.stated_precision_bits)


def verify_precision(z, spec: FieldSpec) -> int:
    """Precision that certifies candidate z: at least `floor_bits(spec)`,
    and 2*bits(||z||_1) + 2k + 32 (capped at an explicit field's stated
    precision). The conjugates lose bits(||z||_1) bits to
    cancellation, and the error bound of the minpoly's coefficients grows
    like ||z||_1^2 * 2^k, which must stay below 1/2 for them to round to
    integers. Above MAX_WORK_BITS the embeddings refuse it."""
    need = 2 * sum(abs(int(c)) for c in z).bit_length() + 2 * len(z) + 32
    if spec.stated_precision_bits is not None:
        need = min(need, spec.stated_precision_bits)
    return max(floor_bits(spec), need)


def find_pisot(spec: FieldSpec, epsilon=1) -> PisotCandidate:
    """Algorithm: scale, round, LLL-reduce, then certify candidate vectors
    taken from the transform columns (first reduced vector first), at each
    (P, Q) of `_scales` in turn. In each reduction the float pass's
    candidates are tried first; if none certifies and P is at least
    `practical_scale_P`, the exact finisher runs from the float basis and
    transform, and those of its candidates not tried yet follow; the
    Gaussian rung below it runs the float pass alone. Every precision
    derives from the field and the candidate: at least `floor_bits`,
    bits(P) + bits(Q) + 64 for the lattice, then `verify_precision`, on the
    search's matrix when it is at that precision, so a small field is
    embedded once. A cyclotomic field's k and discriminant come from its
    conductor, so its first matrix is built at the lattice's precision; an
    explicit field's come from its matrix at `floor_bits`. A candidate whose
    precision exceeds the cap is skipped like one that fails certification.
    SearchFailed summarises the whole search. Every certified conjugate
    other than the value lies below epsilon, a rational in (0, 1]; any other
    epsilon is a ValueError, raised before any embedding is built."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    floor = floor_bits(spec)
    if spec.kind == "cyclotomic":
        emb, (k, disc) = None, cyclotomic_invariants(spec.conductor)
    else:
        emb = embeddings_for(spec, floor)
        k, disc = emb.k, emb.discriminant
    start = practical_scale_P(k, disc, eps)
    rungs = _scales(k, gaussian_scale_P(k, disc, eps), start, compute_scale_P(k, disc, eps))
    verdicts: Counter[str] = Counter()
    scales, finished, last_failure = [], 0, None

    def certify_first(transform, tried):
        nonlocal last_failure
        for z in transform:
            if z in tried:
                continue
            try:
                prec = verify_precision(z, spec)
                emb_z = emb if prec == emb.precision_bits else embeddings_for(spec, prec)
                return verify_pisot(z, emb_z, eps)
            except (errors.NotPisot, errors.PrecisionError, errors.PrecisionExhausted) as exc:
                verdicts[type(exc).__name__] += 1
                last_failure = exc
        return None

    for P, Q in rungs:
        scales.append((P.bit_length(), Q.bit_length()))
        need = max(floor, P.bit_length() + Q.bit_length() + 64)
        if emb is None or emb.precision_bits < need:
            emb = embeddings_for(spec, need)
        result = float_reduce(build_scaled_lattice(emb, P, Q))
        cand = certify_first(result.transform, ())
        if cand is None and P >= start:
            finished += 1
            cand = certify_first(finish_reduce(result).transform, set(result.transform))
        if cand is not None:
            return cand
    p_bits, q_bits = zip(*scales)
    tally = ", ".join(f"{name} {n}" for name, n in sorted(verdicts.items())) or "none"
    raise errors.SearchFailed(
        f"no candidate certified in {len(scales)} reductions (P of "
        f"{min(p_bits)}-{max(p_bits)} bits, Q of {min(q_bits)}-{max(q_bits)} bits; "
        f"the exact finisher ran in {finished} of them); verdicts: {tally}; "
        f"last failure: {last_failure}"
    )


def _scales(k: int, gaussian: int, start: int, ceiling: int):
    """(P, Q) of each reduction of a search: one reduction at P = gaussian
    when k >= GAUSSIAN_MIN_DEGREE and gaussian < start; one at each P of the
    ladder start, start * 2^k, ... below the ceiling, with Q = DEFAULT_Q;
    then SEARCH_RETRY_CAP reductions at P = ceiling, Q doubling from
    DEFAULT_Q. A P too small costs one reduction, not SEARCH_RETRY_CAP."""
    if k >= GAUSSIAN_MIN_DEGREE and gaussian < start:
        yield gaussian, DEFAULT_Q
    P = start
    while P < ceiling:
        yield P, DEFAULT_Q
        P <<= k
    for i in range(SEARCH_RETRY_CAP):
        yield ceiling, DEFAULT_Q << i


def minkowski_bound(k: int, disc_abs: int, delta) -> Ball:
    """Upper bound sqrt(|disc|) / delta^(k-1) on the minimal Pisot generator;
    diagnostic only, not used by the search."""
    d = Fraction(delta)
    if not 0 < d < 1:
        raise ValueError("delta must lie in (0, 1)")
    # The bound is at least 1, so 144 fractional bits keep 144 significant
    # ones; the floor of its square root is within one unit of it. The bound
    # is sqrt(|disc|) * num / den with num / den = 1 / delta^(k-1).
    s = 144
    num, den = d.denominator ** (k - 1), d.numerator ** (k - 1)
    return Ball(isqrt((abs(int(disc_abs)) * num * num << (2 * s)) // (den * den)), 1, s)
