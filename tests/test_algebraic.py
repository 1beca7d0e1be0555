"""Embeddings, certified roots, minimal polynomials, thresholds."""

import collections
import dataclasses
import itertools
import json
import math
import random
import time
import types
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mp, mpf

from pisot import algebraic, errors, limits
from pisot import roots as isolation
from pisot.algebraic import (
    FieldSpec,
    IntPoly,
    analyze_minpoly,
    cyclotomic_embeddings,
    embeddings_for,
    explicit_embeddings,
    eval_combination,
    minimal_polynomial,
)
from pisot.balls import GUARD_BITS
from pisot.cli import main
from pisot.roots import MAX_WORK_BITS, root_layouts, work_bits

from conftest import pisot_shaped
from oracles import (
    int_str_limit,
    mid,
    mpf_to_fraction,
    polyroots_oracle,
    rad,
    real_roots_oracle,
    scanned_threshold,
)

GOLDEN = IntPoly((-1, -1, 1))  # x^2 - x - 1
PLASTIC = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1


def _mid(b):
    return float(mid(b))


def _real(emb, m):
    """The real number a fixed-point entry or value of emb stands for."""
    return m / 2**emb.precision_bits


class TestIntPoly:
    def test_degree_and_monic(self):
        assert GOLDEN.degree == 2 and GOLDEN.is_monic
        assert not IntPoly((1, 2)).is_monic or IntPoly((1, 1)).is_monic

    def test_str(self):
        assert str(GOLDEN) == "x^2 - x - 1"
        assert str(IntPoly((0, -3, 0, 1))) == "x^3 - 3x"
        assert str(IntPoly((5, 1))) == "x + 5"

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            IntPoly((7,))
        with pytest.raises(ValueError):
            IntPoly((1, 0))


class TestFieldSpec:
    # A field file's JSON reads back as the spec it describes.
    def test_cyclotomic_roundtrip(self):
        spec = FieldSpec(kind="cyclotomic", conductor=15)
        assert FieldSpec.from_json({"kind": "cyclotomic", "conductor": 15}) == spec

    def test_explicit_roundtrip(self, tmp_path):
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", "1.5"), ("1", "-1.5")),
            stated_precision_bits=64,
            discriminant=9,
        )
        path = tmp_path / "field.json"
        path.write_text(json.dumps({
            "kind": "explicit",
            "basis_labels": ["1", "r"],  # checked to be a list, not kept
            "embedding_rows": [["1", "1.5"], ["1", "-1.5"]],
            "precision_bits": 64,
            "discriminant": "9",
        }), encoding="ascii")
        assert FieldSpec.from_file(path) == spec

    def test_unknown_kind(self):
        with pytest.raises(errors.ParseError):
            FieldSpec.from_json({"kind": "mystery"})


class TestCyclotomicEmbeddings:
    def test_conductor_15_shape_and_disc(self):
        emb = cyclotomic_embeddings(15, 256)
        assert emb.k == 4
        assert emb.discriminant == 1125
        row0 = [_real(emb, m) for m in emb.entries[0]]
        assert row0 == pytest.approx(
            [1.82709, 1.33826, -0.20906, -1.95630], abs=1e-5
        )

    def test_conductor_17_prime_disc_verified(self):
        emb = cyclotomic_embeddings(17, 256)
        assert emb.k == 8
        assert emb.discriminant == 17**7

    def test_conductor_5(self):
        emb = cyclotomic_embeddings(5, 128)
        assert emb.k == 2
        assert emb.discriminant == 5

    def test_conductor_41_exact_discriminant(self):
        # p^((p-3)/2) for a prime conductor p: 4394336169668803158610484050361
        assert cyclotomic_embeddings(41, 256).discriminant == 41**19

    @pytest.mark.parametrize("n, disc", [(9, 81), (12, 12), (16, 2048)])
    def test_power_basis_for_non_squarefree(self, n, disc):
        # The cosine basis is dependent here; {1, 2cos(2 pi j/n)} replaces it.
        emb = cyclotomic_embeddings(n, 128)
        assert emb.discriminant == disc
        assert all(row[0] == 1 << emb.precision_bits for row in emb.entries)
        assert _real(emb, emb.entries[0][1]) == pytest.approx(2 * mpmath.cos(2 * mpmath.pi / n))

    def test_rejects_2_mod_4(self):
        with pytest.raises(errors.UnsupportedConductor):
            cyclotomic_embeddings(6, 128)

    def test_rejects_degree_1(self):
        with pytest.raises(errors.UnsupportedConductor):
            cyclotomic_embeddings(4, 128)

    def test_eval_combination_known_vector(self):
        emb = cyclotomic_embeddings(15, 256)
        vals = eval_combination((2105, 1215, 1440, 139), emb)
        assert all(isinstance(v, int) for v in vals)
        assert _real(emb, vals[0]) == pytest.approx(4899.0467, abs=1e-3)
        moduli = sorted(abs(_real(emb, v)) for v in vals[1:])
        assert moduli == pytest.approx(
            sorted([0.063765, 0.065726, 0.048703]), abs=1e-5
        )


def _prime_divisors(m):
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + ([m] if m > 1 else [])


def _real_cyclotomic_fields(limit):
    """(n, m, k) for each conductor n < limit: m is n/2 for n = 2 mod 4, else
    n, and k = phi(m)/2 is the degree of the real subfield of Q(zeta_m)."""
    out = []
    for n in range(3, limit):
        m = phi = n // 2 if n % 4 == 2 else n
        for p in _prime_divisors(m):
            phi -= phi // p
        out.append((n, m, phi // 2))
    return out


# Every fourth of the 289 conductors below 2000 with 2 <= k <= 75.
BASIS_CONDUCTORS = [c for c in _real_cyclotomic_fields(2000) if 2 <= c[2] <= 75][::4]


@pytest.mark.parametrize("n, m, k", BASIS_CONDUCTORS, ids=lambda c: str(c))
def test_basis_is_chosen_by_squarefreeness(n, m, k):
    emb = cyclotomic_embeddings(n, 64)
    assert (emb.k, emb.conductor) == (k, m)
    assert emb.discriminant != 0
    primes = _prime_divisors(m)
    squarefree = all(m % (p * p) for p in primes)
    # The power basis is {1, 2cos(2 pi j/m)}: its first column is 1 at scale 2^s.
    assert all(row[0] == 1 << 64 for row in emb.entries) == (not squarefree)
    if squarefree:
        # The cosine basis sums to mu(m) = (-1)^(number of primes).
        assert abs(sum(emb.entries[0]) - (-1) ** len(primes) * (1 << 64)) <= k


@pytest.mark.parametrize("n", [n for n in range(5, 201) if n != 6])
def test_discriminant_from_the_conductor_matches_the_embedded_trace_form(n):
    # Ramanujan sums give the trace form from n alone; the embeddings' own
    # trace form, rounded and checked against its error bound, must agree.
    # Both bases occur, and n = 2 mod 4 names the field of n/2.
    emb = cyclotomic_embeddings(n, 64)
    assert algebraic.cyclotomic_invariants(n) == (emb.k, emb.discriminant)
    assert emb.discriminant == algebraic._discriminant(emb.entries, 64, 1)


def test_cyclotomic_embeddings_build_once(monkeypatch):
    # 25 is not squarefree: the power basis is taken at once, with one set of
    # cosines and one discriminant, and no dependent cosine basis first. The
    # discriminant comes from the conductor, not from the embedded trace form.
    calls = {"_two_cosines": 0, "cyclotomic_invariants": 0, "_discriminant": 0}
    for name in calls:
        real = getattr(algebraic, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(algebraic, name, counted)
    emb = cyclotomic_embeddings(25, 64)
    assert calls == {"_two_cosines": 1, "cyclotomic_invariants": 1, "_discriminant": 0}
    assert emb.k == 10 and emb.discriminant != 0


class TestExplicitEmbeddings:
    @staticmethod
    def _sqrt2_spec(disc=8, stated=190):
        with mp.workprec(220):
            s = mpmath.nstr(mpmath.sqrt(2), 60)
        return FieldSpec(
            kind="explicit",
            embedding_rows=(("1", s), ("1", "-" + s)),
            stated_precision_bits=stated,
            discriminant=disc,
        )

    def test_accepts_consistent_discriminant(self):
        emb = explicit_embeddings(self._sqrt2_spec(), 128)
        assert emb.k == 2
        assert emb.discriminant == 8

    def test_rejects_wrong_discriminant(self):
        with pytest.raises(errors.DiscriminantMismatch):
            explicit_embeddings(self._sqrt2_spec(disc=12), 128)

    def test_rejects_overclaimed_precision(self):
        with pytest.raises(errors.PrecisionError):
            explicit_embeddings(self._sqrt2_spec(stated=64), 128)

    def test_rejects_non_integral_basis(self):
        # {1, (1+sqrt2)/2}: Tr(b_1^2) = 3/2
        with mp.workprec(220):
            r = (1 + mpmath.sqrt(2)) / 2
            rows = (("1", mpmath.nstr(r, 60)), ("1", mpmath.nstr(1 - r, 60)))
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=rows,
            stated_precision_bits=190,
        )
        with pytest.raises(errors.NotIntegral):
            explicit_embeddings(spec, 128)

    @pytest.mark.parametrize("entry", ["inf", "nan", "1.5x"])
    def test_rejects_bad_entry(self, entry):
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", entry), ("1", "-1.5")),
            stated_precision_bits=64,
        )
        with pytest.raises(errors.ParseError):
            explicit_embeddings(spec, 32)

    def test_an_entry_at_the_character_cap_is_read_at_the_working_cap(self):
        # sqrt(2) to 9,998 places is good to about 2^-33212, past what
        # MAX_WORK_BITS can use; its text fills the cap exactly. Only
        # building its digits needs Python's int-to-str limit lifted: the
        # entry is read under the default limit of 4,300 digits.
        cap = limits.MAX_FIELD_ENTRY_CHARS
        with int_str_limit(0):
            digits = str(math.isqrt(2 * 10 ** (2 * (cap - 2))))
        root = digits[0] + "." + digits[1:]
        rows = (("1", root), ("1", "-" + root[:-1]))
        assert max(len(x) for row in rows for x in row) == cap
        spec = FieldSpec(kind="explicit", embedding_rows=rows, stated_precision_bits=MAX_WORK_BITS)
        with int_str_limit(4300):
            emb = explicit_embeddings(spec, MAX_WORK_BITS)
        assert emb.discriminant == 8 and emb.precision_bits == MAX_WORK_BITS

    def test_a_fraction_entry_is_held_to_the_int_str_limit(self):
        # A p/q entry is read by Fraction, whose int() of p and q keeps
        # Python's digit limit; `cli.run` lifts it.
        q = "1" + "0" * 4300
        spec = FieldSpec(kind="explicit", embedding_rows=(("1", f"{q}/{q}"), ("1", "-1")),
                         stated_precision_bits=64)
        with int_str_limit(4300), pytest.raises(errors.ParseError, match="bad decimal entry"):
            explicit_embeddings(spec, 32)
        with int_str_limit(0):
            assert explicit_embeddings(spec, 32).discriminant == 4

    def test_an_underscore_only_between_digits(self):
        # Decimal would drop any underscore; the entries take Fraction's rule.
        for x, ok in (("1_0.0", True), ("1.0_0e0_1", True), ("_10.0", False),
                      ("1__0.0", False), ("1_.0", False), ("10.0_", False)):
            spec = FieldSpec(kind="explicit", embedding_rows=(("1", x), ("1", "-" + x)),
                             stated_precision_bits=64)
            if ok:
                assert explicit_embeddings(spec, 32).discriminant > 0, x
            else:
                with pytest.raises(errors.ParseError, match="bad decimal entry"):
                    explicit_embeddings(spec, 32)

    def test_an_entry_past_the_character_cap_is_refused_unread(self, monkeypatch):
        # The entry comes first, so nothing is read before it is refused.
        cap = limits.MAX_FIELD_ENTRY_CHARS
        monkeypatch.setattr(algebraic, "Fraction", None)
        monkeypatch.setattr(algebraic, "Decimal", None)
        spec = FieldSpec(kind="explicit", embedding_rows=(("1." + "4" * (cap - 1), "1"), ("-1.5", "1")),
                         stated_precision_bits=64)
        with pytest.raises(errors.ParseError, match=f"{cap + 1} characters, above {cap}"):
            explicit_embeddings(spec, 32)

    def test_rejects_rank_deficient(self):
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", "2"), ("1", "2")),
            stated_precision_bits=256,
            discriminant=None,
        )
        with pytest.raises(errors.RankDeficient):
            explicit_embeddings(spec, 128)


def _cosine_rows(n, prec):
    """sigma_t(2cos(2 pi a/n)) on the cosine basis, at prec bits."""
    reps = [a for a in range(1, n // 2 + 1) if gcd(a, n) == 1]
    with mp.workprec(prec):
        return [[2 * mpmath.cospi(mpmath.mpf(2 * (t * a % n)) / n) for a in reps] for t in reps]


@pytest.mark.parametrize("field", ["15", "17", "29", "explicit-15"])
def test_eval_combination_within_error_bound(field):
    # Every value is within ||z||_1 * err of 2^s times the image, checked
    # against the embedding computed at four times the precision.
    s = 256
    n = int(field.split("-")[-1])
    if field.isdigit():
        spec = FieldSpec(kind="cyclotomic", conductor=n)
    else:
        with mp.workprec(1100):
            rows = tuple(tuple(mpmath.nstr(x, 320) for x in row) for row in _cosine_rows(n, 1100))
        spec = FieldSpec(kind="explicit", embedding_rows=rows, stated_precision_bits=1024)
    emb = embeddings_for(spec, s)
    reference = _cosine_rows(n, 4 * s)
    rng = random.Random(n)
    for _ in range(20):
        z = [rng.randint(-(1 << 64), 1 << 64) for _ in range(emb.k)]
        bound = sum(map(abs, z)) * emb.err
        with mp.workprec(4 * s):
            for v, row in zip(eval_combination(z, emb), reference):
                image = mpmath.fsum(c * x for c, x in zip(z, row)) * 2**s
                assert abs(v - image) <= bound


class TestPolyRoots:
    def test_golden_roots(self):
        roots = next(root_layouts(GOLDEN, 128))[1]
        assert len(roots) == 2
        assert all(r.is_real for r in roots)
        vals = sorted(float(mid(r).real) for r in roots)
        phi = (1 + 5**0.5) / 2
        assert vals == pytest.approx([1 - phi, phi], abs=1e-12)

    def test_plastic_root_classification(self):
        roots = next(root_layouts(PLASTIC, 128))[1]
        reals = [r for r in roots if r.is_real]
        assert len(reals) == 1
        assert float(mid(reals[0]).real) == pytest.approx(1.3247179572, abs=1e-9)
        complexes = [r for r in roots if not r.is_real]
        assert len(complexes) == 2
        assert float(mid(complexes[0].modulus())) == pytest.approx(0.8688369, abs=1e-6)

    def test_radii_are_tight(self):
        for r in next(root_layouts(PLASTIC, 128))[1]:
            assert mpf_to_fraction(rad(r)) < Fraction(1, 2**120)

    def test_repeated_root_exhausts(self):
        # No precision separates a repeated root, so it is refused exactly,
        # as a NotSquarefree that no handler of PrecisionExhausted catches.
        square = IntPoly((1, -2, 1))  # (x-1)^2
        with pytest.raises(errors.NotSquarefree):
            next(root_layouts(square, 64))[1]
        assert not issubclass(errors.NotSquarefree, errors.PrecisionExhausted)


QUARTIC = IntPoly((1, 21, -229, -4899, 1))
# x^12 - 2(2^10 x - 1)^2: two real roots about 2^-70 apart near 2^-10, which
# floats do not separate.
MIGNOTTE = IntPoly((-2, 2**12, -(2**21)) + (0,) * 9 + (1,))
# (x - N)(x^2 - x - 1) with N = 10^401 + 7: coefficients beyond the float range.
BIG = 10**401 + 7
WIDE = IntPoly((BIG, BIG - 1, -(BIG + 1), 1))


def _assert_isolated(f, roots, bits):
    """Each root of f from the oracle at `bits` bits lies in exactly one
    certified disk, no disk holds two, and a disk is flagged real exactly
    when its root is real."""
    assert len(roots) == f.degree
    hits = []
    with mp.workprec(bits):
        for z in polyroots_oracle(f, bits):
            inside = [i for i, r in enumerate(roots) if abs(z - mid(r)) <= rad(r)]
            assert len(inside) == 1, f"{mpmath.nstr(z, 20)} lies in {len(inside)} disks"
            assert roots[inside[0]].is_real == (abs(mpmath.im(z)) < mpf(2) ** (-bits // 2))
            hits += inside
    assert sorted(hits) == list(range(f.degree))


def _random_pisot_shaped(count, seed=2024):
    rng = random.Random(seed)
    return [pisot_shaped(rng.randint(2, 12), rng) for _ in range(count)]


class TestSoundDisks:
    def test_quartic_fixture_at_64_bits(self):
        _assert_isolated(QUARTIC, next(root_layouts(QUARTIC, 64))[1], 2000)

    def test_random_pisot_shaped(self):
        for f in _random_pisot_shaped(50):
            _assert_isolated(f, next(root_layouts(f, 64))[1], 2000)


KNACCI = {f"{k}-nacci": IntPoly((-1,) * k + (1,)) for k in range(2, 31)}
RANDOM_PISOT = {f"random-{i}": f for i, f in enumerate(_random_pisot_shaped(50))}


@pytest.mark.parametrize("f", [*KNACCI.values(), *RANDOM_PISOT.values()], ids=[*KNACCI, *RANDOM_PISOT])
def test_modulus_bounds_hold_the_oracle_modulus(f):
    # modulus() rounds |center| down by isqrt; its interval must still hold
    # the modulus of the root that the 2000-bit oracle puts in the disk.
    roots = next(root_layouts(f, 128))[1]
    with mp.workprec(2000):
        for z in polyroots_oracle(f, 2000):
            (root,) = [r for r in roots if abs(z - mid(r)) <= rad(r)]
            m = root.modulus()
            assert m.center - m.radius <= mpf_to_fraction(abs(z)) * 2**m.scale <= m.center + m.radius


@pytest.mark.parametrize("k", range(2, 31))
def test_knacci_roots_match_oracle(k):
    f = IntPoly((-1,) * k + (1,))
    _assert_isolated(f, next(root_layouts(f, 128))[1], 256)


def test_close_roots_take_the_precision_path(monkeypatch):
    rounds = []
    certify = isolation._certified_roots

    def counted(f, zs, real, w, prec):
        rounds.append(w)
        return certify(f, zs, real, w, prec)

    monkeypatch.setattr(isolation, "_certified_roots", counted)
    roots = next(root_layouts(MIGNOTTE, 64))[1]
    assert len(rounds) > 1
    _assert_isolated(MIGNOTTE, roots, 2000)


def test_clustered_roots_take_two_rounds(monkeypatch):
    # w doubles before Aberth runs again, so Aberth resolves the pair 2^-70
    # apart at the precision that certifies it: 112, then 224 working bits.
    rounds = []
    certify = isolation._certified_roots

    def counted(f, zs, real, w, prec):
        rounds.append(w)
        return certify(f, zs, real, w, prec)

    monkeypatch.setattr(isolation, "_certified_roots", counted)
    next(root_layouts(MIGNOTTE, 64))[1]
    assert rounds == [work_bits(64), 2 * work_bits(64)]


def test_coefficients_beyond_floats_take_the_fixed_point_start_path(monkeypatch):
    # WIDE's coefficients overflow floats: no float start comes back, and
    # Aberth runs on fixed-point starts from the Newton-polygon circles.
    floats, circles = [], []
    float_starts, circle_starts = isolation._float_starts, isolation._circle_starts

    def recorded_floats(f_desc, signs):
        floats.append(float_starts(f_desc, signs))
        return floats[-1]

    def recorded_circles(f_desc, signs, p):
        circles.append(p)
        return circle_starts(f_desc, signs, p)

    monkeypatch.setattr(isolation, "_float_starts", recorded_floats)
    monkeypatch.setattr(isolation, "_circle_starts", recorded_circles)
    roots = next(root_layouts(WIDE, 128))[1]
    assert floats == [None] and circles == [53]
    _assert_isolated(WIDE, roots, 2000)


def _recorded_classifications(monkeypatch):
    # The d midpoints, their radii and w of each certified layout, in call
    # order, read from the disks that `_certified_roots` returns.
    seen = []
    certify = isolation._certified_roots

    def recorded(f, zs, real, w, prec):
        roots = certify(f, zs, real, w, prec)
        if roots is not None:
            seen.append(([(r.re >> GUARD_BITS, r.im >> GUARD_BITS) for r in roots],
                         [r.radius for r in roots], w))
        return roots

    monkeypatch.setattr(isolation, "_certified_roots", recorded)
    return seen


def _assert_radii_cover_the_weierstrass_bound(f, zs, radii, w):
    # In exact rationals: radius^2 >= d^2 |f(x_i)|^2 / |lead prod (x_i - x_j)|^2.
    xs = [(Fraction(a, 2**w), Fraction(b, 2**w)) for a, b in zs]
    d, lead = f.degree, f.coefficients[-1]
    for i, (a, b) in enumerate(xs):
        fr, fi = Fraction(lead), Fraction(0)
        for c in reversed(f.coefficients[:-1]):
            fr, fi = fr * a - fi * b + c, fr * b + fi * a
        denom = Fraction(lead * lead)
        for j, (u, v) in enumerate(xs):
            if j != i:
                denom *= (a - u) ** 2 + (b - v) ** 2
        radius = Fraction(radii[i], 2 ** (w + GUARD_BITS))
        assert radius**2 * denom >= d * d * (fr * fr + fi * fi)


def test_each_radius_covers_the_exact_weierstrass_bound(monkeypatch):
    seen = _recorded_classifications(monkeypatch)
    rng = random.Random(5)
    for f in [QUARTIC] + [pisot_shaped(rng.randint(2, 12), rng) for _ in range(10)]:
        seen.clear()
        next(root_layouts(f, 64))[1]
        _assert_radii_cover_the_weierstrass_bound(f, *seen[-1])


@pytest.mark.parametrize("shift", [1, 1 << 12])
def test_an_asymmetric_layout_gets_a_radius_per_midpoint(monkeypatch, shift):
    # A certified layout with its first stored pair midpoint moved: its
    # mirror moves with it, and every radius, the mirrors' included, still
    # covers the exact bound at its own midpoint.
    seen = _recorded_classifications(monkeypatch)
    rng = random.Random(6)
    moved = 0
    for f in [QUARTIC, PLASTIC] + [pisot_shaped(rng.randint(4, 12), rng) for _ in range(6)]:
        seen.clear()
        roots = next(root_layouts(f, 64))[1]
        zs, _, w = seen[-1]
        real = sum(r.is_real for r in roots)
        pairs = (f.degree - real) // 2
        if not pairs:
            continue
        moved += 1
        stored = zs[: real + pairs]
        a, b = stored[real]
        stored[real] = (a, b - shift)
        seen.clear()
        assert isolation._certified_roots(f, stored, real, w, 16) is not None
        assert seen[-1][0][real + pairs] == (a, shift - b)
        _assert_radii_cover_the_weierstrass_bound(f, *seen[-1])
    assert moved >= 6


# (x^2 - 2^62 x + 2^122 + 1)(x - 3): the pair 2^61 +- i lies closer to the
# real axis than a float near 2^61 can resolve.
NEAR_REAL_PAIR = IntPoly((-3 * (2**122 + 1), 2**122 + 1 + 3 * 2**62, -(2**62) - 3, 1))
# The minimal polynomials `find` prints for conductors 29 and 41 at epsilon 1:
# totally real fields, so every root is real.
FOUND_29 = IntPoly((-1, -141, -981, 17734, 157800, -392426, -5037363, 3893370, 67560168,
                    -38065009, -405157639, 317628310, 780260274, -738227558, 1))
FOUND_41 = IntPoly((-1, -199, -13133, -332134, 600146, 196167639, 3220443147, -7533767142,
                    -709695523798, -6007361752491, 14460990249037, 433223988187430,
                    1424012323943871, -7013928724661928, -49104113328531411,
                    -23067676961968073, 386075276590979628, 605611133437254980,
                    -881370781145599815, -1815247828808565607, 1))

# A random monic polynomial of degree 20, not Pisot, on which the float
# stage stalls: its real roots are 0.974 and 1.168, but the real starts go
# to the Newton polygon's circles of radius 3 and 0.69, and the outer one,
# of one point, stands for the pair -2.03 +- 0.08i.
TRAPPED = IntPoly((1, 0, 0, 3, 1, -3, 1, 3, 1, -3, -1, 1, -3, 0, -3, -2, 2, -3, 0, 3, 1))

# x^3 - 2^400 x^2 - (2^400 -+ 1): alpha is near 2^400, and the complex pair
# has |beta|^2 = (2^400 -+ 1)/alpha, within about 2^-400 of 1. So neither
# the Pisot verdict nor n0 is decided at 128 or 256 bits, and 512 decides.
NEAR_UNIT_PAIR = {
    "n0-above-the-cap": (
        IntPoly((-(2**400 - 1), 0, -(2**400), 1)), errors.PrecisionExhausted, "threshold n0 > 99999"
    ),
    "pair-outside": (IntPoly((-(2**400 + 1), 0, -(2**400), 1)), errors.NotPisot, "modulus >= 1"),
}
COUNTED = {
    **KNACCI,
    "Mignotte": MIGNOTTE,
    "wide": WIDE,
    "x^4+1": IntPoly((1, 0, 0, 0, 1)),
    "found-29": FOUND_29,
    "found-41": FOUND_41,
    "near-real-pair": NEAR_REAL_PAIR,
    "quartic": QUARTIC,
    **dict(itertools.islice(RANDOM_PISOT.items(), 10)),
}


@pytest.mark.parametrize("f", COUNTED.values(), ids=COUNTED)
def test_the_remainder_sequence_counts_the_real_roots(f):
    assert sum(isolation._real_root_signs(list(reversed(f.coefficients)))) == real_roots_oracle(f, 2000)


def _assert_mirrored(f, roots):
    """The layout is exactly conjugate-symmetric, in the stored order: the
    real disks first, im = 0, as many as the remainder sequence counts,
    then one disk off the axis for each conjugate pair, then their mirrors
    (re, -im, radius) in the same order."""
    real = sum(isolation._real_root_signs(list(reversed(f.coefficients))))
    pairs = (f.degree - real) // 2
    assert len(roots) == real + 2 * pairs
    assert all(r.is_real and r.im == 0 for r in roots[:real])
    assert all(not r.is_real and r.im for r in roots[real:])
    upper, lower = roots[real : real + pairs], roots[real + pairs :]
    assert [(r.re, -r.im, r.radius, r.scale) for r in upper] == [(r.re, r.im, r.radius, r.scale) for r in lower]


# Layouts from fixed-point Aberth steps: on the Newton-polygon points where
# the coefficients overflow floats, and in Mignotte's retried round.
FIXED_POINT_STARTED = {
    "wide": WIDE,
    "x(x-10^400)": IntPoly((0, -(10**400), 1)),
    **{name: f for name, (f, _, _) in NEAR_UNIT_PAIR.items()},
    "Mignotte": MIGNOTTE,
}


@pytest.mark.parametrize("f", {**COUNTED, **FIXED_POINT_STARTED}.values(), ids={**COUNTED, **FIXED_POINT_STARTED})
def test_every_layout_is_conjugate_symmetric(f):
    for _, roots in itertools.islice(root_layouts(f, 64), 2):
        _assert_mirrored(f, roots)


@pytest.mark.parametrize("f", [*KNACCI.values(), QUARTIC], ids=[*KNACCI, "quartic"])
def test_mirrored_float_starts_certify_each_layout_in_one_round(monkeypatch, f):
    # Newton steps from mirrored float starts, and from the last layout's
    # midpoints, keep each lower midpoint the mirror of its upper one, so
    # no pair collapses and no round has to be repeated.
    rounds = []
    certify = isolation._certified_roots
    monkeypatch.setattr(isolation, "_certified_roots",
                        lambda f, zs, real, w, prec: rounds.append(w) or certify(f, zs, real, w, prec))
    list(itertools.islice(root_layouts(f, 128), 2))
    assert rounds == [work_bits(128), work_bits(256)]


@pytest.mark.parametrize("f", [NEAR_REAL_PAIR, FOUND_29, FOUND_41],
                         ids=["near-real-pair", "found-29", "found-41"])
def test_mirrored_disks_hold_the_oracle_roots(f):
    _assert_isolated(f, next(root_layouts(f, 64))[1], 2000)


# f(0) = 0: the zero root counts among the roots at most 0.
ZERO_ROOT = {
    "x(x^3-x-1)": IntPoly((0, -1, -1, 0, 1)),
    "x(x+2)(x^2-x-1)": IntPoly((0, -2, -3, 1, 1)),
}


def _oracle_sign_split(f):
    """(n, p): the oracle's real roots at most 0 and above 0, a root within
    2^-1000 of 0 counted as 0."""
    with mp.workprec(2000):
        cut = mpf(2) ** -1000
        real = [mpmath.re(z) for z in polyroots_oracle(f, 2000)
                if abs(mpmath.im(z)) < cut * (abs(z) + 1)]
        return sum(x < cut for x in real), sum(x >= cut for x in real)


@pytest.mark.parametrize("f", {**COUNTED, **ZERO_ROOT}.values(), ids={**COUNTED, **ZERO_ROOT})
def test_the_remainder_sequence_splits_the_real_roots_by_sign(f):
    assert isolation._real_root_signs(list(reversed(f.coefficients))) == _oracle_sign_split(f)


FLOAT_STAGE = {**KNACCI, **RANDOM_PISOT, **ZERO_ROOT}


@pytest.mark.parametrize("f", FLOAT_STAGE.values(), ids=FLOAT_STAGE)
def test_the_float_stage_is_conjugate_symmetric_and_near_the_oracle_roots(f):
    # The r real entries, then one above the axis for each conjugate pair;
    # with the mirrors of those, each within 1e-12 relative of its own
    # oracle root.
    f_desc = list(reversed(f.coefficients))
    signs = isolation._real_root_signs(f_desc)
    real = sum(signs)
    zs = [complex(z) for z in isolation._float_starts(f_desc, signs)]
    assert len(zs) == real + (f.degree - real) // 2
    assert all(z.imag == 0 for z in zs[:real]) and all(z.imag > 0 for z in zs[real:])
    left = [complex(w) for w in polyroots_oracle(f, 2000)]
    for z in zs + [z.conjugate() for z in zs[real:]]:
        w = min(left, key=lambda w: abs(w - z))
        assert abs(w - z) <= 1e-12 * abs(w)
        left.remove(w)


@pytest.mark.parametrize("f", [*KNACCI.values(), *RANDOM_PISOT.values()], ids=[*KNACCI, *RANDOM_PISOT])
def test_the_first_layout_steps_each_real_and_upper_midpoint_once(monkeypatch, f):
    # From float starts, one Newton sweep at w reaches FIRST_LAYOUT_BITS,
    # and the lower midpoints are mirrored, not stepped.
    stepped = []
    step = isolation._step

    def counted(f_desc, zs, i, p, real, repel):
        stepped.append(i)
        return step(f_desc, zs, i, p, real, repel)

    monkeypatch.setattr(isolation, "_step", counted)
    next(root_layouts(f, algebraic.FIRST_LAYOUT_BITS))
    real = sum(isolation._real_root_signs(list(reversed(f.coefficients))))
    assert len(stepped) == len(set(stepped)) == real + (f.degree - real) // 2


@pytest.mark.parametrize("f", [WIDE, FOUND_41, PLASTIC], ids=["wide", "found-41", "plastic-stalled"])
def test_each_fixed_point_aberth_sweep_steps_the_real_and_pair_midpoints(monkeypatch, f):
    # Where floats overflow (WIDE, FOUND_41) or stall (PLASTIC, patched),
    # Aberth's steps run on the r real midpoints, kept on the axis, and one
    # of each conjugate pair, never on the mirrors: every step sees
    # r + (d - r)/2 midpoints, and the first sweep at each scale steps each
    # of them once.
    if f is PLASTIC:
        monkeypatch.setattr(isolation, "_float_starts", lambda f_desc, signs: None)
    steps = []
    step = isolation._step

    def counted(f_desc, zs, i, p, real, repel):
        steps.append((len(zs), i, p, all(b == 0 for _, b in zs[:real])))
        return step(f_desc, zs, i, p, real, repel)

    monkeypatch.setattr(isolation, "_step", counted)
    next(root_layouts(f, 64))
    real = sum(isolation._real_root_signs(list(reversed(f.coefficients))))
    stored = real + (f.degree - real) // 2
    assert steps and all(n == stored and on_axis for n, _, _, on_axis in steps)
    for p in {p for _, _, p, _ in steps}:
        assert [i for _, i, q, _ in steps if q == p][:stored] == list(range(stored))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64, 255, 1000])
def test_fixed_power_error_bound_holds(n):
    # (u + vi)/2^s is within e/2^s of z^n, checked against the exact
    # Gaussian-integer power; for |z| < 1 the bound stays a few units per
    # multiplication.
    rng = random.Random(n)
    s = 80
    c = (7 << s) // 10  # |z| < 0.99
    for _ in range(20):
        a, b = rng.randint(-c, c), rng.randint(-c, c)
        u, v, e = isolation.fixed_power(a, b, n, s)
        xr, xi = 1, 0
        for _ in range(n):
            xr, xi = xr * a - xi * b, xr * b + xi * a
        scale = 1 << (s * max(n - 1, 0))
        if n == 0:
            xr <<= s
        assert (u * scale - xr) ** 2 + (v * scale - xi) ** 2 <= (e * scale) ** 2
        assert e <= 8 * (n + 1)


def test_overlapping_disks_are_not_certified():
    # Roots i and 2^-30 + i (and conjugates), with two midpoints near i and
    # two near -i: each disk is small enough, but the disks around i
    # overlap, so they certify nothing.
    m, w = 30, 64
    f = IntPoly((4**m + 1, -(2 ** (m + 1)), 2 * 4**m + 1, -(2 ** (m + 1)), 4**m))
    eps = 1 << (w - 40)
    zs = [(eps, 1 << w), (-eps, 1 << w)]
    assert isolation._certified_roots(f, zs, 0, w, 16) is None


def test_disks_wider_than_the_precision_are_not_certified():
    # Midpoints of x^2 - x - 1 good to about 2^-11: the disks are disjoint,
    # and fine for 4 bits but not for 64.
    w = 64
    zs = [(round(x * 2**10) << (w - 10), 0) for x in (1.6180339887, -0.6180339887)]
    assert isolation._certified_roots(GOLDEN, zs, 2, w, 4) is not None
    assert isolation._certified_roots(GOLDEN, zs, 2, w, 64) is None


def test_working_bits_are_capped(monkeypatch):
    monkeypatch.setattr("pisot.algebraic._certify_pisot_roots", lambda roots: "ambiguous")
    start = time.perf_counter()
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        analyze_minpoly(GOLDEN)
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        analyze_minpoly(PLASTIC)
    assert time.perf_counter() - start < 5
    calls = []
    monkeypatch.setattr(isolation, "_certified_roots", lambda *args: calls.append(args[3]))
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        next(root_layouts(GOLDEN, 64))[1]
    assert max(calls) <= MAX_WORK_BITS
    # A request above the cap is refused before any isolation work.
    calls.clear()
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        next(algebraic.pisot_layouts(GOLDEN, 40000))
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        next(root_layouts(GOLDEN, 40000))[1]
    assert calls == []


def test_the_cap_message_names_the_last_certified_layout(monkeypatch):
    with pytest.raises(errors.PrecisionExhausted) as refused:
        next(root_layouts(GOLDEN, 40000))[1]
    assert str(refused.value) == (
        f"root layouts of {GOLDEN}: none certified; the next round needs "
        f"{work_bits(40000)} working bits, above the cap of {MAX_WORK_BITS}"
    )
    monkeypatch.setattr("pisot.algebraic._certify_pisot_roots", lambda roots: "ambiguous")
    with pytest.raises(errors.PrecisionExhausted) as exhausted:
        analyze_minpoly(PLASTIC)
    assert str(exhausted.value) == (
        f"root layouts of {PLASTIC}: last certified at 16384 bits; the next round needs "
        f"{work_bits(32768)} working bits, above the cap of {MAX_WORK_BITS}"
    )


@pytest.mark.parametrize("f,tests", [(GOLDEN, 1), (PLASTIC, 2), (QUARTIC, 2)],
                         ids=["golden", "plastic", "quartic"])
def test_the_ladder_to_the_cap_decides_squarefreeness_once(monkeypatch, f, tests):
    # With every verdict forced to "ambiguous", analyze_minpoly climbs every
    # layout up to the cap, yet the remainder sequence of f and f' runs
    # once, and at d >= 3 that of f and x^d f(1/x) once more.
    calls = []
    sequence = isolation._remainder_sequence

    def counted(f_desc, g_desc):
        calls.append(len(f_desc))
        return sequence(f_desc, g_desc)

    monkeypatch.setattr(isolation, "_remainder_sequence", counted)
    monkeypatch.setattr(algebraic, "_certify_pisot_roots", lambda roots: "ambiguous")
    with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
        analyze_minpoly(f)
    assert len(calls) == tests


@pytest.mark.parametrize("f,error,match", NEAR_UNIT_PAIR.values(), ids=NEAR_UNIT_PAIR)
def test_a_pair_near_the_unit_circle_climbs_three_layouts(monkeypatch, f, error, match):
    layouts, rounds = [], []
    ladder, certify = algebraic.root_layouts, isolation._certified_roots

    def recorded_layouts(f, prec):
        for layout in ladder(f, prec):
            layouts.append(layout[0])
            yield layout

    def recorded_rounds(f, zs, real, w, prec):
        rounds.append(w)
        return certify(f, zs, real, w, prec)

    monkeypatch.setattr(algebraic, "root_layouts", recorded_layouts)
    monkeypatch.setattr(isolation, "_certified_roots", recorded_rounds)
    with pytest.raises(error, match=match):
        analyze_minpoly(f)
    assert layouts == [64, 128, 256, 512]
    assert rounds == [work_bits(64), work_bits(128), work_bits(256), work_bits(512)]


@pytest.mark.parametrize("f,error,match", NEAR_UNIT_PAIR.values(), ids=NEAR_UNIT_PAIR)
def test_a_pair_near_the_unit_circle_exits_1_through_the_cli(capsys, f, error, match):
    start = time.perf_counter()
    code = main(["threshold", "--minpoly", str(f)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"{error.__name__}: ") and match in err
    assert elapsed < 1


def _ladder_polys():
    polys = {f"{k}-nacci": KNACCI[f"{k}-nacci"] for k in range(2, 13)}
    polys["quartic"] = QUARTIC
    rng = random.Random(23)
    polys.update({f"shaped-{i}": pisot_shaped(rng.randint(3, 12), rng) for i in range(5)})
    return polys


LADDER_POLYS = _ladder_polys()


@pytest.mark.parametrize("f", LADDER_POLYS.values(), ids=LADDER_POLYS)
def test_later_layouts_keep_the_order_of_the_first(f):
    # Newton steps go on from the last midpoints, so disk i of every layout
    # meets disk i of the first, and the dominant index stays the same.
    layouts = list(itertools.islice(isolation.root_layouts(f, 128), 3))
    assert [prec for prec, _ in layouts] == [128, 256, 512]
    dominant = {algebraic._certify_pisot_roots(roots) for _, roots in layouts}
    assert len(dominant) == 1 and isinstance(dominant.pop(), int)
    first = layouts[0][1]
    for _, roots in layouts[1:]:
        for r, q in zip(roots, first, strict=True):
            shift = r.scale - q.scale
            dr, di = r.re - (q.re << shift), r.im - (q.im << shift)
            assert dr * dr + di * di <= (r.radius + (q.radius << shift)) ** 2


def test_embeddings_above_the_cap_compute_nothing(monkeypatch):
    calls = []
    two_cosines = algebraic._two_cosines
    monkeypatch.setattr(
        algebraic, "_two_cosines", lambda n, ms, s: calls.append(set(ms)) or two_cosines(n, ms, s)
    )
    spec = FieldSpec(kind="explicit", embedding_rows=(("1", "1"), ("1", "-1")),
                     stated_precision_bits=2 * MAX_WORK_BITS)
    for make in (lambda s: cyclotomic_embeddings(15, s), lambda s: explicit_embeddings(spec, s)):
        with pytest.raises(errors.PrecisionExhausted, match=str(MAX_WORK_BITS)):
            make(MAX_WORK_BITS + 1)
    assert calls == []
    # One call, for the residues t*a mod 15 over t, a in {1, 2, 4, 7}: 7 of 16 entries.
    assert cyclotomic_embeddings(15, 64).k == 4 and calls == [{1, 2, 4, 7, 8, 13, 14}]


def _fixed_roots(f, s):
    """Fixed-point values of f's real roots at scale 2^s, and one error
    bound e that covers every certified root disk."""
    values, e = [], 0
    for r in next(root_layouts(f, s))[1]:
        assert r.is_real
        q = mpf_to_fraction(mid(r).real) * 2**s
        values.append(round(q))
        e = max(e, int(abs(q - round(q)) + mpf_to_fraction(rad(r)) * 2**s) + 1)
    return values, e


class TestMinimalPolynomial:
    def test_golden_from_certified_roots(self):
        values, e = _fixed_roots(GOLDEN, 128)
        assert minimal_polynomial(values, 128, e) == GOLDEN

    def test_duplicate_conjugates_rejected(self):
        # (x - phi)^2 = x^2 - 2 phi x + phi^2 has no integer coefficients.
        values, e = _fixed_roots(GOLDEN, 128)
        with pytest.raises(errors.NotIntegral):
            minimal_polynomial([values[0], values[0]], 128, e)

    def test_wide_error_bound_raises_precision_error(self):
        values, _ = _fixed_roots(GOLDEN, 128)
        minimal_polynomial(values, 128, 1 << 100)
        with pytest.raises(errors.PrecisionError):
            minimal_polynomial(values, 128, 1 << 126)


class TestAnalyzeMinpoly:
    def test_golden_threshold(self):
        info = analyze_minpoly(GOLDEN)
        assert info.threshold_n0 == 2
        assert float(mid(info.second_modulus)) == pytest.approx(0.6180339887, abs=1e-9)
        assert info.dominant_root.is_real

    def test_plastic_threshold(self):
        info = analyze_minpoly(PLASTIC)
        assert info.threshold_n0 == 10

    def test_quartic_fixture_threshold(self):
        f = IntPoly((1, 21, -229, -4899, 1))
        info = analyze_minpoly(f)
        # all conjugate moduli < 0.066, so (d-1)*|a2|^n < 1/2 already at n=1
        assert info.threshold_n0 == 1

    def test_not_pisot_rejected(self):
        with pytest.raises(errors.NotPisot):
            analyze_minpoly(IntPoly((-3, -1, 1)))  # second root ~ -1.30
        with pytest.raises(errors.NotPisot):
            analyze_minpoly(IntPoly((2, 0, 1)))  # x^2 + 2: no real root

    def test_non_monic_rejected(self):
        with pytest.raises(errors.NotMonic):
            analyze_minpoly(IntPoly((-1, -1, 2)))

    @pytest.mark.parametrize(
        "coeffs",
        [(1, -2, 1), (1, 2, -1, -2, 1)],  # (x-1)^2, (x^2-x-1)^2
        ids=["(x-1)^2", "(x^2-x-1)^2"],
    )
    def test_not_squarefree_rejected(self, coeffs):
        with pytest.raises(errors.NotSquarefree):
            analyze_minpoly(IntPoly(coeffs))

    def test_zero_constant_term_rejected(self, monkeypatch):
        # x(x^2-x-1) is reducible; it is rejected before any root isolation
        def no_numerics(*args):
            raise AssertionError("root isolation ran")

        monkeypatch.setattr("pisot.algebraic.root_layouts", no_numerics)
        with pytest.raises(errors.NotPisot):
            analyze_minpoly(IntPoly((0, -1, -1, 1)))


RECIPROCAL = {
    "Lehmer": (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
    "Salem quartic": (1, -1, -1, -1, 1),  # x^4 - x^3 - x^2 - x + 1
    "(x+1)(x^2-x-1)": (-1, -2, 0, 1),
    "(x-1)(x^3-x-1)": (1, 0, -1, -1, 1),
}


@pytest.mark.parametrize("coeffs", RECIPROCAL.values(), ids=RECIPROCAL.keys())
def test_shared_root_with_reciprocal_rejected(coeffs, monkeypatch):
    # Decided by gcd(f, x^d f(1/x)) over Z, before any root isolation.
    def no_numerics(*args):
        raise AssertionError("root isolation ran")

    monkeypatch.setattr("pisot.algebraic.root_layouts", no_numerics)
    with pytest.raises(errors.NotPisot, match="reciprocal"):
        analyze_minpoly(IntPoly(coeffs))


THRESHOLD_POLYS = dict(KNACCI)
THRESHOLD_POLYS["plastic"] = PLASTIC
THRESHOLD_POLYS["quartic"] = IntPoly((1, 21, -229, -4899, 1))
THRESHOLD_POLYS["x^2-3x+1"] = IntPoly((1, -3, 1))  # reciprocal, and Pisot
THRESHOLD_POLYS.update(RANDOM_PISOT)


@pytest.mark.parametrize("f", THRESHOLD_POLYS.values(), ids=THRESHOLD_POLYS.keys())
def test_threshold_matches_scan(f):
    # (d-1)|alpha_2|^n0 < 1/2 <= (d-1)|alpha_2|^(n0-1) in exact rationals.
    assert analyze_minpoly(f).threshold_n0 == scanned_threshold(f)


WIDENED = {"golden": GOLDEN, "plastic": PLASTIC, "quartic": QUARTIC, "5-nacci": KNACCI["5-nacci"]}


@pytest.mark.parametrize("f", WIDENED.values(), ids=WIDENED)
def test_a_second_modulus_that_does_not_fix_its_digits_waits_for_the_next_layout(monkeypatch, f):
    # Every radius of the first layout widened to 2^-64, as far as a 64-bit
    # certificate may reach: the ball of |alpha_2| < 1 then spans about ten
    # units of its 20th digit, so the layout is passed over, and the 128-bit
    # one prints the digits that the first would have.
    expected = analyze_minpoly(f)
    assert expected.precision_bits == algebraic.FIRST_LAYOUT_BITS
    ladder = algebraic.root_layouts

    def widened(f, prec):
        for i, (p, roots) in enumerate(ladder(f, prec)):
            if i == 0:
                roots = [dataclasses.replace(r, radius=max(r.radius, 1 << (r.scale - 64)))
                         for r in roots]
            yield p, roots

    monkeypatch.setattr(algebraic, "root_layouts", widened)
    info = analyze_minpoly(f)
    assert info.precision_bits == 2 * algebraic.FIRST_LAYOUT_BITS
    assert info.threshold_n0 == expected.threshold_n0
    assert info.second_modulus.digits(20) == expected.second_modulus.digits(20)


@pytest.mark.parametrize("f", THRESHOLD_POLYS.values(), ids=THRESHOLD_POLYS.keys())
def test_the_threshold_powers_each_bound_once_per_n(monkeypatch, f):
    # side(n) is cached: the bracket, the bisection and the final check share
    # its powers, so each bound of |alpha_2| is powered at most once per n,
    # two powers per n.
    info = analyze_minpoly(f)
    calls = collections.Counter()
    power = algebraic.fixed_power

    def counted(a, b, n, s):
        calls[a, n] += 1
        return power(a, b, n, s)

    monkeypatch.setattr(algebraic, "fixed_power", counted)
    assert algebraic._threshold_n0(info.second_modulus, f.degree) == info.threshold_n0
    assert calls and max(calls.values()) == 1
    assert max(collections.Counter(n for _, n in calls).values()) <= 2


# (x - 5)(x^2 + 4)(x^2 + 9): one real root above 1, and conjugates of
# moduli 2 and 3 outside the unit disk.
TWO_PAIRS_OUTSIDE = IntPoly((-180, 36, -65, 13, -5, 1))
LAYOUT_ORDERS = {
    "as-isolated": list,
    "reversed": lambda roots: roots[::-1],
    "by-modulus": lambda roots: sorted(roots, key=lambda r: r.re**2 + r.im**2),
    "by-modulus-descending": lambda roots: sorted(roots, key=lambda r: -(r.re**2 + r.im**2)),
}


@pytest.mark.parametrize("order", LAYOUT_ORDERS.values(), ids=LAYOUT_ORDERS)
def test_a_conjugate_outside_is_named_by_the_largest_modulus_in_any_layout_order(monkeypatch, order):
    ladder = algebraic.root_layouts

    def reordered(f, prec):
        for p, roots in ladder(f, prec):
            yield p, order(roots)

    monkeypatch.setattr(algebraic, "root_layouts", reordered)
    with pytest.raises(errors.NotPisot) as caught:
        analyze_minpoly(TWO_PAIRS_OUTSIDE)
    assert str(caught.value) == "a conjugate root has modulus >= 1 (the largest is ~3.0)"


class TestRefusals:
    """Refusals of the field and root-layout layers, each with its type."""

    def test_explicit_embeddings_require_an_explicit_spec(self):
        with pytest.raises(errors.ParseError, match="explicit-kind"):
            explicit_embeddings(FieldSpec(kind="cyclotomic", conductor=15), 64)

    def test_a_non_square_matrix_is_refused(self):
        spec = FieldSpec(kind="explicit", embedding_rows=(("1", "1"), ("1",)),
                         stated_precision_bits=64)
        with pytest.raises(errors.ParseError, match="square"):
            explicit_embeddings(spec, 32)

    def test_fraction_entries_are_read_as_fractions(self):
        # Q(sqrt 2) stated at 64 bits, its irrational entries given as p/q.
        rows = (("1", "1/1"), ("1", "-1/1"))
        assert explicit_embeddings(
            FieldSpec(kind="explicit", embedding_rows=rows, stated_precision_bits=64), 32
        ).discriminant == 4
        q = Fraction(665857, 470832)  # a convergent of sqrt 2, within 2^-40
        rows = (("1", f"{q.numerator}/{q.denominator}"), ("1", f"-{q.numerator}/{q.denominator}"))
        emb = explicit_embeddings(FieldSpec(kind="explicit", embedding_rows=rows,
                                            stated_precision_bits=64), 32)
        assert emb.discriminant == 8 and emb.entries[0][1] == round(q * 2**32)

    def test_a_trace_form_bound_of_half_a_unit_is_refused(self):
        # Entries near 10^15 at 32 bits: k * err * (2A + err) exceeds 2^63.
        spec = FieldSpec(kind="explicit", embedding_rows=(("1", "1e15"), ("1", "-1e15")),
                         stated_precision_bits=64)
        with pytest.raises(errors.PrecisionError, match="trace form error bound"):
            explicit_embeddings(spec, 32)

    def test_a_coefficient_vector_of_the_wrong_length(self):
        emb = cyclotomic_embeddings(15, 64)
        with pytest.raises(ValueError, match="length 3, expected 4"):
            eval_combination([1, 2, 3], emb)

    def test_a_minimal_polynomial_of_no_conjugates(self):
        with pytest.raises(ValueError, match="at least one conjugate"):
            minimal_polynomial([], 64, 1)

    def test_two_real_roots_above_one(self):
        # x^2 - 5x + 5 has the roots (5 +- sqrt 5)/2, about 3.62 and 1.38.
        with pytest.raises(errors.NotPisot, match="more than one real root greater than 1"):
            analyze_minpoly(IntPoly((5, -5, 1)))

    def test_a_real_disk_across_one_is_ambiguous_until_a_later_layout(self, monkeypatch):
        # The first layout of the golden ratio gets a real disk of radius 2
        # around -0.618, which holds 1: the verdict is "ambiguous" there,
        # `pisot_layouts` skips the layout, and the next decides.
        ladder, seen = algebraic.root_layouts, []

        def widened(f, prec):
            for i, (p, roots) in enumerate(ladder(f, prec)):
                if i == 0:
                    roots = [r if r.re > 0 else dataclasses.replace(r, radius=2 << r.scale)
                             for r in roots]
                seen.append(algebraic._certify_pisot_roots(roots))
                yield p, roots

        monkeypatch.setattr(algebraic, "root_layouts", widened)
        info = analyze_minpoly(GOLDEN)
        assert seen == ["ambiguous", info.dominant_index]
        assert info.precision_bits == 2 * algebraic.FIRST_LAYOUT_BITS
        assert info.threshold_n0 == 2


@pytest.mark.parametrize("shift", [3, -3, 1000, -1000])
def test_the_threshold_walks_from_a_wrong_estimate(monkeypatch, shift):
    # With ceil moved by `shift`, the log estimate of n0 starts off by that
    # much, and the certified bracket and bisection must undo it, in a number
    # of powers logarithmic in the shift.
    expected = {k: analyze_minpoly(f).threshold_n0 for k, f in KNACCI.items()}
    shifted = types.SimpleNamespace(**{**vars(math), "ceil": lambda x: math.ceil(x) + shift})
    monkeypatch.setattr(algebraic, "math", shifted)
    calls = []
    power = algebraic.fixed_power

    def counted(a, b, n, s):
        calls.append(n)
        return power(a, b, n, s)

    monkeypatch.setattr(algebraic, "fixed_power", counted)
    assert {k: analyze_minpoly(f).threshold_n0 for k, f in KNACCI.items()} == expected
    assert len(calls) <= len(KNACCI) * (4 * abs(shift).bit_length() + 8)


def _replaced_starts(monkeypatch, starts):
    """Root isolation with the float starts replaced by `starts`, as if the
    float iteration had returned them."""
    monkeypatch.setattr(isolation, "_float_starts", lambda f_desc, signs: list(starts))


class TestIsolationRecovers:
    """Robustness exits of root isolation: each leads on to certified disks
    that hold exactly the oracle's roots."""

    def test_coincident_float_starts_are_nudged_apart(self, monkeypatch):
        # Every start at 1: 1/(z - z_j) divides by zero in floats.
        monkeypatch.setattr(isolation, "_start_circles", lambda c: [(0.0, 1 + 0j)] * (len(c) - 1))
        _assert_isolated(PLASTIC, next(root_layouts(PLASTIC, 64))[1], 2000)

    def test_nearly_coincident_float_starts_settle(self, monkeypatch):
        # x^4 + x^3 + x^2 + x + 1 has two conjugate pairs and no real root.
        # Of the circle points at angles 0.1, ~pi/4 (z + 2^-52, then z) and
        # 3, each two in turn give the upper start nearer the imaginary
        # axis: z + 2^-52 and z, one unit in the last place apart. Their
        # repulsion shrinks the steps below the roundoff, so one settles
        # next to z, on no root, and the fixed-point rounds separate it.
        f = IntPoly((1, 1, 1, 1, 1))
        z = 1.5 + 1.5j
        monkeypatch.setattr(isolation, "_start_circles", lambda c: [
            (0.0, complex(math.cos(0.1), math.sin(0.1))), (0.0, z), (0.0, z + 2.0**-52),
            (0.0, complex(math.cos(3.0), math.sin(3.0))),
        ])
        float_starts, approx = isolation._float_starts, []

        def recorded(f_desc, signs):
            approx.append(float_starts(f_desc, signs))
            return approx[-1]

        monkeypatch.setattr(isolation, "_float_starts", recorded)
        _assert_isolated(f, next(root_layouts(f, 64))[1], 2000)
        assert any(abs(x - z) < 2.0**-50 for x in approx[0])

    def test_a_stalled_float_iteration_starts_from_the_circles(self, monkeypatch):
        float_starts, circles = isolation._float_starts, []

        def stalled(f_desc, signs):
            with monkeypatch.context() as m:
                m.setattr(isolation, "ABERTH_STEPS", 0)
                assert float_starts(f_desc, signs) is None
            return None

        circle_starts = isolation._circle_starts
        monkeypatch.setattr(isolation, "_float_starts", stalled)
        monkeypatch.setattr(isolation, "_circle_starts",
                            lambda f_desc, signs, p: circles.append(p) or circle_starts(f_desc, signs, p))
        _assert_isolated(PLASTIC, next(root_layouts(PLASTIC, 64))[1], 2000)
        assert circles == [53]

    def test_a_zero_root_starts_at_zero(self):
        # x (x - 10^400): the coefficients overflow floats, and the zero
        # root's circle start is 0 itself.
        f = IntPoly((0, -(10**400), 1))
        roots = next(root_layouts(f, 64))[1]
        _assert_isolated(f, roots, 2000)
        assert any(r.re == r.im == 0 for r in roots)

    def test_starts_at_a_critical_point(self, monkeypatch):
        # Both starts at 1/2, where f' = 0 for x^2 - x - 1: Newton cannot
        # move them, the coincident midpoints give no disks, and Aberth's
        # steps at twice the bits nudge them apart.
        _replaced_starts(monkeypatch, [0.5, 0.5])
        _assert_isolated(GOLDEN, next(root_layouts(GOLDEN, 64))[1], 2000)

    def test_starts_that_meet_at_one_root(self, monkeypatch):
        # Both starts at 1 go by Newton to the same root; Aberth's ratios
        # then divide by their zero distance, and the step nudges instead.
        _replaced_starts(monkeypatch, [1.0, 1.0])
        _assert_isolated(GOLDEN, next(root_layouts(GOLDEN, 64))[1], 2000)

    def test_a_real_midpoint_held_by_a_pair_trades_places(self, monkeypatch):
        # On TRAPPED the fixed-point Aberth steps from the circles stall as
        # the float stage does: a real midpoint ends by the pair
        # -2.03 +- 0.08i, which it cannot reach on the axis, and a pair
        # midpoint by the real root 0.974, beside its own mirror. The two
        # trade places, and the second round certifies.
        f_desc = list(reversed(TRAPPED.coefficients))
        assert isolation._float_starts(f_desc, isolation._real_root_signs(f_desc)) is None
        rounds = []
        certify = isolation._certified_roots
        monkeypatch.setattr(isolation, "_certified_roots",
                            lambda f, zs, real, w, prec: rounds.append(w) or certify(f, zs, real, w, prec))
        _assert_isolated(TRAPPED, next(root_layouts(TRAPPED, 64))[1], 2000)
        assert rounds == [work_bits(64), 2 * work_bits(64)]

    def test_a_disk_across_the_real_axis_that_meets_another(self, monkeypatch):
        # NEAR_REAL_PAIR's certified layout: the real midpoint near 3, then
        # the pair's near 2^61 + i. Moved to 2^61 + i/2, the pair midpoint
        # gets a disk of radius 9/4 (three times 1/2 * 3/2 over the gap of 1
        # to its mirror), within 2^-16 of 2^61 but across the real axis, so
        # it meets its own mirror and nothing is certified.
        seen = _recorded_classifications(monkeypatch)
        next(root_layouts(NEAR_REAL_PAIR, 64))
        zs, _, w = seen[-1]
        assert isolation._certified_roots(NEAR_REAL_PAIR, zs[:2], 1, w, 16) is not None
        (x, _), (a, b) = zs[:2]
        assert isolation._certified_roots(NEAR_REAL_PAIR, [(x, 0), (a, b >> 1)], 1, w, 16) is None


# |alpha_2| ~ 10^-1000 and ~ 10^-500, whose floats are 0: the estimate of n0
# once fell back to THRESHOLD_CAP there and stepped down one n at a time,
# 99,998 powers in seconds. The k-nacci and the benchmark's degree-12
# polynomial need the two powers at n0 and one at n0 - 1.
FIXED_POWER_PINS = {
    "tiny-quadratic": (IntPoly((-1, 1 - 10**1000, 1)), 1, 1),
    "tiny-cubic": (IntPoly((-1, -1, 1 - 10**1000, 1)), 1, 1),
    "30-nacci": (KNACCI["30-nacci"], 2655, 3),
    "degree-12": (IntPoly((2, 2, 2, -2, -2, 0, 2, 2, -1, -2, 2, -21, 1)), 38, 3),
}


@pytest.mark.parametrize("f,n0,powers", FIXED_POWER_PINS.values(), ids=FIXED_POWER_PINS)
def test_the_threshold_takes_few_powers(monkeypatch, f, n0, powers):
    calls = []
    power = algebraic.fixed_power

    def counted(a, b, n, s):
        calls.append(n)
        return power(a, b, n, s)

    monkeypatch.setattr(algebraic, "fixed_power", counted)
    assert analyze_minpoly(f).threshold_n0 == n0
    assert len(calls) == powers
