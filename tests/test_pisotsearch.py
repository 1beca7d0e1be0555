"""End-to-end Pisot search, certification, and the scaling machinery."""

import dataclasses
import hashlib
import json
import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mp

from pisot import errors, pisotsearch
from pisot.algebraic import FieldSpec, IntPoly, cyclotomic_embeddings
from pisot.balls import Ball
from pisot.lattice import LLLResult
from pisot.pisotsearch import (
    DEFAULT_Q,
    SEARCH_RETRY_CAP,
    _scales,
    build_scaled_lattice,
    compute_scale_P,
    find_pisot,
    format_fraction,
    gaussian_scale_P,
    minkowski_bound,
    practical_scale_P,
    verify_pisot,
    verify_precision,
)
from pisot.limits import MAX_SEARCH_DEGREE, MAX_WORK_BITS

from oracles import check_reduced, decimal_reference, int_str_limit, mid

FIXTURE_Z15 = (2105, 1215, 1440, 139)
FIXTURE_Z17 = (
    24708871,
    95498414,
    202808109,
    332145187,
    466041959,
    586414924,
    677007046,
    725583357,
)
NON_SQUAREFREE = (8, 9, 12, 16, 20, 24, 25, 27, 28, 32, 36, 40)
SMALL_SQUAREFREE = (5, 7, 11, 13, 15, 17, 19, 21, 23, 33, 35, 39)  # every one with k <= 12
EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


@pytest.fixture(scope="module")
def emb15():
    return cyclotomic_embeddings(15, 256)


@pytest.fixture(scope="module")
def emb17():
    return cyclotomic_embeddings(17, 256)


class TestFormatFraction:
    def test_exact_decimal(self):
        assert format_fraction(Fraction(1, 2)) == "0.5"
        assert format_fraction(Fraction(3, 40)) == "0.075"
        assert format_fraction(Fraction(-1, 4)) == "-0.25"
        assert format_fraction(Fraction(7)) == "7"

    def test_non_terminating(self):
        assert format_fraction(Fraction(1, 3)) == "1/3"
        assert format_fraction(Fraction(5, 6)) == "5/6"


class TestComputeScaleP:
    def test_trivial_lower_bound(self):
        # k = 2, det = 1, eps = 1: (2/sqrt 3)^4 * 2 = 32/9 ~ 3.55 -> P = 4
        assert compute_scale_P(2, 1, 1) == 4

    def test_degree4_fixture(self, emb15):
        assert compute_scale_P(4, emb15.discriminant, Fraction(1, 2)) == 85769

    def test_degree8_fixture(self, emb17):
        assert compute_scale_P(8, emb17.discriminant, 1) == 825982306366

    def test_epsilon_monotone(self, emb15):
        p1 = compute_scale_P(4, emb15.discriminant, 1)
        p2 = compute_scale_P(4, emb15.discriminant, Fraction(1, 2))
        assert p2 > p1

    def test_degree26_returns(self):
        # P has more bits than the embeddings; any integer above the bound is valid.
        emb = cyclotomic_embeddings(53, 256)
        P = compute_scale_P(26, emb.discriminant, 1)
        with mp.workdps(100):
            bound = (
                (2 / mpmath.sqrt(3)) ** (26 * 26)
                * mpmath.mpf(26) ** 13
                * mpmath.sqrt(emb.discriminant)
            )
            assert bound < P < bound * (1 + mpmath.mpf(2) ** -200)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    @pytest.mark.parametrize("k", range(2, 31))
    def test_least_integer_above_bound(self, k, eps):
        # bound^2 = (4/3)^(k^2) * k^k * disc / eps^(2k), compared exactly
        for disc in (1, 5 ** (k - 1), 10**k + 7):
            P = compute_scale_P(k, disc, eps)
            square = Fraction(4, 3) ** (k * k) * k**k * disc / eps ** (2 * k)
            assert (P - 1) ** 2 <= square < P**2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            compute_scale_P(2, 1, 0)
        with pytest.raises(ValueError):
            compute_scale_P(2, 1, 2)


class TestPracticalScaleP:
    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("k", range(2, 31))
    def test_least_integer_above_bound(self, k, eps):
        # bound^2 = k^k * disc / eps^(2k), compared exactly; never above the ceiling
        for disc in (1, 5 ** (k - 1), 10**k + 7):
            P = practical_scale_P(k, disc, eps)
            square = Fraction(k**k * disc) / eps ** (2 * k)
            assert (P - 1) ** 2 <= square < P**2
            assert P <= compute_scale_P(k, disc, eps)

    def test_degree4_fixture(self, emb15):
        # 4^4 * 1125 * 2^8 = 73728000, and isqrt(73728000) = 8586
        assert practical_scale_P(4, emb15.discriminant, Fraction(1, 2)) == 8587
        with pytest.raises(ValueError):
            practical_scale_P(1, 1, 1)


class TestGaussianScaleP:
    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("k", [2, 6, 20, 75])
    def test_least_integer_above_bound(self, k, eps):
        # bound^2 = (51/50)^(2k^2) * (k/17)^k * disc / eps^(2k), compared exactly
        for disc in (1, 5 ** (k - 1), 10**k + 7):
            P = gaussian_scale_P(k, disc, eps)
            square = Fraction(51, 50) ** (2 * k * k) * Fraction(k, 17) ** k * disc / eps ** (2 * k)
            assert (P - 1) ** 2 <= square < P**2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_scale_P(1, 1, 1)
        with pytest.raises(ValueError):
            gaussian_scale_P(6, 1, 0)


class TestScales:
    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    def test_the_gaussian_rung_comes_first_for_degrees_6_to_71_only(self, eps):
        # Below 6 the heuristic is poor; from 72 on the rung is not below
        # practical_scale_P. The ladder from practical_scale_P up is the same
        # with or without it.
        for k in range(2, MAX_SEARCH_DEGREE + 1):
            for disc in (5 ** (k - 1), k ** (k - 1) * 7):
                low = gaussian_scale_P(k, disc, eps)
                start = practical_scale_P(k, disc, eps)
                ceiling = compute_scale_P(k, disc, eps)
                rungs = list(_scales(k, low, start, ceiling))
                ladder = list(_scales(k, start, start, ceiling))
                assert ladder[0] == (start, DEFAULT_Q)
                if 6 <= k <= 71:
                    assert low < start and rungs == [(low, DEFAULT_Q)] + ladder
                else:
                    assert rungs == ladder


class TestBuildScaledLattice:
    def test_q1_rounding(self, emb15):
        lat = build_scaled_lattice(emb15, P=1, Q=1)
        # row 0 entries are round(beta_j): 1.827, 1.338, -0.209, -1.956
        assert tuple(lat.basis[j][0] for j in range(4)) == (2, 1, 0, -2)

    def test_scaling_grows_entries(self, emb15):
        lat = build_scaled_lattice(emb15, P=85769, Q=1 << 32)
        mags = [abs(x) for col in lat.basis for x in col[1:]]
        assert min(mags) > 1 << 40
        assert lat.det() != 0

    def test_rejects_bad_scales(self, emb15):
        with pytest.raises(ValueError):
            build_scaled_lattice(emb15, P=0, Q=1)

    def test_refuses_a_rounding_error_of_half_a_unit(self, emb15):
        # Q * P * err must stay below 2^s / 2.
        with pytest.raises(errors.PrecisionError, match="not below 1/2 at 256 bits"):
            build_scaled_lattice(emb15, P=1 << 255, Q=1)


class TestVerifyPrecision:
    def test_sized_from_candidate(self):
        spec = FieldSpec(kind="cyclotomic", conductor=15)
        assert verify_precision(FIXTURE_Z15, spec) == 256
        z = (1 << 200, 1, 1, 1)
        assert verify_precision(z, spec) == 2 * 201 + 8 + 32

    def test_capped_at_stated_precision(self):
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", "1"), ("1", "-1")),
            stated_precision_bits=300,
        )
        assert verify_precision((1 << 200, 1), spec) == 300

    def test_floor_at_stated_precision(self):
        # A field stated at 64 bits has a floor of 64, not FLOOR_BITS.
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", "1"), ("1", "-1")),
            stated_precision_bits=64,
        )
        assert verify_precision((1 << 200, 1), spec) == 64
        assert verify_precision((1, 1), spec) == 64


class TestVerifyPisot:
    def test_a_value_not_above_one(self):
        # 2cos(2 pi/15) - 2cos(4 pi/15) ~ 0.49 on the basis a = 1, 2, 4, 7.
        emb = cyclotomic_embeddings(15, 256)
        with pytest.raises(errors.NotPisot, match="not certified > 1"):
            verify_pisot((1, -1, 0, 0), emb, 1)

    def test_known_quartic_fixture(self, emb15):
        cand = verify_pisot(FIXTURE_Z15, emb15, Fraction(1, 2))
        assert cand.minpoly == IntPoly((1, 21, -229, -4899, 1))
        assert float(mid(cand.value)) == pytest.approx(4899.0467429, abs=1e-6)
        moduli = sorted(float(mid(m)) for m in cand.conjugate_moduli)
        assert moduli == pytest.approx(
            sorted([0.063765, 0.065726, 0.048703]), abs=1e-5
        )
        assert cand.conductor == 15

    def test_known_octic_fixture(self, emb17):
        cand = verify_pisot(FIXTURE_Z17, emb17, 1)
        assert cand.minpoly.degree == 8
        assert cand.value.gt(1)
        expected = sorted(
            [0.0395006, 0.0482680, 0.0649009, 0.0199902, 0.0579871, 0.0622097, 0.0360320]
        )
        moduli = sorted(float(mid(m)) for m in cand.conjugate_moduli)
        assert moduli == pytest.approx(expected, abs=1e-5)

    def test_sign_normalization(self, emb15):
        neg = tuple(-c for c in FIXTURE_Z15)
        cand = verify_pisot(neg, emb15, Fraction(1, 2))
        assert cand.coefficients == FIXTURE_Z15
        assert cand.value.gt(1)

    def test_rejects_epsilon_violation(self, emb15):
        with pytest.raises(errors.NotPisot):
            verify_pisot(FIXTURE_Z15, emb15, Fraction(1, 100))

    def test_rejects_non_generator(self, emb15):
        # 1 + 0*b1 + ... is rational: conjugates collide
        with pytest.raises(errors.NotPisot):
            verify_pisot((2, 0, 0, 0), emb15, 1)

    def test_rejects_zero_vector(self, emb15):
        with pytest.raises(ValueError):
            verify_pisot((0, 0, 0, 0), emb15, 1)

    def test_json_output(self, emb15):
        cand = verify_pisot(FIXTURE_Z15, emb15, Fraction(1, 2))
        obj = cand.to_json()
        json.dumps(obj)  # must be serializable
        assert obj["coefficients"] == [str(c) for c in FIXTURE_Z15]
        assert obj["epsilon"] == "0.5"
        assert obj["conductor"] == 15

    def test_json_output_of_a_huge_value_under_the_default_digit_limit(self, emb15):
        # A value the size of conductor 41's at epsilon 1e-100: a 19,269-bit
        # center, over 5,800 decimal digits, at scale 12,870.
        c = random.Random(41).getrandbits(19269) | 1 << 19268
        cand = verify_pisot(FIXTURE_Z15, emb15, Fraction(1, 2))
        cand = dataclasses.replace(cand, value=Ball(c, 1, 12870))
        with int_str_limit(4300):
            obj = cand.to_json()
        assert Decimal(obj["value"]) == decimal_reference(c, 12870, 40)


class TestFindPisot:
    def test_conductor_15_half_epsilon(self):
        cand = find_pisot(
            FieldSpec(kind="cyclotomic", conductor=15),
            Fraction(1, 2),
        )
        assert cand.minpoly.degree == 4
        assert cand.value.gt(1)
        assert all(m.lt(Fraction(1, 2)) for m in cand.conjugate_moduli)

    def test_conductor_17(self):
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=17))
        assert cand.minpoly.degree == 8
        assert all(m.lt(1) for m in cand.conjugate_moduli)

    def test_explicit_sqrt2(self):
        with mp.workprec(220):
            s = mpmath.nstr(mpmath.sqrt(2), 60)
        spec = FieldSpec(
            kind="explicit",
            embedding_rows=(("1", s), ("1", "-" + s)),
            stated_precision_bits=190,
            discriminant=8,
        )
        cand = find_pisot(spec)
        assert cand.minpoly.degree == 2
        # the silver ratio 1 + sqrt(2) is the natural answer here
        assert cand.minpoly == IntPoly((-1, -2, 1))

    @pytest.mark.parametrize("n", NON_SQUAREFREE)
    def test_non_squarefree_conductor(self, n):
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=n))
        # Checked independently on the power basis {1, 2cos(2 pi j/n)}.
        k = len(cand.coefficients)
        reps = [a for a in range(1, n // 2 + 1) if gcd(a, n) == 1]
        assert len(reps) == k
        with mp.workdps(120):
            conj = [
                cand.coefficients[0]
                + sum(
                    c * 2 * mpmath.cos(2 * mpmath.pi * t * j / n)
                    for j, c in enumerate(cand.coefficients[1:], start=1)
                )
                for t in reps
            ]
            assert conj[0] > 1
            assert all(abs(v) < 1 for v in conj[1:])
            poly = [mpmath.mpf(1)]  # ascending coefficients of prod (x - v)
            for v in conj:
                poly = [a - v * b for a, b in zip([0] + poly, poly + [0])]
            rounded = [int(mpmath.nint(c)) for c in poly]
            assert all(abs(c - r) < mpmath.mpf(10) ** -50 for c, r in zip(poly, rounded))
        assert cand.minpoly.coefficients == tuple(rounded)

    def test_skips_candidate_whose_minpoly_is_not_certified(self, monkeypatch):
        # A PrecisionError from the minimal polynomial rejects that candidate
        # only; the search goes on to the next one.
        real = pisotsearch.minimal_polynomial
        calls = []

        def first_fails(values, s, e):
            calls.append(values)
            if len(calls) == 1:
                raise errors.PrecisionError("coefficient error bound >= 1/2")
            return real(values, s, e)

        spec = FieldSpec(kind="cyclotomic", conductor=15)
        first = find_pisot(spec)
        monkeypatch.setattr(pisotsearch, "minimal_polynomial", first_fails)
        cand = find_pisot(spec)
        assert len(calls) == 2
        assert cand.coefficients != first.coefficients
        assert cand.minpoly.degree == 4
        assert cand.value.gt(1) and all(m.lt(1) for m in cand.conjugate_moduli)

    def test_skips_candidate_above_the_bits_cap(self, monkeypatch):
        # A candidate whose verification precision exceeds MAX_WORK_BITS is
        # refused by the embeddings and skipped like one that fails.
        real = pisotsearch.verify_precision
        calls = []

        def first_above_cap(z, spec):
            calls.append(z)
            return MAX_WORK_BITS + 1 if len(calls) == 1 else real(z, spec)

        spec = FieldSpec(kind="cyclotomic", conductor=15)
        first = find_pisot(spec)
        monkeypatch.setattr(pisotsearch, "verify_precision", first_above_cap)
        cand = find_pisot(spec)
        assert len(calls) == 2
        assert cand.coefficients != first.coefficients
        assert cand.value.gt(1) and all(m.lt(1) for m in cand.conjugate_moduli)

    def test_finisher_runs_when_no_float_candidate_certifies(self, monkeypatch):
        # A float pass that stops before its first column operation, as it
        # may on an overflow, returns the identity transform. Every candidate
        # it offers is rejected, so the exact finisher must run from it, and
        # the answer comes from the finisher's own columns.
        real_finish, real_verify = pisotsearch.finish_reduce, pisotsearch.verify_pisot
        float_columns, finished = set(), []

        def stopped_float_pass(lat):
            k = lat.k
            result = LLLResult(lat, tuple(tuple(int(i == j) for i in range(k)) for j in range(k)))
            float_columns.update(result.transform)
            return result

        def finish(result):
            finished.append(result)
            return real_finish(result)

        def verify(z, emb, epsilon):
            if tuple(z) in float_columns:
                raise errors.NotPisot("a float-pass candidate")
            return real_verify(z, emb, epsilon)

        monkeypatch.setattr(pisotsearch, "float_reduce", stopped_float_pass)
        monkeypatch.setattr(pisotsearch, "finish_reduce", finish)
        monkeypatch.setattr(pisotsearch, "verify_pisot", verify)
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 2))
        assert len(finished) == 1
        z = cand.coefficients
        assert z not in float_columns and tuple(-c for c in z) not in float_columns
        assert cand.minpoly.degree == 4
        assert cand.value.gt(1) and all(m.lt(Fraction(1, 2)) for m in cand.conjugate_moduli)

    def test_a_finisher_run_at_a_3999_bit_scale_takes_seconds(self, monkeypatch):
        # At epsilon 10^-300 the lattice's norms span more than the float
        # range, the float pass stops early and no candidate of it
        # certifies. The finisher then took 5.7 s on the all-integer kernel;
        # its answer is pinned by digest.
        real_float, real_finish = pisotsearch.float_reduce, pisotsearch.finish_reduce
        lattices, finished = [], []

        def float_pass(lat):
            lattices.append(lat)
            return real_float(lat)

        def finish(result):
            finished.append(real_finish(result))
            return finished[-1]

        monkeypatch.setattr(pisotsearch, "float_reduce", float_pass)
        monkeypatch.setattr(pisotsearch, "finish_reduce", finish)
        start = time.perf_counter()
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 10**300))
        assert time.perf_counter() - start < 2
        assert cand.minpoly.degree == 4
        assert all(m.lt(Fraction(1, 10**300)) for m in cand.conjugate_moduli)
        digest = hashlib.sha256(",".join(map(str, cand.coefficients)).encode()).hexdigest()
        assert digest == "ec5d6373e844f0a062231c5a5040c2f8e38ceec9aa019c7936a0243b38c6f988"
        assert len(finished) == 1
        assert check_reduced(finished[0], lattices[-1]).all_ok

    def test_reaches_the_paper_scale_when_every_smaller_P_fails(self, monkeypatch):
        # With every candidate below the ceiling rejected, the ladder climbs
        # to the paper's P and the search returns what a search at that P
        # alone returns: the degree-4 fixture.
        emb = cyclotomic_embeddings(15, 256)
        ceiling = compute_scale_P(4, emb.discriminant, Fraction(1, 2))
        real_build, real_verify = pisotsearch.build_scaled_lattice, pisotsearch.verify_pisot
        scales = []

        def build(emb, P, Q):
            scales.append((P, Q))
            return real_build(emb, P, Q)

        def verify(z, emb, epsilon):
            if scales[-1][0] < ceiling:
                raise errors.NotPisot("below the paper's scale")
            return real_verify(z, emb, epsilon)

        monkeypatch.setattr(pisotsearch, "build_scaled_lattice", build)
        monkeypatch.setattr(pisotsearch, "verify_pisot", verify)
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 2))
        assert cand.minpoly == IntPoly((1, 21, -229, -4899, 1))
        start = practical_scale_P(4, emb.discriminant, Fraction(1, 2))
        assert scales == [(start, DEFAULT_Q), (ceiling, DEFAULT_Q)]

    def test_search_failed_summarises_the_search(self, monkeypatch):
        def reject(z, emb, epsilon):
            raise errors.NotPisot("rejected")

        monkeypatch.setattr(pisotsearch, "verify_pisot", reject)
        with pytest.raises(errors.SearchFailed) as info:
            find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 2))
        # One rung below the ceiling (P = 8587, 14 bits), then the ceiling
        # (85769, 17 bits) with Q from 33 to 40 bits; the finisher ran in all.
        n = 1 + SEARCH_RETRY_CAP
        message = str(info.value)
        assert f"in {n} reductions (P of 14-17 bits, Q of 33-40 bits; " in message
        assert f"the exact finisher ran in {n} of them" in message
        tally = int(re.search(r"verdicts: NotPisot (\d+); last failure: rejected$", message).group(1))
        assert tally >= 4 * n

    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    @pytest.mark.parametrize("n", SMALL_SQUAREFREE)
    def test_no_answer_larger_than_at_the_paper_scale(self, monkeypatch, n, eps):
        spec = FieldSpec(kind="cyclotomic", conductor=n)
        cand = find_pisot(spec, eps)
        monkeypatch.setattr(pisotsearch, "practical_scale_P", compute_scale_P)
        disable_gaussian_rung(monkeypatch)
        assert_no_larger(cand, find_pisot(spec, eps))

    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    @pytest.mark.parametrize("n", SMALL_SQUAREFREE + (29, 31, 41))
    def test_no_answer_larger_than_without_the_gaussian_rung(self, monkeypatch, n, eps):
        spec = FieldSpec(kind="cyclotomic", conductor=n)
        cand = find_pisot(spec, eps)
        disable_gaussian_rung(monkeypatch)
        assert_no_larger(cand, find_pisot(spec, eps))

    def test_a_failed_gaussian_rung_climbs_without_the_finisher(self, monkeypatch):
        # Conductor 17 (k = 8) at epsilon 1/2: with every candidate below
        # practical_scale_P rejected, the float pass of the Gaussian rung is
        # the only work there, and the answer is the one of a search without
        # that rung.
        spec, eps = FieldSpec(kind="cyclotomic", conductor=17), Fraction(1, 2)
        disc = cyclotomic_embeddings(17, 256).discriminant
        low, start = gaussian_scale_P(8, disc, eps), practical_scale_P(8, disc, eps)
        real_build, real_finish = pisotsearch.build_scaled_lattice, pisotsearch.finish_reduce
        real_verify = pisotsearch.verify_pisot
        scales, finished_at = [], []

        def build(emb, P, Q):
            scales.append(P)
            return real_build(emb, P, Q)

        def finish(result):
            finished_at.append(scales[-1])
            return real_finish(result)

        def verify(z, emb, epsilon):
            if scales[-1] < start:
                raise errors.NotPisot("below practical_scale_P")
            return real_verify(z, emb, epsilon)

        monkeypatch.setattr(pisotsearch, "build_scaled_lattice", build)
        monkeypatch.setattr(pisotsearch, "finish_reduce", finish)
        monkeypatch.setattr(pisotsearch, "verify_pisot", verify)
        cand = find_pisot(spec, eps)
        assert scales == [low, start] and low < start
        assert low not in finished_at
        disable_gaussian_rung(monkeypatch)
        scales.clear()
        assert find_pisot(spec, eps).coefficients == cand.coefficients
        assert scales == [start]

    def test_search_failed_counts_the_gaussian_rung(self, monkeypatch):
        def reject(z, emb, epsilon):
            raise errors.NotPisot("rejected")

        monkeypatch.setattr(pisotsearch, "verify_pisot", reject)
        with pytest.raises(errors.SearchFailed) as info:
            find_pisot(FieldSpec(kind="cyclotomic", conductor=13), 1)
        # k = 6, disc = 13^5: the Gaussian rung (P of 6 bits), practical_scale_P
        # (18 bits) and one more ladder rung (24 bits) below the ceiling (25
        # bits); the finisher ran in every reduction but the first.
        n = 3 + SEARCH_RETRY_CAP
        message = str(info.value)
        assert f"in {n} reductions (P of 6-25 bits, Q of 33-40 bits; " in message
        assert f"the exact finisher ran in {n - 1} of them" in message

    def test_a_small_field_is_embedded_once(self, monkeypatch):
        # The lattice and the certified candidate both need the floor of 256
        # bits, so the search's one matrix serves both.
        built = []
        real_embeddings = pisotsearch.embeddings_for

        def embeddings(spec, bits):
            built.append(bits)
            return real_embeddings(spec, bits)

        monkeypatch.setattr(pisotsearch, "embeddings_for", embeddings)
        cand = find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 2))
        assert built == [256]
        assert cand.minpoly.degree == 4 and all(m.lt(Fraction(1, 2)) for m in cand.conjugate_moduli)

    def test_a_finer_matrix_serves_no_candidate(self, monkeypatch):
        # With every candidate sized at the floor of 256 bits and the lattice
        # at 505 or more (epsilon 1e-30), each candidate is certified at 256
        # bits, as `verify` would certify it, and not on the search's matrix.
        verified = []
        real_verify = pisotsearch.verify_pisot

        def verify(z, emb, epsilon):
            verified.append(emb.precision_bits)
            return real_verify(z, emb, epsilon)

        monkeypatch.setattr(pisotsearch, "verify_precision", lambda z, spec: pisotsearch.floor_bits(spec))
        monkeypatch.setattr(pisotsearch, "verify_pisot", verify)
        try:
            find_pisot(FieldSpec(kind="cyclotomic", conductor=15), Fraction(1, 10**30))
        except errors.SearchFailed:
            pass
        assert verified and set(verified) == {256}

    def test_bad_epsilon_rejected(self, monkeypatch):
        # Refused before any embedding is built.
        built = []
        monkeypatch.setattr(pisotsearch, "embeddings_for", lambda *args: built.append(args))
        for eps in (Fraction(3, 2), 0, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                find_pisot(FieldSpec(kind="cyclotomic", conductor=15), eps)
        assert not built


# The first 12 hex digits of the sha256 of each answer's coefficients, in
# conductor order, recorded while the float pass still recomputed every
# Gram-Schmidt row that a size reduction touched.
SWEEP_CONDUCTORS = tuple(n for n in range(5, 62) if n % 4 != 2)
SWEEP_DIGESTS = {
    Fraction(1): (
        "c381e5db8b5e 55cae35e8705 03ebfc2d40db 26849e91685d e56c1b138d9f d19b84a729d7 "
        "54527ddbd78d 43f7380b64fa 3d59ed9214f5 c0d0eb7a659f 9e08e438f5cf 11782c2a0a52 "
        "79e3651a287f 687c68f6b3b3 b2f919e87a37 60d37fd546c1 c91311ac7909 b7c7bbca6316 "
        "355cea7e5ed1 174b698a7f7a 49b76e198e94 56b04145e457 c8893a61d980 12c276e34ac5 "
        "b2ede7f9a597 5d0a82acdb6d 73d3cdb8574f 2601c25f06e9 67e85f4404d3 772f1f4c44db "
        "2943c356af87 816418ab5920 59376993b94c 19161a4ef599 ff5e30d12c53 489c1c8b6aaf "
        "5655c82a1535 e1686c3d06f8 30fa5837e448 94816ec5a29c f0dd916f62da 2fed12149ae1 "
        "93f950c527e9"
    ),
    Fraction(1, 2): (
        "af2ce27506ca 43593aea633e ed0b3c234edd a591ea78042d 27325e30028b d19b84a729d7 "
        "7c8762b6d090 0f2cd5f184a7 536027d39167 a2e64bec00ed c91bb1629490 d9fc1694429b "
        "09fd309003a3 acedcdac798f a6f519faef12 c97591d29065 73f8b373c0e5 bf598cbbefa3 "
        "4c23acadc710 f0ec1d93dd22 49a95d8affd3 87b2cbc3da5c db1d67fe7779 8bfd9031add6 "
        "9753296ba82e 7bdbf528b34f 783b0d92c75a dddf8295af7b 55b1606fd512 ebb2dfc948cb "
        "13cc16f1ab9c e069cddebb04 1bee43738f56 12e6fd861021 c8e0fae8346b 1d57543de778 "
        "493ddedf0091 4cc03818d678 9dd308add968 1591e3e2299b bfdee4c61b0b 88b8b8621919 "
        "fbc8f37dfa93"
    ),
    Fraction(1, 4): (
        "1c949469ea08 4a79ba69330b ed0b3c234edd 98647de2be77 057c72e85ece e083bf6e504b "
        "66b26c7ef6f3 a1bc53f6f7ec 2abbb91fd9cd 95868da18406 791ca3a25444 fe35dbbfdc76 "
        "a6e759650061 d3bc52c89c13 486e0d042868 4ff0b3fde4c2 727e28aa770d 9abedef87874 "
        "f0f821c39313 0117a1403840 45534522f4cb 6fc227b2226b a343549eb545 ff5ef44d1484 "
        "72cf417ce9e9 e7d986ed7faf 7ae0f0c5daf7 b514d2a42039 bf8aa9d2529f 7a078808d423 "
        "9f414beeca91 a4a66e368770 869fb0f8eba5 12574bfcdf44 aa83124e00ac 1e189aac21e7 "
        "cf53197d7a73 3f6a8648b2dc d49919f4db81 a12b2856f0b6 a4377596cce2 8021785ffdc1 "
        "f3fd07e4e05e"
    ),
}


class TestSweepAnswers:
    """The search's answers on the 129 inputs of conductors 5-61 with
    n != 2 mod 4 at epsilon 1, 1/2 and 1/4, the inputs on which the
    Gaussian rung was fitted. The float pass decides which candidate is
    certified first, so a change to its arithmetic that changes one of its
    decisions can change an answer here."""

    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    def test_answers_are_pinned(self, eps):
        found = {}
        for n in SWEEP_CONDUCTORS:
            z = find_pisot(FieldSpec(kind="cyclotomic", conductor=n), eps).coefficients
            found[n] = hashlib.sha256(",".join(map(str, z)).encode()).hexdigest()[:12]
        assert found == dict(zip(SWEEP_CONDUCTORS, SWEEP_DIGESTS[eps].split()))


def disable_gaussian_rung(monkeypatch):
    monkeypatch.setattr(pisotsearch, "GAUSSIAN_MIN_DEGREE", MAX_SEARCH_DEGREE + 1)


def assert_no_larger(cand, other):
    """cand's certified value is other's, or lies wholly below it."""
    if cand.coefficients != other.coefficients:
        upper = Fraction(cand.value.center + cand.value.radius, 1 << cand.value.scale)
        lower = Fraction(other.value.center - other.value.radius, 1 << other.value.scale)
        assert upper < lower


class TestMinkowskiBound:
    def test_fixture_value(self):
        b = minkowski_bound(4, 1125, Fraction(1, 2))
        assert float(mid(b)) == pytest.approx(268.328157, abs=1e-5)

    def test_digits_under_the_default_digit_limit(self):
        b = minkowski_bound(75, 5, Fraction(1, 10**100))
        with int_str_limit(4300):
            text = b.digits(20)
        assert text == "2.2360679774997896964e+7400"
        assert Decimal(text) == decimal_reference(b.center, b.scale, 20)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            minkowski_bound(4, 1125, 1)
