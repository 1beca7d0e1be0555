"""Nearest-integer powers via power sums, exact and modular, checked against
companion-matrix traces."""

import contextlib
import dataclasses
import decimal
import hashlib
import math
import random

import mpmath
import pytest

from pisot import algebraic, errors, powtrace
from pisot.algebraic import IntPoly, analyze_minpoly
from pisot.powtrace import nearest_power, nearest_power_mod, power_sum
from pisot.slp import emit_power_slp, format_slp, slp_eval
from conftest import newton_power_sums, pisot_shaped
from oracles import companion_matrix, matpow, nearest_power_oracle, polyroots_oracle

GOLDEN = IntPoly((-1, -1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))


@pytest.fixture(scope="module")
def golden_info():
    return analyze_minpoly(GOLDEN)


@pytest.fixture(scope="module")
def plastic_info():
    return analyze_minpoly(PLASTIC)


class TestCompanionMatrix:
    def test_golden_shape(self):
        c = companion_matrix(GOLDEN)
        assert c.rows == ((0, 1), (1, 1))
        assert c.trace() == 1

    def test_plastic_shape(self):
        c = companion_matrix(PLASTIC)
        assert c.rows == ((0, 0, 1), (1, 0, 1), (0, 1, 0))

    def test_requires_monic(self):
        with pytest.raises(errors.NotMonic):
            companion_matrix(IntPoly((1, 1, 2)))


class TestMatpow:
    def test_fibonacci_matrix(self):
        c = companion_matrix(GOLDEN)
        assert matpow(c, 10) == ((34, 55), (55, 89))
        assert matpow(c, 0) == ((1, 0), (0, 1))
        assert matpow(c, 1) == c.rows

    def test_modular_consistency(self):
        c = companion_matrix(PLASTIC)
        exact = matpow(c, 37)
        modded = matpow(c, 37, 1000)
        assert modded == tuple(tuple(x % 1000 for x in row) for row in exact)

    def test_bad_modulus(self):
        c = companion_matrix(GOLDEN)
        with pytest.raises(errors.BadModulus):
            matpow(c, 5, 1)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            matpow(companion_matrix(GOLDEN), -1)


class TestNearestPower:
    def test_lucas(self, golden_info, lucas200):
        for n in range(2, 201):
            assert nearest_power(golden_info, n) == lucas200[n]

    def test_perrin(self, plastic_info, perrin200):
        for n in range(10, 201):
            assert nearest_power(plastic_info, n) == perrin200[n]

    def test_small_n_direct_path(self, golden_info, plastic_info):
        # below n0 the dominant root is powered directly and rounded
        assert nearest_power(golden_info, 0) == 1
        assert nearest_power(golden_info, 1) == 2  # [phi] = [1.618...]
        # plastic root ~1.3247: powers up to n0 = 10
        rho = 1.3247179572447460
        for n in range(1, 10):
            assert nearest_power(plastic_info, n) == round(rho**n)

    def test_negative_n(self, golden_info):
        with pytest.raises(ValueError):
            nearest_power(golden_info, -1)

    def test_direct_path_beyond_the_root_bits_cap(self):
        # |beta| ~ 0.9995 puts n0 near 2770, so alpha^2000 (about 19,950
        # bits) is powered directly and needs roots past MAX_WORK_BITS / 2.
        f = IntPoly((-999, 0, -1000, 1))
        info = analyze_minpoly(f)
        n = 2000
        assert n < info.threshold_n0
        # alpha^n = p_n - 2 Re(beta^n), with p_n the trace of C(f)^n.
        power = matpow(companion_matrix(f), n)
        p_n = sum(power[i][i] for i in range(3))
        with mpmath.mp.workprec(256):
            beta = min(polyroots_oracle(f, 256), key=abs)
            small = 2 * (beta**n).real
            assert abs(small - mpmath.nint(small)) > 0.01
            expected = p_n - int(mpmath.nint(small))
        assert nearest_power(info, n) == expected


SUB_THRESHOLD = {f"{k}-nacci": IntPoly((-1,) * k + (1,)) for k in range(2, 31)}
SUB_THRESHOLD["x^3-1000x^2-999"] = IntPoly((-999, 0, -1000, 1))
SUB_THRESHOLD["plastic"] = PLASTIC
SUB_THRESHOLD["quartic"] = IntPoly((1, 21, -229, -4899, 1))


@pytest.mark.parametrize("f", SUB_THRESHOLD.values(), ids=SUB_THRESHOLD)
def test_every_power_below_the_threshold(f, monkeypatch):
    # p_n minus the rounded conjugate sum, against nint(alpha^n) from the
    # oracle, for every n < n0 up to 200 and at n0/2 and n0 - 1. The disks
    # of analyze_minpoly suffice: no root isolation runs again.
    info = analyze_minpoly(f)
    n0 = info.threshold_n0
    ns = sorted(set(range(min(n0, 201))) | {n0 // 2, n0 - 1})
    expected = nearest_power_oracle(f, ns)
    calls = []
    monkeypatch.setattr(algebraic, "root_layouts", lambda *args: calls.append(args))
    m = 2**61 - 1
    for n in ns:
        assert nearest_power(info, n) == expected[n]
        assert nearest_power_mod(info, n, m) == expected[n] % m
    assert not calls


def _undecided(info):
    """info with a small root's disk widened to radius 1/16: it still lies
    inside the unit disk, but n/16 per root leaves S_n undecided from n = 3
    on."""
    roots = list(info.roots)
    i = next(i for i in range(len(roots)) if i != info.dominant_index)
    roots[i] = dataclasses.replace(roots[i], radius=1 << (roots[i].scale - 4))
    return dataclasses.replace(info, roots=tuple(roots))


def test_undecided_rounding_isolates_the_roots_again(plastic_info, monkeypatch):
    # The roots are isolated again by a ladder that starts at twice the
    # precision, and the answers hold.
    info = _undecided(plastic_info)
    starts = []
    ladder = algebraic.root_layouts

    def counted(f, prec):
        starts.append(prec)
        return ladder(f, prec)

    monkeypatch.setattr(algebraic, "root_layouts", counted)
    rho = 1.3247179572447460
    assert [nearest_power(info, n) for n in range(10)] == [round(rho**n) for n in range(10)]
    assert starts and set(starts) == {2 * plastic_info.precision_bits}


def test_an_ambiguous_later_layout_is_skipped(plastic_info, monkeypatch):
    # The first layout of the new ladder has no verdict: `pisot_layouts`
    # skips it, and the next one rounds S_n.
    info = _undecided(plastic_info)
    certify, verdicts = algebraic._certify_pisot_roots, []

    def first_ambiguous(roots):
        verdicts.append("ambiguous" if not verdicts else certify(roots))
        return verdicts[-1]

    monkeypatch.setattr(algebraic, "_certify_pisot_roots", first_ambiguous)
    assert nearest_power(info, 9) == round(1.3247179572447460**9)
    assert verdicts == ["ambiguous", plastic_info.dominant_index]


def test_axpy_subtracts_for_minus_one():
    assert powtrace._axpy(5, -1, 3) == 2 and powtrace._axpy(None, -1, 3) == -3


class TestNearestPowerMod:
    def test_matches_exact(self, golden_info, plastic_info):
        rng = random.Random(2024)
        for f, info in ((GOLDEN, golden_info), (PLASTIC, plastic_info)):
            for _ in range(50):
                n = rng.randint(0, 2000)
                m = rng.randint(2, 1 << 32)
                assert nearest_power_mod(info, n, m) == nearest_power(info, n) % m

    def test_huge_exponent(self, golden_info):
        r = nearest_power_mod(golden_info, 10**18, 2**61 - 1)
        assert 0 <= r < 2**61 - 1

    def test_bad_modulus(self, golden_info):
        with pytest.raises(errors.BadModulus, match="modulus must be >= 2, got 0"):
            nearest_power_mod(golden_info, 5, 0)

    def test_negative_n(self, golden_info):
        # `power_sum` checks n, with its own wording.
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            nearest_power_mod(golden_info, -1, 7)


class TestNewtonIdentityOracle:
    """trace(C^n) must equal the power sums from the Newton identities.
    (The acceptance suite extends this check to n <= 500.)"""

    POLYS = [
        GOLDEN,
        PLASTIC,
        IntPoly((-1, -1, -1, 1)),  # x^3 - x^2 - x - 1 (tribonacci)
        IntPoly((1, 21, -229, -4899, 1)),  # quartic search fixture
        IntPoly((-1, 0, 0, -1, -1, 1)),  # x^5 - x^4 - x^3 - 1
    ]

    def test_traces_match_power_sums(self):
        for f in self.POLYS:
            sums = newton_power_sums(f.coefficients, 150)
            c = companion_matrix(f)
            for n in range(0, 151):
                assert sums[n] == sum(
                    matpow(c, n)[i][i] for i in range(f.degree)
                ), f"mismatch at n={n} for {f}"


def matpow_trace(f, n, m=None):
    power = matpow(companion_matrix(f), n, m)
    t = sum(power[i][i] for i in range(f.degree))
    return t if m is None else t % m


ENGINE_POLYS = [IntPoly((-1,) * k + (1,)) for k in (2, 3, 5, 8, 12)] + [
    pisot_shaped(d, random.Random(d)) for d in range(2, 13)
]


class TestPowerSumEngine:
    @pytest.mark.parametrize("f", ENGINE_POLYS, ids=str)
    def test_exact_matches_matpow(self, f):
        d = f.degree
        rng = random.Random(str(f))
        ns = list(range(0, 2 * d + 3)) + [rng.randint(2 * d, 600) for _ in range(20)]
        ns += [599, 600]
        for n in ns:
            assert power_sum(f, n) == matpow_trace(f, n), f"n={n}"

    @pytest.mark.parametrize("f", ENGINE_POLYS, ids=str)
    def test_modular_matches_matpow(self, f):
        rng = random.Random(str(f))
        for n in (10**19, rng.randint(0, 10**19), rng.randint(0, 10**6)):
            m = rng.randint(2, 1 << 64)
            assert power_sum(f, n, m) == matpow_trace(f, n, m), f"n={n}, m={m}"

    def test_recurrences_both_parities(self, lucas200, perrin200):
        # n < 2d returns a Newton power sum; beyond, odd and even n take
        # different read-off offsets
        for n in range(0, 201):
            assert power_sum(GOLDEN, n) == lucas200[n]
            assert power_sum(PLASTIC, n) == perrin200[n]
            assert power_sum(PLASTIC, n, 7) == perrin200[n] % 7

    def test_matches_newton_sums(self):
        for f in ENGINE_POLYS:
            sums = newton_power_sums(f.coefficients, 600)
            assert [power_sum(f, n) for n in range(601)] == sums, str(f)

    def test_negative_small_sum_reduced(self):
        f = IntPoly((-1, 0, 3, 1))  # p_1 = -3
        assert power_sum(f, 1) == -3
        assert power_sum(f, 1, 7) == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            power_sum(GOLDEN, -1)
        with pytest.raises(errors.BadModulus):
            power_sum(GOLDEN, 5, 1)
        with pytest.raises(errors.NotMonic):
            power_sum(IntPoly((1, 1, 2)), 5)
        with pytest.raises(ValueError):
            power_sum(IntPoly((0, -1, 1)), 5)


# Low coefficients that repeat a magnitude with both signs, among zeros and
# +-1: the reduction forms t*|c_i| once per magnitude, and each c_i must add
# or subtract it by its own sign, also into a coefficient that is still zero.
SHARED_MULTIPLES = [
    IntPoly((-2, 2, 0, -1, 2, -9, 1)),
    IntPoly((2, -2, 0, 1, -2, 0, 2, -12, 1)),
    IntPoly((3, -3, 3, 0, -1, 3, -3, 1)),
    IntPoly((-5, 0, 5, -5, 1, 5, 1)),
    IntPoly((2, 2, 2, -2, -2, 0, 2, 2, -1, -2, 2, -21, 1)),  # the benchmark's degree 12
]


class TestSharedMultiples:
    @pytest.mark.parametrize("f", SHARED_MULTIPLES, ids=str)
    def test_exact_matches_matpow(self, f):
        rng = random.Random(str(f))
        ns = list(range(0, 4 * f.degree)) + [rng.randint(4 * f.degree, 400) for _ in range(10)]
        with powtrace._exact_decimal():
            for n in ns:
                expected = matpow_trace(f, n)
                assert power_sum(f, n) == expected, f"n={n}"
                assert power_sum(f, n, lift=decimal.Decimal) == expected, f"n={n}"

    @pytest.mark.parametrize("f", SHARED_MULTIPLES, ids=str)
    def test_modular_matches_matpow(self, f):
        rng = random.Random(str(f))
        for n in (10**19, 2**63 - 1, 2**62, rng.randint(0, 10**19), rng.randint(0, 10**4)):
            m = rng.randint(2, 1 << 64)
            assert power_sum(f, n, m) == matpow_trace(f, n, m), f"n={n}, m={m}"

    @pytest.mark.parametrize("f", [f for f in SHARED_MULTIPLES if f.coefficients[-2] < -8], ids=str)
    def test_program_matches_matpow(self, f):
        # Perron's condition holds, so from n0 on [alpha^n] = p_n.
        info = analyze_minpoly(f)
        rng = random.Random(str(f))
        for n in (info.threshold_n0, 10**19, rng.randint(0, 10**19)):
            m = rng.randint(2, 1 << 64)
            program = emit_power_slp(info, n)
            assert slp_eval(program, m) == matpow_trace(f, n, m), f"n={n}, m={m}"


def square_oracle(r, b, c):
    """x^b r^2 mod f by schoolbook products and term-by-term reduction, for
    f = x^d + sum c_i x^i."""
    d = len(c)
    s = [0] * (2 * d - 1 + b)
    for i in range(d):
        for j in range(d):
            s[i + j + b] += r[i] * r[j]
    for e in range(len(s) - 1, d - 1, -1):
        t = s.pop()
        for i, v in enumerate(c):
            s[e - d + i] -= t * v
    return s


# Every degree from 1 to 12, the k-nacci up to degree 30, coefficients up to
# |c_i| = 23,434 (the searched quartic), and zero coefficients.
EVALUATION_POLYS = (
    [IntPoly((-3, 1))]
    + [pisot_shaped(d, random.Random(100 + d)) for d in range(2, 13)]
    + [IntPoly((-1,) * k + (1,)) for k in (3, 4, 7, 12, 20, 30)]
    + [
        PLASTIC,
        IntPoly((1, 21, -229, -4899, 1)),
        IntPoly((1, 31, -754, -23434, 1)),
        IntPoly((-1, 41, -418, 1)),
        IntPoly((-1, 0, 0, -1, -1, 1)),
    ]
    + SHARED_MULTIPLES
)


def _open_the_evaluation_gate(monkeypatch):
    """Every exact ring, at every degree, squares by evaluation from the
    first bit on."""
    monkeypatch.setattr(powtrace, "EVALUATION_MIN_DEGREE", 1)
    monkeypatch.setattr(powtrace, "EVALUATION_BITS_PER_DEGREE", 0)
    monkeypatch.setattr(powtrace, "EVALUATION_BITS_OVER_DEGREE", 0)


def _by_products(f, n, monkeypatch):
    """p_n on ints with both exact gates shut: schoolbook squares and a
    closing by d products."""
    with monkeypatch.context() as patch:
        patch.setattr(powtrace, "EVALUATION_MIN_DEGREE", f.degree + 1)
        patch.setattr(powtrace, "SQUARES_MIN_DIGITS", math.inf)
        return power_sum(f, n)


class TestEvaluationSquare:
    @pytest.mark.parametrize("f", EVALUATION_POLYS, ids=str)
    def test_step_matches_the_schoolbook_square(self, f):
        c = f.coefficients[:-1]
        d = len(c)
        rng = random.Random(str(f))
        vectors = [[0] * d, [1] + [0] * (d - 1), [-1] * d]
        for bits in (1, 8, 64, 300):
            for _ in range(3):
                r = [rng.randint(-(1 << bits), 1 << bits) for _ in range(d)]
                r[rng.randrange(d)] = 0
                vectors.append(r)
        step = powtrace._evaluation_square(c, int)
        with powtrace._exact_decimal():
            decimal_step = powtrace._evaluation_square(c, decimal.Decimal)
            for r in vectors:
                for b in (0, 1):
                    expected = square_oracle(r, b, c)
                    assert step(r, b) == expected, f"r={r}, b={b}"
                    lifted = [decimal.Decimal(v) for v in r]
                    assert decimal_step(lifted, b) == expected, f"r={r}, b={b}"

    @pytest.mark.parametrize("f", EVALUATION_POLYS, ids=str)
    def test_from_the_first_bit(self, f, monkeypatch):
        # With the gate open every bit squares by evaluation; the result is
        # the schoolbook engine's and the companion matrix's (the root's
        # power at degree 1).
        d = f.degree
        rng = random.Random(str(f))
        top = 600 if d <= 12 else 150
        ns = [0, 2 * d - 1, 2 * d, 2 * d + 1, top - 1, top]
        ns += [rng.randint(2 * d, top) for _ in range(6)]
        expected = {n: matpow_trace(f, n) if d > 1 else (-f.coefficients[0]) ** n for n in ns}
        for n in ns:
            assert power_sum(f, n) == expected[n], f"n={n}"
        _open_the_evaluation_gate(monkeypatch)
        for n in ns:
            assert power_sum(f, n) == expected[n], f"n={n}"
            assert power_sum(f, n, lift=decimal.Decimal) == expected[n], f"n={n}"


# Every degree from 1 to 30, the k-nacci, the benchmark's degree-12
# polynomial and polynomials with zero coefficients.
PACKED_POLYS = (
    [IntPoly((-3, 1))]
    + [pisot_shaped(d, random.Random(200 + d)) for d in range(2, 31)]
    + [IntPoly((-1,) * k + (1,)) for k in (3, 12, 30)]
    + SHARED_MULTIPLES
)
CAP = powtrace.PACKED_MAX_MODULUS_BITS
# 2, 3, an even m, a Mersenne prime, 10^19, the largest m the packed step
# takes and the first it leaves to the schoolbook.
PACKED_MODULI = [2, 3, 10**18 + 2, 2**61 - 1, 10**19, 2**CAP - 1, 2**CAP]


def _schoolbook(f, n, m, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(powtrace, "PACKED_MAX_MODULUS_BITS", 0)
        return power_sum(f, n, m)


def _steps(monkeypatch):
    """The packed steps that `power_sum` builds, recorded as (c, m)."""
    built = []
    build = powtrace._packed_square

    def recorded(c, m):
        built.append((c, m))
        return build(c, m)

    monkeypatch.setattr(powtrace, "_packed_square", recorded)
    return built


def _full_size_products(monkeypatch):
    """Every call of `powtrace._mul`, as (inside an evaluation step, a is b,
    padded): padded when both are Decimals and the shorter has
    PAD_MIN_DIGITS to SCHOOLBOOK_MAX_DIGITS digits, counted from str()."""
    calls, inside = [], [False]
    mul, build = powtrace._mul, powtrace._evaluation_square

    def recorded(a, b):
        padded = isinstance(a, decimal.Decimal) and isinstance(b, decimal.Decimal)
        if padded:
            shorter = min(len(str(abs(a))), len(str(abs(b))))
            padded = powtrace.PAD_MIN_DIGITS <= shorter <= powtrace.SCHOOLBOOK_MAX_DIGITS
        calls.append((inside[0], a is b, padded))
        return mul(a, b)

    def marked(c, lift):
        step = build(c, lift)

        def run(r, b):
            inside[0] = True
            try:
                return step(r, b)
            finally:
                inside[0] = False

        return run

    monkeypatch.setattr(powtrace, "_mul", recorded)
    monkeypatch.setattr(powtrace, "_evaluation_square", marked)
    return calls


def _closing(calls):
    """The closing's products among `_full_size_products`' calls, as
    (a is b, padded), and clears the record."""
    closing = [call[1:] for call in calls if not call[0]]
    calls.clear()
    return closing


class TestPackedSquare:
    @pytest.mark.parametrize("f", PACKED_POLYS, ids=str)
    def test_step_matches_the_schoolbook_square(self, f):
        c = f.coefficients[:-1]
        d = len(c)
        rng = random.Random(str(f))
        for m in PACKED_MODULI:
            step = powtrace._packed_square(c, m)
            vectors = [[0] * d, [1] + [0] * (d - 1), [m - 1] * d]
            vectors += [[rng.randrange(m) for _ in range(d)] for _ in range(3)]
            for r in vectors:
                for b in (0, 1):
                    expected = [v % m for v in square_oracle(r, b, c)]
                    assert step(r, b) == expected, f"m={m}, r={r}, b={b}"

    @pytest.mark.parametrize("f", PACKED_POLYS, ids=str)
    def test_power_sums_match_matpow_and_the_schoolbook(self, f, monkeypatch):
        # n of both parities, below 2d, at it and at the CLI's largest.
        # The companion matrix checks every case up to degree 12 and every
        # small n; above degree 12 the schoolbook checks the large n.
        d = f.degree
        built = _steps(monkeypatch)
        for m in PACKED_MODULI:
            for n in (0, 2 * d - 1, 2 * d, 2 * d + 1, 10**18, 10**19 - 1):
                built.clear()
                got = power_sum(f, n, m)
                assert bool(built) == (n >= 2 * d and m.bit_length() <= CAP), f"m={m}, n={n}"
                assert got == _schoolbook(f, n, m, monkeypatch), f"m={m}, n={n}"
                if d == 1:
                    assert got == pow(-f.coefficients[0], n, m), f"m={m}, n={n}"
                elif d <= 12 or n < 10**6:
                    assert got == matpow_trace(f, n, m), f"m={m}, n={n}"

    def test_the_largest_nacci_at_both_ends_of_the_gate(self):
        f = IntPoly((-1,) * 30 + (1,))
        for m in (2**CAP - 1, 2**CAP):
            assert power_sum(f, 10**19 - 1, m) == matpow_trace(f, 10**19 - 1, m), f"m={m}"

    def test_every_residue_at_its_largest(self):
        # The 30-nacci's coefficients are -1, so every residue is m - 1: r,
        # the fold rows and the coefficients. Each slot of the square then
        # holds up to 30 (m - 1)^2.
        m = 2**CAP - 1
        c = (-1,) * 30
        r = [m - 1] * 30
        expected = [v % m for v in square_oracle(r, 1, c)]
        assert powtrace._packed_square(c, m)(r, 1) == expected

    def test_a_slot_at_its_bound(self):
        # The fold's worst case: residues near m - 1 fill slot d - 1 of the
        # square with d - 1 products near m^2, the high slots reduce to
        # residues spread over [0, m), and every fold row has m - 1 in
        # column d - 1 (c is solved for that, one coefficient at a time).
        # The slot then needs every bit of 2 bits(m) + bits(2d): one fewer
        # and it would carry into the next slot.
        d, b, m = 30, 1, 2**CAP - 1
        rng = random.Random(30)
        c, tops = [0] * d, [0] * (d - 1) + [1]  # x^k mod f's top coefficient, k < d
        for j in range(d):
            c[d - 1 - j] = (1 - sum(c[i] * tops[j + i] for i in range(d - j, d))) % m or m
            tops.append(-sum(c[i] * tops[j + i] for i in range(d)) % m)
        assert tops[d:] == [m - 1] * d
        c = tuple(c)
        r = [m - 1 - rng.randrange(m >> 20) for _ in range(d)]
        square = [0] * (2 * d - 1 + b)
        for i in range(d):
            for j in range(d):
                square[i + j + b] += r[i] * r[j]
        top = square[d - 1] + (m - 1) * sum(v % m for v in square[d:])
        slot = 2 * m.bit_length() + (2 * d).bit_length()
        assert 1 << (slot - 1) <= top < 1 << slot
        expected = [v % m for v in square_oracle(r, b, c)]
        assert powtrace._packed_square(c, m)(r, b) == expected

    def test_which_step_runs_for_each_ring(self, monkeypatch):
        f = SHARED_MULTIPLES[-1]  # the benchmark's degree 12
        d = f.degree
        info = analyze_minpoly(f)
        n = 8_386_254_639_759_710_208
        calls = _full_size_products(monkeypatch)
        # The exact ring, squared by evaluation, closes by d squares once r
        # reaches SQUARES_MIN_DIGITS (alpha is about 21, so at n = 15,000 r
        # has about 9,900 digits), and by d products below.
        for exact_n, square in ((15_000, True), (13_000, False)):
            with powtrace._exact_decimal():
                nearest_power(info, exact_n, lift=decimal.Decimal)
            assert _closing(calls) == [(square, False)] * d, f"n={exact_n}"
        built = _steps(monkeypatch)
        evaluated = []
        monkeypatch.setattr(
            powtrace, "_evaluation_square", lambda c, lift: evaluated.append(lift)
        )
        # Integers mod m up to the cap pack, whatever the entry point, and
        # close by d products.
        for m in (2, 10**19, 2**CAP - 1):
            power_sum(f, n, m)
            nearest_power_mod(info, n, m)
            assert built == [(f.coefficients[:-1], m)] * 2
            assert _closing(calls) == [(False, False)] * 2 * d
            built.clear()
        # Above the cap, exact ints, Decimal, a lift of their own and
        # program instructions keep the schoolbook and the d products; no
        # ring here evaluates.
        power_sum(f, n, 2**CAP)
        nearest_power_mod(info, n, 2**CAP)
        power_sum(f, 1000)
        with powtrace._exact_decimal():
            power_sum(f, 1000, lift=decimal.Decimal)
        power_sum(f, n, 7, lift=lambda v: v % 7)
        assert _closing(calls) == [(False, False)] * 5 * d
        emit_power_slp(info, n)
        assert _closing(calls) == [(False, False)] * d
        # Residues mod an m above the cap never evaluate, so their
        # schoolbook step stays exact mod m.
        m = 2**200 + 235
        for small_n in (50, 101, 1000):
            assert power_sum(QUARTIC, small_n, m) == matpow_trace(QUARTIC, small_n, m)
        assert built == [] and evaluated == []


SWITCH_POLYS = [
    IntPoly((-1, -9, -20, 1)),
    IntPoly((1, 21, -229, -4899, 1)),
    pisot_shaped(7, random.Random(7)),
    SHARED_MULTIPLES[-1],  # the benchmark's degree 12
    IntPoly((-1,) * 30 + (1,)),
]


def _evaluation_starts(f):
    """The least j whose x^j mod f has a coefficient that opens the
    evaluation gate, measured as `power_sum` measures r, keyed by the ring:
    an int's digits are measured from its bit length, a Decimal's exactly."""
    c, d = f.coefficients[:-1], f.degree
    bits = powtrace.EVALUATION_BITS_PER_DEGREE * d + powtrace.EVALUATION_BITS_OVER_DEGREE / d
    starts, r, j = {}, [0] * (d - 1) + [1], d - 1
    # The int measure is never below the Decimal one, so the Decimal search
    # goes on from the int start.
    for lift in (int, decimal.Decimal):
        while powtrace._digits([lift(v) for v in r]) < bits * math.log10(2):
            r = [v - r[-1] * u for v, u in zip([0] + r[:-1], c)]
            j += 1
        starts[lift] = j
    return starts


@pytest.mark.parametrize("f", SWITCH_POLYS, ids=str)
def test_exact_powers_on_both_sides_of_the_switch(f, monkeypatch):
    # With the constants as they stand, x^j is squared by evaluation from
    # the least j0 whose x^j mod f reaches the gate's size on, and by
    # schoolbook products below, whatever the bit b of floor(n/2) that
    # follows. Ints and Decimal give the result of products alone.
    info = analyze_minpoly(f)
    steps = []
    build = powtrace._evaluation_square

    def recorded(c, lift):
        step = build(c, lift)

        def run(r, b):
            steps.append(b)
            return step(r, b)

        return run

    monkeypatch.setattr(powtrace, "_evaluation_square", recorded)
    expected = {}
    for lift, j0 in _evaluation_starts(f).items():
        assert j0 > 2 * f.degree and 4 * j0 - 4 >= info.threshold_n0
        for k, bits in (
            (2 * j0 - 2, []),
            (2 * j0 - 1, []),
            (2 * j0, [0]),
            (2 * j0 + 1, [1]),
            (8 * j0 + 2, [0, 1, 0]),
            (8 * j0 + 5, [1, 0, 1]),
        ):
            for n in (2 * k, 2 * k + 1):
                if n not in expected:
                    expected[n] = _by_products(f, n, monkeypatch)
                steps.clear()
                assert nearest_power(info, n, lift=lift) == expected[n], f"n={n}, {lift}"
                assert steps == bits, f"n={n}, {lift}"


def test_evaluation_takes_no_quadratic_field(golden_info, monkeypatch):
    # At d = 2 three squares would replace two squares and a product, so no
    # quadratic squares by evaluation; its exact closing still goes by two
    # squares once r is large (at n = 10^5 r has about 10,450 digits).
    calls = _full_size_products(monkeypatch)
    for n in (100_000, 100_001):
        expected = matpow_trace(GOLDEN, n)
        for lift in (int, decimal.Decimal):
            assert nearest_power(golden_info, n, lift=lift) == expected, f"n={n}, {lift}"
            assert calls == [(False, True, False)] * 2, f"n={n}, {lift}"
            calls.clear()


def test_benchmark_program_text_is_unchanged():
    # Programs keep the schoolbook square: this hash is the text that the
    # engine emitted before exact rings squared by evaluation.
    f = SHARED_MULTIPLES[-1]
    text = format_slp(emit_power_slp(analyze_minpoly(f), 8_386_254_639_759_710_208))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == "3d4d72bb61f17cf5ac23826d18d02c60fd1eef349cb6c08930ca657313da3b70"


def _hankel(f, odd):
    """H_ij = p_{i+j+odd} for the power sums p of the roots of f."""
    d = f.degree
    p = newton_power_sums(f.coefficients, 2 * d)
    return [[p[i + j + odd] for j in range(d)] for i in range(d)]


QUARTIC = IntPoly((1, 21, -229, -4899, 1))
X3_PLUS_2 = IntPoly((2, 0, 0, 1))  # p_1 = p_2 = 0: a zero-diagonal remainder
GOLDEN_SQUARED = IntPoly((1, 2, -1, -2, 1))  # (x^2 - x - 1)^2, rank 2
SQUARES_POLYS = [PLASTIC, X3_PLUS_2, GOLDEN_SQUARED] + [
    IntPoly((-1,) * k + (1,)) for k in range(3, 9)
]
# [[0, 1], [1, 0]] and a 3x3 one have no nonzero diagonal entry; the last
# three are singular.
SYMMETRIC = {
    "swap": [[0, 1], [1, 0]],
    "zero diagonal": [[0, 2, -3], [2, 0, 5], [-3, 5, 0]],
    "rank 1": [[2, -4, 6], [-4, 8, -12], [6, -12, 18]],
    "rank 2": [[1, 1, 2], [1, 0, 1], [2, 1, 3]],
    "zero": [[0, 0], [0, 0]],
}
SQUARES_MATRICES = dict(SYMMETRIC)
SQUARES_MATRICES.update(
    (f"{f} odd={odd}", _hankel(f, odd)) for f in SQUARES_POLYS for odd in (0, 1)
)


class TestSquareForms:
    @pytest.mark.parametrize("h", SQUARES_MATRICES.values(), ids=SQUARES_MATRICES)
    def test_squares_give_the_quadratic_form(self, h):
        forms, den = powtrace._square_forms(h)
        assert den > 0 and len(forms) <= len(h)
        rng = random.Random(str(h))
        vectors = [[0] * len(h), [1] * len(h)]
        vectors += [[rng.randint(-(10**40), 10**40) for _ in h] for _ in range(20)]
        for x in vectors:
            expected = sum(v * x[i] * x[j] for i, row in enumerate(h) for j, v in enumerate(row))
            total = sum(c * sum(v * t for v, t in zip(row, x)) ** 2 for c, row in forms)
            assert total % den == 0 and total // den == expected, f"x={x}"

    def test_one_form_per_rank(self):
        # rank(h) squares: d for a squarefree f with f(0) != 0, fewer for a
        # square, none for 0; a zero diagonal is eliminated two at a time.
        ranks = {"swap": 2, "zero diagonal": 3, "rank 1": 1, "rank 2": 2, "zero": 0}
        for name, rank in ranks.items():
            assert len(powtrace._square_forms(SYMMETRIC[name])[0]) == rank, name
        for f in SQUARES_POLYS:
            rank = 2 if f == GOLDEN_SQUARED else f.degree
            for odd in (0, 1):
                assert len(powtrace._square_forms(_hankel(f, odd))[0]) == rank, f"{f} odd={odd}"
        # x^3 + 2 at n even: after the pivot p_0 = 3 the remainder
        # [[0, -6], [-6, 0]] splits into (u + v)^2 and (u - v)^2.
        (c0, _), (c1, u_plus_v), (c2, u_minus_v) = powtrace._square_forms(_hankel(X3_PLUS_2, 0))[0]
        assert c1 == -c2 and u_plus_v[0] == u_minus_v[0] == 0

    @pytest.mark.parametrize("f", SQUARES_POLYS + [pisot_shaped(d, random.Random(300 + d)) for d in range(2, 13)], ids=str)
    def test_power_sums_with_the_gate_open(self, f, monkeypatch):
        # With SQUARES_MIN_DIGITS at 0 every n >= 2d closes by squares, here
        # after squares by evaluation from the first bit.
        monkeypatch.setattr(powtrace, "SQUARES_MIN_DIGITS", 0)
        _open_the_evaluation_gate(monkeypatch)
        calls = _full_size_products(monkeypatch)
        d = f.degree
        rank = 2 if f == GOLDEN_SQUARED else d
        rng = random.Random(str(f))
        ns = list(range(2 * d, 4 * d + 2)) + [rng.randint(4 * d, 400) for _ in range(6)]
        for n in ns:
            expected = matpow_trace(f, n)
            assert power_sum(f, n) == expected, f"n={n}"
            assert _closing(calls) == [(True, False)] * rank, f"n={n}"
            got = power_sum(f, n, lift=decimal.Decimal)
            assert got == expected and got.as_tuple().exponent == 0, f"n={n}"
            assert _closing(calls) == [(True, False)] * rank, f"n={n}"


LOW, HIGH = powtrace.PAD_MIN_DIGITS, powtrace.SCHOOLBOOK_MAX_DIGITS


def _number(digits, rng, sign=1):
    return sign * rng.randrange(10 ** (digits - 1), 10**digits)


class TestPaddedProduct:
    @pytest.mark.parametrize(
        "lengths",
        [(LOW - 1, LOW - 1), (LOW, LOW), (LOW, 3 * HIGH), (HIGH, HIGH), (HIGH + 1, HIGH + 1),
         (LOW - 1, 3 * HIGH), (3000, HIGH + 1), (HIGH, 2 * HIGH + 1), (3 * HIGH, 3 * HIGH), (1, HIGH)],
        ids=str,
    )
    def test_equals_the_int_product(self, lengths):
        rng = random.Random(str(lengths))
        with powtrace._exact_decimal() as ctx:
            traps = dict(ctx.traps)
            for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                a, b = (_number(k, rng, s) for k, s in zip(lengths, signs))
                pairs = [(decimal.Decimal(a), decimal.Decimal(b), a * b)]
                if lengths[0] == lengths[1]:
                    x = decimal.Decimal(a)
                    pairs.append((x, x, a * a))  # a is b: a square
                for x, y, expected in pairs:
                    got = powtrace._mul(x, y)
                    assert got == expected and got.as_tuple().exponent == 0
                    assert str(got).lstrip("-").isdigit() and str(got)[-1] == str(abs(expected) % 10)
                    assert powtrace._mul(y, x) == expected
            assert not any(ctx.flags.values()) and dict(ctx.traps) == traps

    def test_zero_and_ints(self):
        rng = random.Random(0)
        a = _number(3000, rng)
        with powtrace._exact_decimal() as ctx:
            zero = decimal.Decimal(0)
            for x, y in ((zero, decimal.Decimal(a)), (decimal.Decimal(a), zero), (zero, zero)):
                got = powtrace._mul(x, y)
                assert got == 0 and str(got) == "0"
            assert not any(ctx.flags.values())
        for x, y in ((a, a), (-a, 7), (0, a)):
            got = powtrace._mul(x, y)
            assert type(got) is int and got == x * y


# The cases of CI's step that compares exact pow with exact slp eval, and
# the path that each takes at the constants as they stand: the closing's
# products padded, the last evaluation step's squares padded, the closing
# by squares, the closing by squares where p_1 = 0, and a quadratic's
# closing by squares with no evaluation step.
CI_EXACT_CASES = [
    (QUARTIC, 2101, "padded closing"),
    (QUARTIC, 2102, "padded closing"),
    (QUARTIC, 4001, "padded squares"),
    (QUARTIC, 4002, "padded squares"),
    (QUARTIC, 6001, "squares closing"),
    (QUARTIC, 6002, "squares closing"),
    (PLASTIC, 160_001, "squares closing"),
    (PLASTIC, 160_002, "squares closing"),
    (IntPoly((1, -5, 1)), 30_001, "squares closing"),
    (IntPoly((1, -5, 1)), 30_002, "squares closing"),
]


@pytest.mark.parametrize("f, n, path", CI_EXACT_CASES, ids=lambda v: str(v))
def test_each_ci_case_takes_its_path(f, n, path, monkeypatch):
    d = f.degree
    calls = _full_size_products(monkeypatch)
    with powtrace._exact_decimal():
        got = nearest_power(analyze_minpoly(f), n, lift=decimal.Decimal)
    evaluation = [padded for inside, _, padded in calls if inside]
    closing = _closing(calls)
    assert bool(evaluation) == (d > 2) and len(closing) == d
    squares = {square for square, _ in closing}
    padded_closing = {padded for _, padded in closing}
    if path == "padded closing":
        assert not any(evaluation) and squares == {False} and padded_closing == {True}
    elif path == "padded squares":
        assert any(evaluation) and squares == {False} and padded_closing == {False}
    else:
        assert squares == {True}
    assert got == power_sum(f, n)


# x^3 - x - 1 at 1,000 has 123 digits, past a 28-digit context's precision.
# The 30-nacci at 782, below its n0 of 2,655, subtracts round(S_n) = 1.
LIBRARY_CASES = [(PLASTIC, 1000), (QUARTIC, 6002)] + [
    (IntPoly((-1,) * 30 + (1,)), n) for n in (782, 10**4)
]


@pytest.mark.parametrize("f, n", LIBRARY_CASES, ids=str)
@pytest.mark.parametrize("caller", [None, decimal.Context(prec=28)], ids=["no context", "prec=28"])
def test_decimal_lift_is_exact_in_any_caller_context(f, n, caller):
    # A library caller passes lift=Decimal without the exact context; the
    # results equal the int ones, and the caller's context is left as it was.
    info = analyze_minpoly(f)
    assert (n < info.threshold_n0) == (n == 782)
    program = emit_power_slp(info, n)
    expected = [nearest_power(info, n), power_sum(f, n), slp_eval(program)]
    with decimal.localcontext(caller) if caller else contextlib.nullcontext():
        ctx = decimal.getcontext()
        before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
        got = [
            nearest_power(info, n, lift=decimal.Decimal),
            power_sum(f, n, lift=decimal.Decimal),
            slp_eval(program, lift=decimal.Decimal),
        ]
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == before
    assert got == expected and all(v.as_tuple().exponent == 0 for v in got)


@pytest.mark.parametrize("n", [30_001, 30_002])
def test_a_quadratic_closes_by_two_squares(n, monkeypatch):
    # x^2 - 5x + 1 at n = 30,001: r has about 10,200 digits, past
    # SQUARES_MIN_DIGITS, and no evaluation step runs at d = 2.
    f = IntPoly((1, -5, 1))
    info = analyze_minpoly(f)
    expected = matpow_trace(f, n)
    calls = _full_size_products(monkeypatch)
    for lift in (int, decimal.Decimal):
        assert nearest_power(info, n, lift=lift) == expected, f"{lift}"
        assert calls == [(False, True, False)] * 2, f"{lift}"
        calls.clear()
