"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see
the lines as they happen; without -s they appear in captured output.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pisot.algebraic import FieldSpec, IntPoly, analyze_minpoly, cyclotomic_embeddings
from pisot.lattice import IntLattice, lll_reduce
from pisot.pisotsearch import compute_scale_P, find_pisot, verify_pisot
from pisot.powtrace import nearest_power, nearest_power_mod
from pisot.slp import emit_power_slp, format_slp, parse_slp, slp_eval, slp_length
from conftest import lucas_sequence, newton_power_sums, perrin_sequence
from oracles import check_reduced, companion_matrix, matpow, mid, svp_bruteforce

GOLDEN = IntPoly((-1, -1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def golden_info():
    return analyze_minpoly(GOLDEN)


@pytest.fixture(scope="module")
def plastic_info():
    return analyze_minpoly(PLASTIC)


def test_criterion_1_lucas_oracle(golden_info):
    oracle = lucas_sequence(200)
    t0 = time.monotonic()
    ok = all(nearest_power(golden_info, n) == oracle[n] for n in range(2, 201))
    elapsed = time.monotonic() - t0
    report(1, "Lucas oracle, 2 <= n <= 200", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_perrin_oracle_and_thresholds(golden_info, plastic_info):
    oracle = perrin_sequence(200)
    values_ok = all(
        nearest_power(plastic_info, n) == oracle[n] for n in range(10, 201)
    )
    thresholds_ok = plastic_info.threshold_n0 == 10 and golden_info.threshold_n0 == 2
    report(
        2,
        "Perrin oracle, 10 <= n <= 200, thresholds n0=10 and n0=2",
        values_ok and thresholds_ok,
    )


def test_criterion_3_modular_consistency(golden_info, plastic_info):
    rng = random.Random(20240817)
    ok = True
    for _ in range(100):
        f, info = rng.choice(((GOLDEN, golden_info), (PLASTIC, plastic_info)))
        n = rng.randint(0, 2000)
        m = rng.randint(2, 1 << 32)
        if nearest_power_mod(info, n, m) != nearest_power(info, n) % m:
            ok = False
            break
    t0 = time.monotonic()
    nearest_power_mod(golden_info, 10**18, 2**61 - 1)
    elapsed = time.monotonic() - t0
    report(
        3,
        "modular consistency (100 pairs) and n=10^18 mod 2^61-1",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s for the large case",
    )


def test_criterion_4_degree4_fixture():
    emb = cyclotomic_embeddings(15, 256)
    cand = verify_pisot((2105, 1215, 1440, 139), emb, Fraction(1, 2))
    moduli = sorted(float(mid(m)) for m in cand.conjugate_moduli)
    expected = sorted([0.063765, 0.065726, 0.048703])
    moduli_ok = cand.minpoly.degree == 4 and all(
        abs(a - b) < 1e-5 for a, b in zip(moduli, expected)
    )
    p_ok = compute_scale_P(4, emb.discriminant, Fraction(1, 2)) == 85769
    report(4, "conductor-15 fixture moduli and scale P = 85769", moduli_ok and p_ok)


def test_criterion_5_degree8_fixture():
    emb = cyclotomic_embeddings(17, 256)
    z = (
        24708871, 95498414, 202808109, 332145187,
        466041959, 586414924, 677007046, 725583357,
    )
    cand = verify_pisot(z, emb, 1)
    expected = sorted(
        [0.0395006, 0.0482680, 0.0649009, 0.0199902, 0.0579871, 0.0622097, 0.0360320]
    )
    moduli = sorted(float(mid(m)) for m in cand.conjugate_moduli)
    ok = cand.minpoly.degree == 8 and all(
        abs(a - b) < 1e-5 for a, b in zip(moduli, expected)
    )
    report(5, "conductor-17 fixture, seven conjugate moduli", ok)


def test_criterion_6_search_end_to_end():
    t0 = time.monotonic()
    c15 = find_pisot(
        FieldSpec(kind="cyclotomic", conductor=15),
        Fraction(1, 2),
    )
    t15 = time.monotonic() - t0
    ok15 = (
        c15.minpoly.degree == 4
        and c15.value.gt(1)
        and all(m.lt(Fraction(1, 2)) for m in c15.conjugate_moduli)
        and t15 < 10.0
    )
    t0 = time.monotonic()
    c17 = find_pisot(FieldSpec(kind="cyclotomic", conductor=17))
    t17 = time.monotonic() - t0
    ok17 = (
        c17.minpoly.degree == 8
        and c17.value.gt(1)
        and all(m.lt(1) for m in c17.conjugate_moduli)
        and t17 < 60.0
    )
    report(
        6,
        "end-to-end search, conductors 15 and 17",
        ok15 and ok17,
        f"{t15:.2f}s and {t17:.2f}s",
    )


def test_criterion_7_lll_property_suite():
    rng = random.Random(515)
    t0 = time.monotonic()
    ok = True
    for trial in range(100):
        k = 2 + trial % 7  # cycles through 2..8
        while True:
            cols = tuple(
                tuple(rng.randint(-(1 << 20), 1 << 20) for _ in range(k))
                for _ in range(k)
            )
            lat = IntLattice(cols)
            if lat.det() != 0:
                break
        res = lll_reduce(lat)
        if not check_reduced(res, lat).all_ok:
            ok = False
            break
        if k <= 5:
            _, _, opt = svp_bruteforce(res.reduced, coeff_bound=3)
            v1 = sum(x * x for x in res.reduced.basis[0])
            if v1 > 2 ** (k - 1) * opt:
                ok = False
                break
    elapsed = time.monotonic() - t0
    report(
        7,
        "LLL property suite, 100 random lattices",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_8_slp_suite(golden_info, plastic_info):
    rng = random.Random(88)
    ok = True
    for f, info in ((GOLDEN, golden_info), (PLASTIC, plastic_info)):
        d = f.degree
        k_f = (
            sum(
                2 * math.floor(math.log2(max(abs(c), 2))) + 2
                for c in f.coefficients[:-1]
            )
            + 2 * d
        )
        for _ in range(50):
            n = rng.randint(0, 10**4)
            p = emit_power_slp(info, n)
            exact = nearest_power(info, n)
            if slp_eval(p) != exact:
                ok = False
                break
            if slp_length(p) > k_f + 8 * d**3 * math.ceil(math.log2(max(n, 2))):
                ok = False
                break
            m = rng.randint(2, 1 << 32)
            if slp_eval(p, m) != nearest_power_mod(info, n, m):
                ok = False
                break
            text = format_slp(p)
            if parse_slp(text) != p or format_slp(parse_slp(text)) != text:
                ok = False
                break
        if not ok:
            break
    report(8, "SLP suite, 50 random n per polynomial", ok)


def test_criterion_9_power_sum_equivalence():
    polys = [
        GOLDEN,  # degree 2
        PLASTIC,  # degree 3
        IntPoly((-1, -1, -1, 1)),  # degree 3, x^3 - x^2 - x - 1
        IntPoly((1, 21, -229, -4899, 1)),  # degree 4 search fixture
        IntPoly((-1, -1, -1, -1, -1, 1)),  # degree 5, x^5 - x^4 - ... - 1
    ]
    ok = True
    for f in polys:
        sums = newton_power_sums(f.coefficients, 500)
        c = companion_matrix(f)
        for n in range(501):
            power = matpow(c, n)
            if sum(power[i][i] for i in range(f.degree)) != sums[n]:
                ok = False
                break
        if not ok:
            break
    report(9, "Newton-identity power sums vs companion traces, n <= 500", ok)
