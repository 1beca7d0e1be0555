"""Exact common-root decisions: `share_a_root` against the Sylvester
resultant, and the squarefree and reciprocal tests that run before any root
isolation."""

import random

import pytest

from pisot import errors
from pisot import roots as isolation
from pisot.algebraic import IntPoly, analyze_minpoly
from pisot.roots import root_layouts, share_a_root

from oracles import real_roots_oracle, sylvester_resultant


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(f):
    d = len(f) - 1
    return [(d - i) * c for i, c in enumerate(f[:-1])]


def _poly(rng, degree, size=9, lead_size=None):
    """Leading coefficient first, nonzero."""
    lead = rng.choice([-1, 1]) * rng.randint(1, lead_size or size)
    return [lead] + [rng.randint(-size, size) for _ in range(degree)]


def _pairs():
    rng = random.Random(13)
    pairs = {"random": [], "square": [], "reciprocal": [], "planted": [], "huge": [], "small": [],
             "sparse": []}
    for _ in range(100):
        pairs["random"].append((_poly(rng, rng.randint(1, 8), 3), _poly(rng, rng.randint(0, 8), 3)))
    for _ in range(40):
        h = _poly(rng, rng.randint(1, 3), 4)
        f = _mul(_mul(h, h), _poly(rng, rng.randint(0, 4), 4))
        pairs["square"].append((f, _derivative(f)))
    for _ in range(50):
        f = _poly(rng, rng.randint(1, 8), 3)
        if f[-1] == 0:
            f[-1] = 1
        if rng.random() < 0.5:
            # A palindromic factor shares every root with its reciprocal.
            half = _poly(rng, rng.randint(0, 2), 3)
            f = _mul(f, half + half[-2::-1])
        pairs["reciprocal"].append((f, f[::-1]))
    for _ in range(50):
        # non-monic h, and g.h against h or against k.h
        h = _poly(rng, rng.randint(1, 3), 5, lead_size=20)
        g = _poly(rng, rng.randint(0, 5), 5, lead_size=20)
        other = h if rng.random() < 0.5 else _mul(_poly(rng, rng.randint(0, 4), 5), h)
        pairs["planted"].append((_mul(g, h), other))
    for _ in range(30):
        big = 10**400
        f, g = _poly(rng, rng.randint(1, 4), big), _poly(rng, rng.randint(1, 4), big)
        if rng.random() < 0.5:
            h = _poly(rng, rng.randint(1, 2), big)
            f, g = _mul(f, h), _mul(g, h)
        pairs["huge"].append((f, g))
    for _ in range(30):
        c = rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(0, 400))
        pairs["small"].append((_poly(rng, 1, 10**rng.randint(0, 400)), [c]))
    for _ in range(60):
        # Mostly zero coefficients: the remainder sequence of f and f' drops
        # more than one degree at some steps, where an odd power of a
        # negative leading coefficient decides a member's sign.
        degree = rng.randint(3, 7)
        f = [rng.choice([-1, 1])] + [rng.choice([0, 0, 0, -1, 1, -2, 2]) for _ in range(degree)]
        f[-1] = f[-1] or 1
        pairs["sparse"].append((f, _derivative(f)))
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("family", PAIRS)
def test_share_a_root_agrees_with_the_sylvester_resultant(family):
    for f, g in PAIRS[family]:
        expected = sylvester_resultant(f, g) == 0
        assert share_a_root(f, g) == expected, (f, g)
        assert share_a_root(g, f) == expected, (g, f)


@pytest.mark.parametrize("family", ["square", "planted"])
def test_planted_common_factors_are_found(family):
    assert all(share_a_root(f, g) for f, g in PAIRS[family])


@pytest.mark.parametrize("family", PAIRS)
def test_the_remainder_sequence_counts_the_oracle_real_roots(family):
    # Sturm's count from the signed primitive remainder sequence of f and
    # f', against the oracle; None exactly when f has a repeated root.
    polys = [p for pair in PAIRS[family] for p in pair if len(p) > 1]
    for f_desc in polys:
        signs = isolation._real_root_signs(f_desc)
        count = None if signs is None else sum(signs)
        if share_a_root(f_desc, _derivative(f_desc)):
            assert count is None, f_desc
            continue
        bits = 1000 + 2 * max(abs(c) for c in f_desc).bit_length()
        assert count == real_roots_oracle(IntPoly(tuple(reversed(f_desc))), bits), f_desc


# Decided exactly, so no float or fixed-point solver may run.
NOT_PISOT = {
    "(x^3-x-1)^2": ((1, 2, 1, -2, -2, 0, 1), errors.NotSquarefree),
    "(x^2-x-1)^2": ((1, 2, -1, -2, 1), errors.NotSquarefree),
    "(x-1)(x^3-x-1)": ((1, 0, -1, -1, 1), errors.NotPisot),
}


@pytest.fixture
def no_numerics(monkeypatch):
    def ran(*args):
        raise AssertionError("root isolation ran")

    monkeypatch.setattr(isolation, "_float_starts", ran)
    monkeypatch.setattr(isolation, "_newton", ran)


@pytest.mark.parametrize("coeffs,error", NOT_PISOT.values(), ids=NOT_PISOT)
def test_rejected_before_any_numerics(coeffs, error, no_numerics):
    f = IntPoly(coeffs)
    with pytest.raises(error):
        analyze_minpoly(f)
    if error is errors.NotSquarefree:
        with pytest.raises(errors.NotSquarefree, match=r"gcd\(f, f'\)"):
            next(root_layouts(f, 64))
