"""Shared oracles: classical recurrences and Newton-identity power sums.

Everything here is computed independently of the package's companion-matrix
and ball-arithmetic machinery, so agreement is meaningful.
"""

from __future__ import annotations

import pytest

from pisot.algebraic import IntPoly


def lucas_sequence(limit: int) -> list[int]:
    """L_0 = 2, L_1 = 1, L_n = L_{n-1} + L_{n-2}."""
    seq = [2, 1]
    while len(seq) <= limit:
        seq.append(seq[-1] + seq[-2])
    return seq


def perrin_sequence(limit: int) -> list[int]:
    """P_0 = 3, P_1 = 0, P_2 = 2, P_n = P_{n-2} + P_{n-3}."""
    seq = [3, 0, 2]
    while len(seq) <= limit:
        seq.append(seq[-2] + seq[-3])
    return seq


def newton_power_sums(coefficients: tuple[int, ...], limit: int) -> list[int]:
    """Power sums s_n of the roots of a monic integer polynomial, via the
    Newton identities: with f = x^d + c_{d-1} x^{d-1} + ... + c_0,

        s_n = -n*c_{d-n} - sum_{i=1}^{n-1} c_{d-i} * s_{n-i}   for n <= d,
        s_n = -sum_{i=1}^{d} c_{d-i} * s_{n-i}                 for n > d,

    and s_0 = d. Pure integer recurrence, no linear algebra involved.
    """
    d = len(coefficients) - 1
    assert coefficients[-1] == 1
    s = [d]
    for n in range(1, limit + 1):
        total = -n * coefficients[d - n] if n <= d else 0
        for i in range(1, min(n - 1, d) + 1):
            total -= coefficients[d - i] * s[n - i]
        s.append(total)
    return s


def pisot_shaped(d: int, rng) -> IntPoly:
    """x^d - (2d+1) x^(d-1) + (terms with coefficients in {-1, 0, 1}),
    f(0) != 0. By Rouche's theorem on |x| = 1, d-1 roots lie inside the unit
    disk, so the last root is a real Pisot number."""
    low = [rng.choice((-1, 1))] + [rng.randint(-1, 1) for _ in range(d - 2)]
    return IntPoly(tuple(low) + (-(2 * d + 1), 1))


@pytest.fixture(scope="session")
def lucas200():
    return lucas_sequence(200)


@pytest.fixture(scope="session")
def perrin200():
    return perrin_sequence(200)
