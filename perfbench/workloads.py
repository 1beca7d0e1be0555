"""Seeded request lists for the three workloads.

A run is a fixed number of passes. Each pass is one request list whose
composition (how many requests of each class) is the same for every seed;
the seed draws the members of each class: conductors, epsilons, random
Pisot polynomials, exponents and moduli. That keeps the cost of a pass
nearly seed-independent, so medians over seeds are steady, while the
program only ever sees generated inputs. A run sends its list in ROUNDS
rounds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp

from oracles import (
    PisotPoly,
    check_exact_power,
    check_pisot_candidate,
    check_power_mod,
    check_threshold,
    coprime_reps,
    cyclotomic_rows,
    poly_str,
    power_basis_rows,
)

# Per-request time caps (seconds), enforced in-process with SIGALRM. Every
# request that gets its expected outcome today stays well inside its cap (the
# slowest, a Salem polynomial rejected after ~3.6 s, against 6 s); inputs
# that fail today and run longer count as timeouts.
CAP_S = {"search": 4.0, "powers": 20.0, "modular": 6.0}
CAP_LARGE_FIELD_S = 60.0  # find on fields of degree k >= 20

# A run sends its request list in this many rounds, and reports each
# request's median time over the rounds. The host's speed drifts by up to
# 1.7x in phases of seconds to minutes, and single samples, the fastest ones
# too, swing with it; the median of repeats spread over the run less so.
# Requests marked `once` (those of a second or more) go out in the first
# round only.
ROUNDS = {"search": 4, "powers": 4, "modular": 4}

# Seconds one pass takes over all its rounds at the commit that defined the
# benchmark (2-CPU host, pure-Python mpmath); --seconds / this gives the
# number of passes in the request list.
PASS_SECONDS = {"search": 31.0, "powers": 15.0, "modular": 28.0}

EPSILONS = ("1", "1/2", "1/4")
MAX_MODULUS = 10**19


@dataclass
class Request:
    argv: list[str]
    expect: str  # "value", or "reject" for a typed error
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong
    cap_s: float
    label: str  # the input, for reports
    before: Callable[[], object] | None = None  # untimed preparation
    once: bool = False  # sent in the first round only


def once(req: Request) -> Request:
    req.once = True
    return req


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _json_field(field: str, oracle: Callable) -> Callable[[str], str | None]:
    """Parse the CLI's --json line and hand one field to an oracle."""

    def check(stdout: str):
        try:
            value = json.loads(stdout)[field]
            if isinstance(value, str):
                value = int(value)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed answer {stdout[:80]!r}: {exc!r}"
        return oracle(value)

    return check


def _candidate(rows, epsilon: str) -> Callable[[str], str | None]:
    eps = Fraction(epsilon)

    def check(stdout: str):
        try:
            obj = json.loads(stdout)
        except ValueError as exc:
            return f"malformed answer {stdout[:80]!r}: {exc!r}"
        return check_pisot_candidate(obj, rows, eps)

    return check


def _log_uniform(lo_exp: float, hi_exp: float, strata: int, index: int, u: float) -> int:
    """Stratum `index` of `strata` equal slices of [10^lo, 10^hi] in log scale,
    drawn at offset u in [0, 1): the strata together are log-uniform."""
    t = (index + u) / strata
    return max(1, round(10 ** (lo_exp + (hi_exp - lo_exp) * t)))


class Generator:
    """Builds the passes of one run; caches root layouts across passes."""

    def __init__(self, workload: str, seed: int, passes: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.passes = passes
        self.workdir = workdir
        self._polys: dict[tuple, PisotPoly] = {}
        self._fields: dict[int, str] = {}

    def pisot(self, coeffs) -> PisotPoly:
        key = tuple(coeffs)
        if key not in self._polys:
            self._polys[key] = PisotPoly(key)
        return self._polys[key]

    def random_pisot(self, rng, d: int, margin: float = 0.02, lead: int | None = None) -> PisotPoly:
        """x^d - a x^(d-1) + small terms, kept only if the mpmath root check
        finds one real root above 1 + margin and the rest inside
        |z| < 1 - margin, with a nonzero constant term (hence irreducible).
        a = lead, or sum|c_i| + 2..4; both meet Perron's condition
        a > 1 + sum|c_i| and keep alpha ~ a in a narrow band, so exact powers
        cost about the same from draw to draw."""
        while True:
            low = [rng.randint(-2, 2) for _ in range(d - 1)]
            if low[0] == 0:
                continue
            s = sum(abs(c) for c in low)
            a = lead or rng.randint(s + 2, s + 4)
            poly = PisotPoly(tuple(low) + (-a, 1))
            if poly.is_pisot(margin):
                return poly

    def grid(self, index: int) -> float:
        """Offset in [0, 1) of pass `index` in each stratum: the passes of a
        run put n on a fixed log grid. The cost of an exact power grows
        exponentially across a stratum, so a seeded offset would move the
        slowest requests, and op_tail_ms with them, from seed to seed."""
        return (index + 0.5) / self.passes

    def build(self, index: int) -> list[list[Request]]:
        """Pass `index`: request groups in seeded order; a group (an SLP
        triple) runs in its own order."""
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        groups = [g if isinstance(g, list) else [g] for g in getattr(self, f"_{self.workload}")(rng, index)]
        rng.shuffle(groups)
        return groups

    # --- search ---------------------------------------------------------------
    #
    # Why: LLL is 74-87% of find time at k = 14-15 and 85-86% at k = 20-21;
    # non-squarefree conductors load embeddings_for instead, and conductor 31
    # at epsilon 1/4 loads verify_pisot before SearchFailed. No power or SLP
    # layer runs here. Conductors are all the CLI accepts up to 41, the first
    # with k >= 20, split into cost classes so that every pass holds the same
    # number of each.

    SMALL_SQUAREFREE = (5, 7, 11, 13, 15, 17, 19, 21, 23, 33, 35, 39)  # k <= 12
    MID_SQUAREFREE = ((29, "1"), (29, "1/2"), (29, "1/4"), (31, "1"), (31, "1/2"))  # k = 14, 15
    NON_SQUAREFREE_FAST = (8, 9, 12, 16, 20, 24)  # fail in 0.4-1.6 s today
    NON_SQUAREFREE_SLOW = (25, 27, 28, 32, 36, 40)  # fail after 4-11 s today
    # Coefficient vectors that the search returned, certified again by verify;
    # the last one is not Pisot (a conjugate has modulus 1.34).
    VERIFY_PINNED = (
        (15, "2105,1215,1440,139", "1/2", "value"),
        (7, "-45,-146,-227", "1/4", "value"),
        (17, "-24708871,-95498414,-202808109,-332145187,-466041959,-586414924,"
             "-677007046,-725583357", "1", "value"),
        (15, "1,0,0,0", "1", "reject"),
    )

    def _search_rows(self, n: int):
        # The cosine basis the CLI uses today, and the integral basis
        # {1, 2cos(2 pi j/n)} a search for non-squarefree conductors may adopt.
        return lambda dps: (cyclotomic_rows(n, dps), power_basis_rows(n, dps))

    def _find(self, n: int, eps: str) -> Request:
        k = len(coprime_reps(n))
        cap = CAP_LARGE_FIELD_S if k >= 20 else CAP_S["search"]
        return Request(
            ["find", "--conductor", str(n), "--epsilon", eps, "--json"],
            "value", _candidate(self._search_rows(n), eps), cap,
            f"find conductor={n} k={k} epsilon={eps}",
        )

    def _field_file(self, n: int) -> str:
        """Explicit FieldSpec of the conductor-n cosine field, 1024 stated bits."""
        if n not in self._fields:
            with mp.workprec(1100):
                rows = [[mpmath.nstr(x, 320) for x in row] for row in cyclotomic_rows(n, 340)]
            spec = {
                "kind": "explicit",
                "basis_labels": [f"2cos(2pi*{a}/{n})" for a in coprime_reps(n)],
                "embedding_rows": rows,
                "precision_bits": 1024,
            }
            path = os.path.join(self.workdir, f"field-{n}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(spec, fh)
            self._fields[n] = path
        return self._fields[n]

    def _search(self, rng, index):
        # Every small field at every epsilon, so that on every seed the median
        # request is a k = 8-9 field and the tail (11th slowest) a k = 11-12
        # field, behind the eight slower requests below.
        reqs = [self._find(n, eps) for n in self.SMALL_SQUAREFREE for eps in EPSILONS]
        reqs += [self._find(*rng.choice(self.MID_SQUAREFREE)) for _ in range(2)]
        # Known failures: the dependent basis of a non-squarefree conductor,
        # and one request that hits the cap today, drawn from SearchFailed at
        # 31 / 1/4, SearchFailed at 37 (k = 18) and a costly non-squarefree
        # conductor. One such request costs the cap once per run; each more
        # would add as much again.
        reqs.append(self._find(rng.choice(self.NON_SQUAREFREE_FAST), rng.choice(EPSILONS)))
        reqs.append(once(rng.choice((
            lambda: self._find(31, "1/4"),
            lambda: self._find(37, rng.choice(EPSILONS)),
            lambda: self._find(rng.choice(self.NON_SQUAREFREE_SLOW), rng.choice(EPSILONS)),
        ))()))
        reqs.append(once(self._find(41, "1")))  # k = 20; epsilon 1 keeps it near 10 s
        for n in (15, 29):
            eps = rng.choice(EPSILONS)
            reqs.append(Request(
                ["find", "--field", self._field_file(n), "--epsilon", eps, "--json"],
                "value", _candidate(lambda dps, n=n: (cyclotomic_rows(n, dps),), eps),
                CAP_S["search"], f"find --field conductor={n} epsilon={eps}",
            ))
        for n, coeffs, eps, expect in self.VERIFY_PINNED:
            reqs.append(Request(
                ["verify", "--conductor", str(n), f"--coeffs={coeffs}", "--epsilon", eps, "--json"],
                expect, _candidate(self._search_rows(n), eps), CAP_S["search"],
                f"verify conductor={n} coeffs={coeffs} epsilon={eps}",
            ))
        return reqs

    # --- powers ---------------------------------------------------------------
    #
    # Why: exact pow is big-integer companion-matrix squaring (the quartic
    # fixture takes ~0.2 s at n = 10^4 and ~6 s at 10^5); root isolation is
    # under 10 ms per polynomial and LLL is absent. n is log-uniform, split
    # into strata with one draw each so every pass covers the whole range.

    # Minimal polynomials the search returns for conductors 5, 7 and 15 at
    # epsilon 1, 1/2, 1/4 (the fourth quartic is the x^4-4899x^3 fixture).
    SEARCHED_MINPOLYS = (
        (1, -3, 1), (-1, -4, 1), (-1, -11, 1),
        (-1, -9, -20, 1), (-1, 19, -83, 1), (-1, 41, -418, 1),
        (1, 18, 14, -633, 1), (1, 21, -229, -4899, 1), (1, 31, -754, -23434, 1),
    )
    # Pisot polynomials with threshold n0 > 2, for n below the threshold,
    # where the dominant root is powered directly in ball arithmetic.
    SLOW_DECAY = ((-1, -1, -1, 1), (-1, -1, -1, -1, 1), (-1, -1, 0, 1))

    def _pow_exact(self, poly: PisotPoly, n: int) -> Request:
        return Request(
            ["pow", "--minpoly", poly_str(poly.coeffs), "-n", str(n), "--json"],
            "value", _json_field("result", lambda v: check_exact_power(poly, n, v)),
            CAP_S["powers"], f"pow minpoly={poly_str(poly.coeffs)} n={n}",
        )

    def _powers(self, rng, index):
        reqs = []
        # Four random polynomials of each degree, each with two of the eight
        # strata. The leading coefficient 2d + 1 fixes alpha near it, so the
        # seed changes the low coefficients but hardly the cost.
        u = self.grid(index)
        for d in (2, 3, 4):
            for k in range(4):
                poly = self.random_pisot(rng, d, lead=2 * d + 1)
                reqs += [self._pow_exact(poly, _log_uniform(3, 5, 8, j, u)) for j in (k, k + 4)]
        # Searched minpolys stay below 3*10^4 so that the x^4-23434x^3 one
        # does not take a whole pass by itself.
        for coeffs in self.SEARCHED_MINPOLYS:
            poly = self.pisot(coeffs)
            reqs += [self._pow_exact(poly, _log_uniform(3, 4.477, 4, j, u)) for j in range(4)]
        for coeffs in rng.sample(self.SLOW_DECAY, 2):
            poly = self.pisot(coeffs)
            reqs.append(self._pow_exact(poly, rng.randint(1, poly.n0 - 1)))
        return reqs

    # --- modular --------------------------------------------------------------
    #
    # Why: root isolation, the threshold scan and SLP emission and parsing
    # do the work here, while the modular power needs milliseconds. slp emit
    # writes a program and slp eval reads it, so shorter emission paid for by
    # slower parsing shows. k-nacci polynomials up to k = 30 bring thresholds
    # up to n0 = 2655. Three inputs per pass (about 4%) are monic non-Pisot
    # polynomials whose expected outcome is a typed error, one of each kind.

    SALEM = ((1, -1, -1, -1, 1), (1, -2, 1, -2, 1))
    TIMES_X_PM1 = ((-1, -2, 0, 1), (1, 0, -1, -1, 1))  # (x + 1)(x^2-x-1), (x - 1)(x^3-x-1)
    SQUARES = ((1, 2, -1, -2, 1), (1, 2, 1, -2, -2, 0, 1))  # (x^2-x-1)^2, (x^3-x-1)^2
    NON_PISOT = (SALEM, TIMES_X_PM1, SQUARES)

    @staticmethod
    def _knacci(k: int):
        return (-1,) * k + (1,)

    def _pow_mod(self, poly: PisotPoly, n: int, m: int) -> Request:
        return Request(
            ["pow", "--minpoly", poly_str(poly.coeffs), "-n", str(n), "-m", str(m), "--json"],
            "value", _json_field("result", lambda v: check_power_mod(poly, n, m, v)),
            CAP_S["modular"], f"pow minpoly={poly_str(poly.coeffs)} n={n} m={m}",
        )

    def _threshold(self, poly: PisotPoly) -> Request:
        return Request(
            ["threshold", "--minpoly", poly_str(poly.coeffs), "--json"],
            "value", _json_field("threshold_n0", lambda v: check_threshold(poly, v)),
            CAP_S["modular"], f"threshold minpoly={poly_str(poly.coeffs)}",
        )

    def _slp_triple(self, poly: PisotPoly, n: int, m: int, slot: int) -> list[Request]:
        """slp emit -o, slp eval -m on that file, and pow -m on the same input;
        both values must equal the oracle."""
        path = os.path.join(self.workdir, f"program-{slot}.slp")
        expr = poly_str(poly.coeffs)
        cap = CAP_S["modular"]
        label = f"minpoly={expr} n={n} m={m}"

        def emitted(_stdout):
            return None if os.path.exists(path) else "no program file written"

        emit = Request(["slp", "emit", "--minpoly", expr, "-n", str(n), "-o", path],
                       "value", emitted, cap, f"slp emit {label}",
                       before=lambda: os.path.exists(path) and os.remove(path))
        evaluate = Request(["slp", "eval", path, "-m", str(m), "--json"], "value",
                           _json_field("result", lambda v: check_power_mod(poly, n, m, v)),
                           cap, f"slp eval {label}")
        return [emit, evaluate, self._pow_mod(poly, n, m)]

    def _modular(self, rng, index):
        reqs = []
        # Three polynomials of each degree 2-12 for each request type, so a
        # run's degrees are fixed and only the coefficients vary with the
        # seed; there are enough of them that the median request is steady.
        degrees = [d for d in range(2, 13) for _ in range(3)]
        u = rng.random()
        order = rng.sample(range(len(degrees)), len(degrees))
        for j, d in zip(order, degrees):
            n = _log_uniform(3, 19, len(degrees), j, u)
            reqs.append(self._pow_mod(self.random_pisot(rng, d), n, rng.randrange(2, MAX_MODULUS)))
            reqs.append(self._threshold(self.random_pisot(rng, d)))
        # k-nacci: a pow -m with k in 2-15 and a threshold with k in 28-30,
        # so that every run holds the costliest requests (1.5-2.6 s) alike.
        n = _log_uniform(3, 19, 1, 0, rng.random())
        reqs.append(self._pow_mod(self.pisot(self._knacci(rng.randint(2, 15))), n,
                                  rng.randrange(2, MAX_MODULUS)))
        reqs.append(once(self._threshold(self.pisot(self._knacci(rng.randint(28, 30))))))
        # A k = 24-25 threshold (~1-1.5 s, arithmetic only).
        reqs.append(once(self._threshold(self.pisot(self._knacci(rng.randint(24, 25))))))
        # Two SLP triples. The degree-12 one with n in [10^18, 10^19] writes
        # the largest program of the run (~9 MB of text), so it sets
        # peak_rss_mib; its polynomial is fixed and n varies by 5% in log2 n.
        # The other has degree 2, 4 or 6.
        big = self._slp_triple(self.random_pisot(random.Random("slp-degree-12"), 12),
                               _log_uniform(18, 19, 1, 0, rng.random()),
                               rng.randrange(2, MAX_MODULUS), 0)
        small = self._slp_triple(self.random_pisot(rng, rng.choice((2, 4, 6))),
                                 _log_uniform(3, 19, 1, 0, rng.random()),
                                 rng.randrange(2, MAX_MODULUS), 1)
        reqs += [[once(r) for r in big], small]
        # One non-Pisot input of each kind per pass: a Salem polynomial
        # (~3 s to PrecisionExhausted), a Pisot polynomial times x +- 1
        # (~2 s), and the square of a Pisot polynomial, which hits the cap.
        for kind in self.NON_PISOT:
            expr = poly_str(rng.choice(kind))
            if rng.random() < 0.5:
                argv = ["threshold", "--minpoly", expr, "--json"]
            else:
                argv = ["pow", "--minpoly", expr, "-n", str(_log_uniform(3, 19, 1, 0, rng.random())),
                        "-m", str(rng.randrange(2, MAX_MODULUS)), "--json"]
            reqs.append(once(Request(argv, "reject", lambda _s: None, CAP_S["modular"],
                                     f"{argv[0]} non-Pisot minpoly={expr}")))
        return reqs
