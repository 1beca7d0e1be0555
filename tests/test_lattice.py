"""LLL reduction: correctness against an exact rational checker, an
all-integer LLL and a brute-force shortest-vector oracle."""

import decimal
import math
import random
import types
from fractions import Fraction

import pytest

from pisot import errors, lattice
from pisot.algebraic import FieldSpec, embeddings_for
from pisot.lattice import (
    IntLattice,
    LLLResult,
    _float_pass,
    _gram,
    _is_reduced,
    _times,
    finish_reduce,
    float_reduce,
    lll_reduce,
)
from pisot.pisotsearch import (
    DEFAULT_Q,
    build_scaled_lattice,
    compute_scale_P,
    practical_scale_P,
)
from oracles import (
    DimensionTooLarge,
    check_reduced,
    float_pass_oracle,
    lll_columns,
    svp_bruteforce,
)


def random_lattice(rng: random.Random, k: int, bound: int = 1 << 20) -> IntLattice:
    while True:
        cols = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(k)
        )
        lat = IntLattice(cols)
        if lat.det() != 0:
            return lat


def norm_sq(v) -> int:
    return sum(x * x for x in v)


class TestIntLattice:
    def test_det_known(self):
        assert IntLattice(((2, 0), (0, 3))).det() == 6
        assert IntLattice(((1, 2), (3, 4))).det() == 4 - 6
        assert IntLattice(((1, 2), (2, 4))).det() == 0

    def test_det_matches_permanence_under_transpose_free_definition(self):
        # columns (1,0,0),(1,1,0),(1,1,1): upper-triangular by columns
        assert IntLattice(((1, 0, 0), (1, 1, 0), (1, 1, 1))).det() == 1

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntLattice(((1, 2), (3,)))


class TestLLL:
    def test_identity_fixed(self):
        lat = IntLattice(((1, 0), (0, 1)))
        res = lll_reduce(lat)
        assert res.reduced.basis == lat.basis
        assert check_reduced(res, lat).all_ok

    def test_classic_2d(self):
        # basis (1, 1), (1, 0): shortest vector has norm 1
        lat = IntLattice(((1, 1), (1, 0)))
        res = lll_reduce(lat)
        assert check_reduced(res, lat).all_ok
        assert norm_sq(res.reduced.basis[0]) == 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(errors.RankDeficient) as excinfo:
            lll_reduce(IntLattice(((1, 2), (2, 4))))
        assert excinfo.traceback[-1].name == "_is_reduced"

    def test_transform_reconstructs_basis(self):
        rng = random.Random(7)
        lat = random_lattice(rng, 4, bound=100)
        res = lll_reduce(lat)
        k = lat.k
        for j in range(k):
            recon = tuple(
                sum(lat.basis[l][i] * res.transform[j][l] for l in range(k))
                for i in range(k)
            )
            assert recon == res.reduced.basis[j]
        assert abs(IntLattice(res.transform).det()) == 1

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "k,bound",
        [pytest.param(k, 1 << 20, id=str(k)) for k in (2, 3, 5, 8)]
        # entries as long as the search's scaled lattices produce
        + [pytest.param(4, 1 << 200, id="4-2^200")],
    )
    def test_random_lattices_fully_reduced(self, seed, k, bound):
        rng = random.Random(1000 * k + seed)
        lat = random_lattice(rng, k, bound)
        res = lll_reduce(lat)
        report = check_reduced(res, lat)
        assert report.basis_product_ok
        assert report.unimodular_ok
        assert report.size_reduced_ok
        assert report.lovasz_ok

    def test_first_vector_within_hermite_factor(self):
        # ||v1||^2 <= 2^(k-1) * lambda_1^2 for delta = 3/4
        rng = random.Random(42)
        for k in (2, 3, 4, 5):
            lat = random_lattice(rng, k, bound=500)
            res = lll_reduce(lat)
            _, _, opt = svp_bruteforce(res.reduced, coeff_bound=4)
            assert norm_sq(res.reduced.basis[0]) <= 2 ** (k - 1) * opt


def identity(k: int) -> list[list[int]]:
    return [[int(i == j) for i in range(k)] for j in range(k)]


def exact_kernel_alone(lat: IntLattice, delta: Fraction):
    reduced, transform = lll_columns(
        lat.basis, delta.numerator, delta.denominator, identity(lat.k)
    )
    return tuple(map(tuple, reduced)), tuple(map(tuple, transform))


def assert_same_as_exact_kernel(lat: IntLattice):
    res = lll_reduce(lat)
    reduced, transform = exact_kernel_alone(lat, Fraction(3, 4))
    assert res.reduced.basis == reduced
    assert res.transform == transform
    assert check_reduced(res, lat).all_ok


# Three draws of random bases per dimension, each reduced as drawn. The
# reduction runs at delta = 3/4 alone; a draw is seeded by one of these
# deltas' denominators, as it was when the draws at 1/2 and 9/10 were first
# reduced at that delta, which found no mutant of the pass that the bases as
# drawn miss. The parameter keeps its name, and the cases theirs.
DELTAS = [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]


def random_bases(k: int, delta: Fraction):
    """Random bases with entries of 8, 64 and 200 bits, as drawn; `delta`
    selects the draw."""
    rng = random.Random(7919 * k + delta.denominator)
    for bits in (8, 64, 200):
        yield random_lattice(rng, k, 1 << bits)


def scaled_search_lattice(conductor: int, scale=compute_scale_P, epsilon=1) -> IntLattice:
    spec = FieldSpec(kind="cyclotomic", conductor=conductor)
    emb = embeddings_for(spec, 256)
    P = scale(emb.k, emb.discriminant, epsilon)
    emb = embeddings_for(spec, max(256, P.bit_length() + DEFAULT_Q.bit_length() + 64))
    return build_scaled_lattice(emb, P, DEFAULT_Q)


class TestFloatPass:
    """lll_reduce runs a floating-point pass, checks its result exactly and
    finishes it on Decimals where floats could not decide; it must return
    what the all-integer oracle kernel returns on its own."""

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("k", range(2, 13))
    def test_random_bases_match_exact_kernel(self, k, delta):
        for lat in random_bases(k, delta):
            assert_same_as_exact_kernel(lat)

    @pytest.mark.parametrize("conductor", [15, 17, 29])
    def test_scaled_search_lattices_match_exact_kernel(self, conductor):
        # Conductor 17's lattice drives the float r_kk to <= 0 by cancellation.
        assert_same_as_exact_kernel(scaled_search_lattice(conductor))

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_beyond_float_range(self, seed):
        # Inner products near 2^1400 overflow float() unless scaled first.
        rng = random.Random(600 + seed)
        lat = IntLattice(tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1 << 600, 1 << 700) for _ in range(5))
            for _ in range(5)
        ))
        assert lat.det() != 0
        res = lll_reduce(lat)
        assert check_reduced(res, lat).all_ok
        # The float pass alone already reaches the oracle kernel's basis.
        u = identity(5)
        _float_pass(u, _gram(lat.basis))
        assert tuple(map(tuple, u)) == res.transform

    def test_norms_spanning_more_than_the_float_range(self):
        # Shifted to fit the largest norm, the small ones underflow to 0.0:
        # the float pass stops and the Decimal pass reduces the rest.
        big = 1 << 2500
        assert_same_as_exact_kernel(IntLattice(((big, 3, 1), (5, big + 1, 2), (1, 1, 7))))

    def test_a_size_reduced_row_is_updated_in_place(self):
        # b_1 = 3 b_0 + (0, 1): the sweep subtracts 3 b_0, mu_10 goes from 3
        # to 0 in place, and r_11 = 1 stands, so of the new Gram row only
        # g_11 is read. The Decimal pass reads each Gram entry through
        # ctx.create_decimal, after one zero per row of r and of mu.
        reads = []

        class Counting(decimal.Context):
            def create_decimal(self, x=0):
                reads.append(x)
                return super().create_decimal(x)

        ctx = Counting(prec=20, traps=[decimal.FloatOperation])
        u = identity(2)
        with decimal.localcontext(ctx):
            _float_pass(u, _gram(((1, 0), (3, 1))), ctx)
        assert u == [[1, 0], [-3, 1]]
        assert reads == [0] * 4 + [1, 3, 10, 1]

    def test_a_six_digit_decimal_pass_takes_exact_decisions(self):
        # Far below finish_reduce's k + 16 = 36 digits, the Decimal pass
        # still makes exact LLL's decisions on conductor 41's lattice
        # (k = 20): where cancellation has eaten a row updated in place, its
        # r_kk is off by more than 10^-3 and the row is recomputed.
        lat = scaled_search_lattice(41, practical_scale_P)
        ctx = decimal.Context(prec=6, traps=[decimal.FloatOperation])
        u = identity(lat.k)
        with decimal.localcontext(ctx):
            _float_pass(u, _gram(lat.basis), ctx)
        assert tuple(map(tuple, u)) == exact_kernel_alone(lat, Fraction(3, 4))[1]

    def test_rank_deficient_large_rejected(self):
        rng = random.Random(5)
        cols = [tuple(rng.randint(-(1 << 100), 1 << 100) for _ in range(6)) for _ in range(5)]
        cols.append(tuple(a - 3 * b for a, b in zip(cols[0], cols[4])))
        with pytest.raises(errors.RankDeficient):
            lll_reduce(IntLattice(tuple(cols)))


def is_reduced(cols) -> bool:
    return _is_reduced(_gram(cols))


class TestExactCheck:
    """finish_reduce accepts a basis only on the exact integer test of
    size reduction and Lovasz; otherwise the Decimal pass reduces it."""

    def test_lovasz_failing_by_one_unit_is_rejected(self):
        # For orthogonal b_0, b_1, Lovasz at delta = 3/4 reads
        # 4|b_1|^2 >= 3|b_0|^2. First 4 * 6 = 3 * 8, equality, which is no
        # strict failure, so both passes keep the basis; then
        # 4 * 2 = 3 * 3 - 1, one unit short, and both swap. Each b_2 is
        # orthogonal to b_0 and b_1, and long.
        ctx = decimal.Context(prec=20, traps=[decimal.FloatOperation])
        for cols, holds in ((((2, 2, 0), (1, -1, 2), (2, -2, -2)), True),
                            (((1, 1, 1), (1, -1, 0), (1, 1, -2)), False)):
            lat = IntLattice(cols)
            assert is_reduced(cols) == holds
            assert check_reduced(LLLResult(lat, identity(3)), lat).lovasz_ok == holds
            for pass_ctx in (None, ctx):
                u = identity(3)
                with decimal.localcontext(ctx):
                    _float_pass(u, _gram(cols), pass_ctx)
                assert (u == identity(3)) == holds

    def test_size_reduction_bound_is_exact(self):
        # |b_0|^2 = 10: mu = 6/10 exceeds 1/2 by 1/D_1, and mu = +-5/10 is 1/2.
        assert not is_reduced(((3, 1), (0, 6)))
        assert is_reduced(((3, 1), (0, 5)))
        assert is_reduced(((3, 1), (0, -5)))

    def test_a_rejected_basis_is_finished_and_an_accepted_one_kept(self):
        for cols in (((3, 1), (0, 6)), ((3, 1), (0, 5))):
            lat = IntLattice(cols)
            res = finish_reduce(LLLResult(lat, tuple(map(tuple, identity(2)))))
            assert check_reduced(res, lat).all_ok
            assert (res.reduced.basis == lat.basis) == is_reduced(cols)

    def test_precision_doubles_until_the_check_passes(self, monkeypatch):
        # Conductor 15 at epsilon 10^-300: P has 3,999 bits, the float pass
        # stops early, and a 1-digit Decimal pass cannot finish either.
        lat = scaled_search_lattice(15, epsilon=Fraction(1, 10**300))
        passes, checks = [], []
        real_pass, real_check = lattice._float_pass, lattice._is_reduced

        def decimal_pass(u, g, ctx=None):
            passes.append(ctx.prec)
            real_pass(u, g, ctx)

        def check(g):
            checks.append(real_check(g))
            return checks[-1]

        result = float_reduce(lat)
        monkeypatch.setattr(lattice, "_start_digits", lambda k: 1)
        monkeypatch.setattr(lattice, "_float_pass", decimal_pass)
        monkeypatch.setattr(lattice, "_is_reduced", check)
        res = finish_reduce(result)
        assert passes[:2] == [1, 2] and passes == [2**i for i in range(len(passes))]
        assert checks == [False] * len(passes) + [True]
        assert check_reduced(res, lat).all_ok

    def test_the_decimal_context_of_the_caller_is_left_as_it_was(self, monkeypatch):
        big = 1 << 2500
        contexts = []
        real_pass = lattice._float_pass

        def recorded_pass(u, g, ctx=None):
            contexts.append(ctx)
            real_pass(u, g, ctx)

        monkeypatch.setattr(lattice, "_float_pass", recorded_pass)
        ctx = decimal.getcontext()
        prec = ctx.prec
        lll_reduce(IntLattice(((big, 3, 1), (5, big + 1, 2), (1, 1, 7))))
        assert contexts[0] is None and len(contexts) > 1
        assert decimal.getcontext() is ctx and ctx.prec == prec


def assert_same_as_float_pass_oracle(lat: IntLattice):
    u = identity(lat.k)
    _float_pass(u, _gram(lat.basis))
    b0, u0 = [list(col) for col in lat.basis], identity(lat.k)
    float_pass_oracle(b0, u0, Fraction(3, 4))
    assert u == u0
    assert _times(lat.basis, u) == b0


class TestFloatPassOracle:
    """_float_pass updates a Gram-Schmidt row in place after a size
    reduction while its r_kk agrees with the exact Gram matrix, sends a
    column that a swap moved down to its Lovasz test unswept, and leaves b
    to its callers, who form it from u. It must return the very u of the
    oracle, and that b, where the oracle recomputes the whole row after
    every sweep, sweeps every column it visits and updates b with every
    column operation."""

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("k", range(2, 13))
    def test_random_bases(self, k, delta):
        for lat in random_bases(k, delta):
            assert_same_as_float_pass_oracle(lat)

    @pytest.mark.parametrize("scale", [practical_scale_P, compute_scale_P])
    @pytest.mark.parametrize("conductor", [15, 17, 29, 41, 61, 71])
    def test_scaled_search_lattices(self, conductor, scale):
        # Conductor 17 at compute_scale_P drives the float r_kk to <= 0. At
        # 61 a row kept in place without the r_kk check, and at 71 (k = 35)
        # one kept within a relative tolerance of 1, lead to other decisions.
        assert_same_as_float_pass_oracle(scaled_search_lattice(conductor, scale))

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_beyond_float_range(self, seed):
        # Norms near 2^1400: the Gram entries are shifted before float().
        rng = random.Random(600 + seed)
        lat = IntLattice(tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1 << 600, 1 << 700) for _ in range(5))
            for _ in range(5)
        ))
        assert_same_as_float_pass_oracle(lat)

    def test_pass_that_stops_early(self):
        # After two swaps r_00 underflows to 0.0 and the pass stops; b must
        # still be original * u.
        big = 1 << 2500
        assert_same_as_float_pass_oracle(IntLattice(((big, 3, 1), (5, big + 1, 2), (1, 1, 7))))



class TestFloatPassExits:
    """Each early exit of the float pass leaves a unimodular transform that
    `finish_reduce` completes: the result passes the exact check."""

    @staticmethod
    def _finished(lat, result):
        assert check_reduced(finish_reduce(result), lat).all_ok

    @staticmethod
    def _math_with(**overrides):
        return types.SimpleNamespace(**{**vars(math), **overrides})

    def test_a_first_column_that_shifts_to_zero(self):
        # |b_0|^2 = 5 lies over 2^960 below the largest squared norm, so
        # r_00 is 0.0 after the common shift and the pass stops at once.
        big = 1 << 1000
        lat = IntLattice(((1, 2), (big + 3, big + 5)))
        result = float_reduce(lat)
        assert result.transform == ((1, 0), (0, 1))
        self._finished(lat, result)

    def test_a_norm_beyond_the_float_range(self, monkeypatch):
        # With the shift set to leave 1100 bits, |b_0|^2 does not fit a float.
        monkeypatch.setattr(lattice, "_FLOAT_BITS", 1100)
        big = 1 << 549
        lat = IntLattice(((big, big), (3, 1)))
        result = float_reduce(lat)
        assert result.transform == ((1, 0), (0, 1))
        monkeypatch.undo()
        self._finished(lat, result)

    def test_a_non_finite_mu(self, monkeypatch):
        monkeypatch.setattr(lattice, "math", self._math_with(isfinite=lambda x: False))
        lat = random_lattice(random.Random(7), 4)
        result = float_reduce(lat)
        assert result.transform == tuple(tuple(int(i == j) for i in range(4)) for j in range(4))
        monkeypatch.undo()
        self._finished(lat, result)

    def test_more_swaps_than_exact_lll_makes(self, monkeypatch):
        # A budget of no swap, from a Gram matrix whose squared norms claim
        # to be 0 bits long: the pass stops at its first swap.
        class NoBits(int):
            def bit_length(self):
                return 0

        real_gram = lattice._gram

        def gram(cols):
            g = real_gram(cols)
            for i, row in enumerate(g):
                row[i] = NoBits(row[i])
            return g

        monkeypatch.setattr(lattice, "_gram", gram)
        lat = IntLattice(((5, 0), (1, 1)))
        result = float_reduce(lat)
        assert result.transform == ((0, 1), (1, 0))
        monkeypatch.undo()
        self._finished(lat, result)


class TestSVP:
    def test_known_shortest(self):
        lat = IntLattice(((2, 0), (1, 2)))
        vec, coeffs, n = svp_bruteforce(lat, 3)
        assert n == 4  # (2,0) and (1,2)... (2,0) has norm 4, (1,2) has norm 5
        assert norm_sq(vec) == n

    def test_canonical_sign(self):
        lat = IntLattice(((0, -3), (2, 0)))
        vec, coeffs, n = svp_bruteforce(lat, 2)
        assert vec == (2, 0) and n == 4
        assert coeffs[next(i for i, c in enumerate(coeffs) if c)] > 0

    def test_dimension_cap(self):
        cols = tuple(
            tuple(1 if i == j else 0 for i in range(7)) for j in range(7)
        )
        with pytest.raises(DimensionTooLarge):
            svp_bruteforce(IntLattice(cols), 1)
