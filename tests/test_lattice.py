"""LLL reduction: correctness against an exact rational checker and a
brute-force shortest-vector oracle."""

import random
from fractions import Fraction

import pytest

from pisot import errors
from pisot.algebraic import FieldSpec, embeddings_for
from pisot.lattice import (
    IntLattice,
    _float_pass,
    _lll_columns,
    check_reduced,
    lll_reduce,
)
from pisot.pisotsearch import (
    DEFAULT_Q,
    build_scaled_lattice,
    compute_scale_P,
    practical_scale_P,
)
from oracles import DimensionTooLarge, float_pass_oracle, svp_bruteforce


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
        with pytest.raises(errors.RankDeficient):
            lll_reduce(IntLattice(((1, 2), (2, 4))))

    def test_bad_delta_rejected(self):
        lat = IntLattice(((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            lll_reduce(lat, Fraction(1, 4))
        with pytest.raises(ValueError):
            lll_reduce(lat, Fraction(1))

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

    @pytest.mark.parametrize("delta_num,delta_den", [(1, 2), (9, 10)])
    def test_other_deltas(self, delta_num, delta_den):
        rng = random.Random(delta_num * 31 + delta_den)
        lat = random_lattice(rng, 4, bound=10**6)
        res = lll_reduce(lat, Fraction(delta_num, delta_den))
        assert check_reduced(res, lat).all_ok

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
    reduced, transform = _lll_columns(
        lat.basis, delta.numerator, delta.denominator, identity(lat.k)
    )
    return tuple(map(tuple, reduced)), tuple(map(tuple, transform))


def assert_same_as_exact_kernel(lat: IntLattice, delta: Fraction):
    res = lll_reduce(lat, delta)
    reduced, transform = exact_kernel_alone(lat, delta)
    assert res.reduced.basis == reduced
    assert res.transform == transform


class TestFloatPass:
    """lll_reduce runs a floating-point pass before the exact kernel; it must
    return what the exact kernel returns on its own."""

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_random_bases_match_exact_kernel(self, k, delta):
        rng = random.Random(7919 * k + delta.denominator)
        for bits in (8, 64, 200):
            assert_same_as_exact_kernel(random_lattice(rng, k, 1 << bits), delta)

    @pytest.mark.parametrize("conductor", [15, 17, 29])
    def test_scaled_search_lattices_match_exact_kernel(self, conductor):
        # Conductor 17's lattice drives the float r_kk to <= 0 by cancellation.
        spec = FieldSpec(kind="cyclotomic", conductor=conductor)
        emb = embeddings_for(spec, 256)
        P = compute_scale_P(emb.k, emb.discriminant, 1)
        emb = embeddings_for(spec, max(256, P.bit_length() + DEFAULT_Q.bit_length() + 64))
        lat = build_scaled_lattice(emb, P, DEFAULT_Q)
        assert_same_as_exact_kernel(lat, Fraction(3, 4))

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
        # The float pass alone already reaches the exact kernel's basis.
        b, u = [list(col) for col in lat.basis], identity(5)
        _float_pass(b, u, res.delta)
        assert tuple(map(tuple, b)) == res.reduced.basis
        assert tuple(map(tuple, u)) == res.transform

    def test_norms_spanning_more_than_the_float_range(self):
        # Shifted to fit the largest norm, the small ones underflow to 0.0:
        # the pass stops and the exact kernel reduces the rest.
        big = 1 << 2500
        lat = IntLattice(((big, 3, 1), (5, big + 1, 2), (1, 1, 7)))
        res = lll_reduce(lat)
        assert check_reduced(res, lat).all_ok

    def test_rank_deficient_large_rejected(self):
        rng = random.Random(5)
        cols = [tuple(rng.randint(-(1 << 100), 1 << 100) for _ in range(6)) for _ in range(5)]
        cols.append(tuple(a - 3 * b for a, b in zip(cols[0], cols[4])))
        with pytest.raises(errors.RankDeficient):
            lll_reduce(IntLattice(tuple(cols)))


def assert_same_as_float_pass_oracle(lat: IntLattice, delta: Fraction = Fraction(3, 4)):
    b, u = [list(col) for col in lat.basis], identity(lat.k)
    _float_pass(b, u, delta)
    b0, u0 = [list(col) for col in lat.basis], identity(lat.k)
    float_pass_oracle(b0, u0, delta)
    assert b == b0
    assert u == u0


class TestFloatPassOracle:
    """_float_pass recomputes only the Gram-Schmidt entries a column
    operation made stale, and forms b from u once, on exit. It must return
    the very b and u of the oracle, which recomputes every row and updates b
    with every column operation."""

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_random_bases(self, k, delta):
        rng = random.Random(7919 * k + delta.denominator)
        for bits in (8, 64, 200):
            assert_same_as_float_pass_oracle(random_lattice(rng, k, 1 << bits), delta)

    @pytest.mark.parametrize("scale", [practical_scale_P, compute_scale_P])
    @pytest.mark.parametrize("conductor", [15, 17, 29, 41, 61])
    def test_scaled_search_lattices(self, conductor, scale):
        # Conductor 17 at compute_scale_P drives the float r_kk to <= 0.
        spec = FieldSpec(kind="cyclotomic", conductor=conductor)
        emb = embeddings_for(spec, 256)
        P = scale(emb.k, emb.discriminant, 1)
        emb = embeddings_for(spec, max(256, P.bit_length() + DEFAULT_Q.bit_length() + 64))
        assert_same_as_float_pass_oracle(build_scaled_lattice(emb, P, DEFAULT_Q))

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
