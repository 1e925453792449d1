import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from charbox import (
    BasisMatrix,
    Box,
    EnumerationBudgetError,
    IntLattice,
    cached_field,
    classify_z,
    difference_box,
    f_count,
    first_minimum,
    gamma_z,
    gamma_z_contains,
    lambda1_star,
    minima_for_z,
    mult_matrix,
    polar_body,
    polar_of,
    successive_minima,
    sup_box_body,
)
from charbox.lattice import _NodeCounter, _dyadic_index, _shell_vectors
from charbox.sampling import small_edge_cap, rng_for, sample_basis, sample_ratio_z, sample_z
from oracles import frobenius_basis, mul_schoolbook, scaled_basis


def unit_grid(dim):
    return IntLattice(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))


def l1_ball_points(lambdas, budget):
    """#{c integer : sum |c_i| lambda_i <= budget}, exact in Fractions."""
    if not lambdas:
        return 1
    lam, rest = lambdas[0], lambdas[1:]
    return sum((2 if c else 1) * l1_ball_points(rest, budget - c * lam) for c in range(int(budget / lam) + 1))


def random_key_box(ctx, rng):
    basis = sample_basis(ctx, rng)
    cap = small_edge_cap(ctx.p)
    return Box(
        basis,
        tuple(int(v) for v in rng.integers(-ctx.p, ctx.p, size=ctx.n)),
        tuple(sorted(int(v) for v in rng.integers(1, cap + 1, size=ctx.n))),
    )


def z_from_ratio_set(box, rng):
    ctx = box.ctx
    idx = difference_box(box).element_indices()
    nz = idx[idx != 0]
    while True:
        xi, yi = (int(v) for v in rng.integers(0, len(nz), size=2))
        z = ctx.div(ctx.decode(int(nz[yi])), ctx.decode(int(nz[xi])))
        if not ctx.in_prime_subfield(z):
            return z


class TestSampleRatioZ:
    @pytest.mark.parametrize("p, n, H", [(31, 2, (1, 2)), (31, 3, (2, 3, 1)), (61, 2, (4, 3))])
    def test_matches_inline_draws_outside_prime_subfield(self, p, n, H):
        ctx = cached_field(p, n, seed=0)
        box = Box(sample_basis(ctx, rng_for(2, p, n)), (0,) * n, H)
        idx = difference_box(box).element_indices()
        nz = idx[idx != 0]
        ours, ref = rng_for(1, 31), rng_for(1, 31)
        for _ in range(25):
            z = sample_ratio_z(ctx, nz, ours)
            assert not ctx.in_prime_subfield(z)
            assert z == z_from_ratio_set(box, ref)  # the inline draws sample_ratio_z replaces
        assert ours.integers(2**62) == ref.integers(2**62)  # both streams stopped at one draw


class TestMultMatrix:
    def test_scalar_is_diagonal(self, f31_3, id_basis_31_3):
        ctx = cached_field(31, 3, seed=0)
        a = mult_matrix(ctx, id_basis_31_3, ctx.from_int(7))
        assert (a == 7 * np.eye(3, dtype=np.int64)).all()

    def test_zero_matrix(self, f31_3, id_basis_31_3):
        ctx = cached_field(31, 3, seed=0)
        assert not mult_matrix(ctx, id_basis_31_3, ctx.zero()).any()

    def test_against_field_arithmetic(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 0)
        basis = sample_basis(ctx, rng)
        z = ctx.decode(12345)
        a = mult_matrix(ctx, basis, z)
        for _ in range(100):
            coords = rng.integers(0, 31, size=3)
            x = basis.elem_from_coords(coords)
            lhs = tuple(int(v) for v in (a @ coords) % 31)
            assert lhs == basis.coords_of(ctx.mul(z, x))

    @pytest.mark.parametrize("p, n", [(31, 3), (101, 2)])
    def test_matches_per_column_products(self, p, n):
        # the n-product form: column i holds the omega-coordinates of z omega_i,
        # each product taken by schoolbook multiplication and long division
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(2, p, n)
        for _ in range(200):
            basis = sample_basis(ctx, rng)
            z = ctx.decode(int(rng.integers(0, ctx.q)))
            cols = [basis.coords_of(mul_schoolbook(z, basis.omega(i + 1), ctx.modulus, p)) for i in range(n)]
            a = mult_matrix(ctx, basis, z)
            assert a.dtype == np.int64 and a.T.tolist() == [list(c) for c in cols]


class TestGammaZ:
    def test_covolume_p_cubed(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 1))
        lat = gamma_z(ctx, basis, ctx.decode(999))
        assert lat.det == 31**3
        assert lat.covolume == 31**3

    def test_generators_belong(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 2))
        z = ctx.decode(777)
        lat = gamma_z(ctx, basis, z)
        for row in lat.rows:
            assert gamma_z_contains(ctx, basis, z, row)

    def test_solve_agrees_with_congruence(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 3)
        basis = sample_basis(ctx, rng)
        z = ctx.decode(4321)
        lat = gamma_z(ctx, basis, z)
        for _ in range(100):
            vec = [int(v) for v in rng.integers(-80, 80, size=6)]
            assert lat.contains(vec) == gamma_z_contains(ctx, basis, z, vec)


class TestSuccessiveMinima:
    def test_unit_grid_unit_cube(self):
        for n in (1, 2, 3):
            res = successive_minima(unit_grid(2 * n), sup_box_body((1,) * n))
            assert res.lambdas == (Fraction(1),) * (2 * n)
            assert res.minkowski_ok()

    def test_z_one_equal_edges(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 4))
        box = Box(basis, (0, 0, 0), (3, 3, 3))
        res = minima_for_z(box, ctx.one())
        assert res.lambdas[0] == Fraction(1, 3)
        assert res.witnesses[0] == (0, 0, 1, 0, 0, 1)  # (e_n, e_n)

    def test_witnesses_realize_gauges_and_membership(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 5)
        box = random_key_box(ctx, rng)
        z = sample_z(ctx, rng)
        res = minima_for_z(box, z)
        body = sup_box_body(box.H)
        for lam, wit in zip(res.lambdas, res.witnesses):
            assert body.gauge(wit, 1) == lam
            assert gamma_z_contains(ctx, box.basis, z, wit)

    def test_lower_bounds_for_nonsubfield_z(self):
        for (p, n) in ((31, 3), (61, 3), (31, 2)):
            ctx = cached_field(p, n, seed=0)
            rng = rng_for(1, 6, p, n)
            for _ in range(8):
                box = random_key_box(ctx, rng)
                z = sample_z(ctx, rng)
                res = minima_for_z(box, z)
                if n == 3:
                    assert res.lambdas[0] >= Fraction(1, box.H[1])
                    assert res.lambdas[1] >= Fraction(1, box.H[0])
                else:
                    assert res.lambdas[0] >= Fraction(1, box.H[0])

    def test_minkowski_certificate_random(self):
        ctx = cached_field(61, 2, seed=0)
        rng = rng_for(1, 7)
        for _ in range(10):
            box = random_key_box(ctx, rng)
            z = ctx.decode(int(rng.integers(1, ctx.q)))
            res = minima_for_z(box, z)
            lo, mid, hi = res.minkowski_certificate()
            assert lo <= mid <= hi

    def test_budget_error_at_small_budgets(self, f31_3):
        # z = 1, equal edges: lambda = (1/3,) * 3 + (16/3,) * 3, and the one
        # shell at U = 16/3 takes 173,182 nodes, so both budgets run out in it
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 8))
        box = Box(basis, (0, 0, 0), (3, 3, 3))
        for budget in (80, 500):
            with pytest.raises(EnumerationBudgetError, match=f"exceeded {budget} nodes"):
                minima_for_z(box, ctx.one(), node_budget=budget)

    def test_dimension_mismatch_is_a_value_error(self):
        # a 6-dim box body and a 2-dim polar on a 4-dim lattice: both entry
        # points refuse before any reduction or enumeration
        lat = unit_grid(4)
        for body in (sup_box_body((1, 2, 3)), polar_body((2,))):
            for minima in (successive_minima, first_minimum):
                with pytest.raises(ValueError, match="body dimension"):
                    minima(lat, body)

    def test_deterministic_witnesses(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 9)
        box = random_key_box(ctx, rng)
        z = sample_z(ctx, rng)
        a = minima_for_z(box, z)
        b = minima_for_z(box, z)
        assert a.lambdas == b.lambdas and a.witnesses == b.witnesses


class TestPolar:
    def test_integer_grid_self_dual(self):
        lat = unit_grid(4)
        dual = polar_of(lat)
        assert dual.rows == lat.rows and dual.denom == 1

    def test_covolume_product_one(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 10))
        lat = gamma_z(ctx, basis, ctx.decode(555))
        dual = polar_of(lat)
        assert lat.covolume * dual.covolume == 1

    def test_dual_contained_in_p_inverse_grid(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        basis = sample_basis(ctx, rng_for(1, 11))
        dual = polar_of(gamma_z(ctx, basis, ctx.decode(808)))
        assert dual.denom == 31  # Gamma_z^* inside p^{-1} Z^6

    def test_pairing_is_integral(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 12)
        basis = sample_basis(ctx, rng)
        lat = gamma_z(ctx, basis, ctx.decode(2025))
        dual = polar_of(lat)
        lat_vecs = lat.vectors()
        dual_vecs = dual.vectors()
        for _ in range(100):
            cu = [int(v) for v in rng.integers(-3, 4, size=6)]
            cv = [int(v) for v in rng.integers(-3, 4, size=6)]
            u = [sum(c * row[j] for c, row in zip(cu, dual_vecs)) for j in range(6)]
            v = [sum(c * row[j] for c, row in zip(cv, lat_vecs)) for j in range(6)]
            pairing = sum(a * b for a, b in zip(u, v))
            assert pairing.denominator == 1


class TestLambda1Star:
    def test_z_one_enumerated_value(self, f31_3, id_basis_31_3):
        ctx = cached_field(31, 3, seed=0)
        box = Box(id_basis_31_3, (0, 0, 0), (3, 3, 3))
        lam, wit = lambda1_star(box, ctx.one())
        assert lam <= Fraction(2 * 3, 31)
        dual = polar_of(gamma_z(ctx, id_basis_31_3, ctx.one()))
        assert dual.contains([Fraction(w, dual.denom) for w in wit])

    def test_lower_bound_h1_over_p(self):
        ctx = cached_field(61, 3, seed=0)
        rng = rng_for(1, 13)
        for _ in range(8):
            box = random_key_box(ctx, rng)
            z = sample_z(ctx, rng)
            lam, _ = lambda1_star(box, z)
            if lam <= 1:
                assert lam >= Fraction(box.H[0], 61)

    def test_transference_product_small(self):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 14)
        worst = Fraction(0)
        for _ in range(6):
            box = random_key_box(ctx, rng)
            z = z_from_ratio_set(box, rng)
            lam_star, _ = lambda1_star(box, z)
            res = minima_for_z(box, z)
            worst = max(worst, lam_star * res.lambdas[-1])
        assert worst <= 4  # Banaszczyk-type product stays O(1) at desk scale


class TestClassifyZ:
    def test_recovery_and_classes(self):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(1, 15)
        for _ in range(10):
            box = random_key_box(ctx, rng)
            z = z_from_ratio_set(box, rng)
            cls = classify_z(box, z)
            assert cls.recovered_z == z
            nb = box.normalize()
            weight = nb.H[1]
            assert Fraction(2) ** (cls.j - 1) <= weight * cls.lambdas[0] < Fraction(2) ** cls.j
            assert 1 <= cls.s <= 6
            if cls.j_star is not None:
                t = Fraction(31) * cls.lambda1_star / nb.H[0]
                assert Fraction(2) ** (cls.j_star - 1) <= t < Fraction(2) ** cls.j_star

    def test_dyadic_index_brackets(self):
        powers = [Fraction(2) ** k for k in range(-9, 10)]
        for t in [Fraction(a, b) for a in range(1, 70) for b in range(1, 70)] + powers:
            j = _dyadic_index(t)
            assert Fraction(2) ** (j - 1) <= t < Fraction(2) ** j
        with pytest.raises(ValueError):
            _dyadic_index(Fraction(0))

    def test_s_equals_count_of_small_lambdas(self):
        ctx = cached_field(31, 2, seed=0)
        rng = rng_for(1, 16)
        box = random_key_box(ctx, rng)
        z = z_from_ratio_set(box, rng)
        cls = classify_z(box, z)
        assert cls.s == sum(1 for lam in cls.lambdas if lam <= 1)

    def test_matches_fresh_kernels(self):
        for p, n in [(31, 2), (31, 3), (61, 2)]:
            ctx = cached_field(p, n, seed=0)
            rng = rng_for(3, p, n)
            for _ in range(3):
                cap = small_edge_cap(p)
                box = Box(sample_basis(ctx, rng), tuple(int(v) for v in rng.integers(-p, p, size=n)),
                          tuple(int(v) for v in rng.integers(1, cap + 1, size=n)))  # not normalized
                z = z_from_ratio_set(box, rng)
                cls = classify_z(box, z)
                nb = box.normalize()
                minima = minima_for_z(nb, z)
                lam_star, _ = lambda1_star(nb, z)
                assert cls.lambdas == minima.lambdas and cls.witness == minima.witnesses[0]
                assert cls.lambda1_star == lam_star
                assert cls.transference_product == lam_star * minima.lambdas[-1]

    def test_rejects_prime_subfield_z(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        box = Box(BasisMatrix.identity(ctx), (0, 0, 0), (3, 3, 3))
        with pytest.raises(ValueError, match="outside"):
            classify_z(box, ctx.from_int(5))

    def test_rejects_z_outside_Z(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        box = Box(BasisMatrix.identity(ctx), (0, 0, 0), (1, 1, 1))
        # find z outside the ratio set of the tiny difference box
        from charbox import ratio_set

        zs = ratio_set(ctx, difference_box(box).element_indices())
        z = next(
            ctx.decode(i)
            for i in range(2, ctx.q)
            if ctx.decode(i) not in zs and not ctx.in_prime_subfield(ctx.decode(i))
        )
        with pytest.raises(ValueError, match="not in Z"):
            classify_z(box, z)


class TestGaugeBodies:
    def test_box_gauge_values(self):
        body = sup_box_body((2, 5))
        assert body.gauge((2, 5, -2, 0), 1) == 1
        assert body.gauge((1, 0, 0, 0), 1) == Fraction(1, 2)
        assert body.volume() == 2**4 * 100

    def test_polar_gauge_values(self):
        body = polar_body((2, 5))
        assert body.gauge((1, 0, -1, 0), 1) == 4
        assert body.gauge((0, 1, 0, 0), 31) == Fraction(5, 31)
        assert body.volume() == Fraction(2**4, math.factorial(4) * 100)

    def test_minima_scale_with_body(self):
        # lambda of c*D is lambda/c: doubling weights halves every lambda
        lat = unit_grid(4)
        res1 = successive_minima(lat, sup_box_body((1, 1)))
        res2 = successive_minima(lat, sup_box_body((2, 2)))
        assert [a / 2 for a in res1.lambdas] == list(res2.lambdas)


class TestPolarDyadicInjectivity:
    def test_same_class_distinct_witnesses(self):
        # two z in the same polar dyadic class never share a first-minimum
        # witness while lambda_1^* < H_1 (a shared witness would force the
        # scaled vector to vanish mod p, pushing its gauge up to H_1)
        from collections import defaultdict

        for p, n, edges in ((31, 3, (2, 3, 3)), (61, 2, (2, 5)), (31, 3, (1, 1, 2))):
            ctx = cached_field(p, n, seed=0)
            rng = rng_for(1, 21, p, n)
            basis = sample_basis(ctx, rng)
            box = Box(basis, (0,) * n, edges)
            nz = difference_box(box).element_indices()
            nz = nz[nz != 0]
            seen = defaultdict(dict)
            tested = 0
            while tested < 40:
                xi, yi = (int(v) for v in rng.integers(0, len(nz), size=2))
                z = ctx.div(ctx.decode(int(nz[yi])), ctx.decode(int(nz[xi])))
                if ctx.in_prime_subfield(z):
                    continue
                lam, wit = lambda1_star(box, z)
                if lam > 1 or lam >= box.H[0]:
                    continue
                t = Fraction(p) * lam / box.H[0]
                j = 0
                while t >= 1:
                    t /= 2
                    j += 1
                previous = seen[j].get(wit)
                assert previous is None or previous == z, (p, n, j, wit)
                seen[j][wit] = z
                tested += 1


class TestLatticeEnergyIdentity:
    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2)])
    def test_f0_counts_gamma_points_in_the_closed_box(self, p, n):
        # f_0(z) = #{(x, y) in B0^2 : xz = y} = #{v in Gamma_z : |v_j| <= H_j},
        # the zero vector included: B0 = difference_box has ranges [-H_i, H_i]
        # with 2H_i + 1 <= p, so each pair is one lattice vector and back
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(1, 41, p, n)
        for _ in range(8):
            nb = random_key_box(ctx, rng).normalize()
            nz = difference_box(nb).element_indices()
            nz = nz[nz != 0]
            for z in (sample_ratio_z(ctx, nz, rng), sample_ratio_z(ctx, nz, rng), sample_z(ctx, rng)):
                shell = _shell_vectors(gamma_z(ctx, nb.basis, z), sup_box_body(nb.H), 1, _NodeCounter(10**6))
                assert f_count(ctx, difference_box(nb), z) == 1 + len(shell)

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2), (61, 3)])
    def test_f0_is_at_least_the_witness_l1_count(self, p, n):
        # the points sum c_i w_i over the witnesses w_i with sum |c_i| lambda_i
        # <= 1 are distinct (the w_i are independent) and have gauge <= 1, so
        # f_0(z) >= #{c in Z^2n : sum |c_i| lambda_i <= 1}, c = 0 included
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(2, 41, p, n)
        for _ in range(4):
            N = tuple(int(v) for v in rng.integers(-p, p, size=n))
            nb = Box(sample_basis(ctx, rng), N, tuple(int(v) for v in rng.integers(1, 4, size=n))).normalize()
            nz = difference_box(nb).element_indices()
            nz = nz[nz != 0]
            for _ in range(3):
                z = sample_ratio_z(ctx, nz, rng)
                count = l1_ball_points(minima_for_z(nb, z).lambdas, Fraction(1))
                assert f_count(ctx, difference_box(nb), z) >= count


class TestLatticeInvariances:
    """Scaling and Frobenius map Gamma_z to itself as a set of integer vectors,
    so the Hermite form and every minimum with its witness stay equal. The
    bases are transformed after normalize(), which orders them by H."""

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2), (4093, 2)])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_scaling_and_frobenius(self, p, n, seed):
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(seed, 43, p, n)
        nb = random_key_box(ctx, rng).normalize()
        z = sample_z(ctx, rng)
        lattice = gamma_z(ctx, nb.basis, z)
        minima = minima_for_z(nb, z)

        scaled = Box(scaled_basis(nb.basis, sample_z(ctx, rng, outside_prime_subfield=False)), nb.N, nb.H)
        assert gamma_z(ctx, scaled.basis, z)._hermite_form == lattice._hermite_form
        res = minima_for_z(scaled, z)
        assert (res.lambdas, res.witnesses) == (minima.lambdas, minima.witnesses)

        frob = Box(frobenius_basis(nb.basis), nb.N, nb.H)
        z_p = ctx.pow(z, p)
        assert gamma_z(ctx, frob.basis, z_p)._hermite_form == lattice._hermite_form
        res = minima_for_z(frob, z_p)
        assert (res.lambdas, res.witnesses) == (minima.lambdas, minima.witnesses)
