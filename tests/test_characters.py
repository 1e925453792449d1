import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from charbox import (
    Box,
    Character,
    box_char_sum,
    cached_field,
    complete_poly_char_sum,
    energy,
    generator_interval_sum,
    interval_sums_scan,
    scaled_box,
    tau_profile,
)
from charbox.sampling import rng_for, sample_basis, sample_character, sample_z, small_edge_cap
from charbox.boxes import tall_walk
from oracles import check_tall_split, frobenius_basis, scaled_basis, seeded_basis, subinterval_abs_triangle


class TestEvaluation:
    def test_at_one_and_zero(self, f31_2):
        chi = Character(f31_2, 17)
        assert chi.value(f31_2.one()) == 1
        assert chi.value(f31_2.zero()) == 0

    def test_at_generator(self, f31_2):
        k = 5
        chi = Character(f31_2, k)
        expected = cmath.exp(2j * cmath.pi * k / (f31_2.q - 1))
        assert abs(chi.value(f31_2.g) - expected) < 1e-15

    def test_multiplicativity(self, f31_2):
        chi = Character(f31_2, 13)
        rng = rng_for(0, 1)
        pairs = rng.integers(1, f31_2.q, size=(10_000, 2))
        worst = 0.0
        for a_idx, b_idx in pairs:
            a, b = f31_2.decode(int(a_idx)), f31_2.decode(int(b_idx))
            worst = max(worst, abs(chi.value(f31_2.mul(a, b)) - chi.value(a) * chi.value(b)))
        assert worst < 1e-12

    def test_unit_magnitude_and_order(self, f31_2):
        chi = Character(f31_2, 8)
        assert chi.order == (f31_2.q - 1) // math.gcd(f31_2.q - 1, 8)
        rng = rng_for(0, 2)
        for _ in range(50):
            a = f31_2.decode(int(rng.integers(1, f31_2.q)))
            assert abs(abs(chi.value(a)) - 1) < 1e-15

    def test_value_is_values_at_bit_for_bit(self, f31_2):
        ctx = f31_2
        every = np.arange(ctx.q, dtype=np.int64)
        for k in (1, 7, 11, 100, 959):
            chi = Character(ctx, k)
            single = np.array([chi.value(ctx.decode(i)) for i in range(ctx.q)])
            assert single.tobytes() == chi.values_at(every).tobytes()

    def test_orthogonality(self, f31_2):
        full = np.arange(f31_2.q, dtype=np.int64)
        for k in (3, 17, 100):
            assert abs(Character(f31_2, k).values_at(full).sum()) < 1e-9
        assert abs(Character(f31_2, 0).values_at(full).sum() - (f31_2.q - 1)) < 1e-12
        # exactly: with d = ord(chi_k), chi_k(g^m) = zeta_d^c for the class
        # c = (k m mod q - 1) / ((q - 1)/d), so the sum over F_q^* is
        # sum_c h_c zeta_d^c; a constant class histogram h = (q - 1)/d makes it
        # 0 for d > 1 and q - 1 for d = 1
        ctx = f31_2
        dlogs = ctx.dlog_at(full[1:])
        for k in (0, 1, 3, 17, 100, 480, 959):
            d = Character(ctx, k).order
            classes = k * dlogs % ctx.q1 // (ctx.q1 // d)
            assert np.array_equal(np.bincount(classes, minlength=d), np.full(d, ctx.q1 // d))


class TestPrimeSubfieldRestriction:
    def test_trivial_character(self, f31_2):
        assert Character(f31_2, 0).is_trivial_on_prime_subfield()

    def test_q9_k2_trivial(self):
        ctx = cached_field(3, 2, seed=0)
        chi = Character(ctx, 2)
        assert chi.is_trivial_on_prime_subfield()
        # direct evaluation at both elements of F_3^*
        for t in (1, 2):
            assert abs(chi.value(ctx.from_int(t)) - 1) < 1e-12

    def test_q9_k1_nontrivial(self):
        ctx = cached_field(3, 2, seed=0)
        chi = Character(ctx, 1)
        assert not chi.is_trivial_on_prime_subfield()
        g4 = ctx.pow(ctx.g, 4)
        assert abs(chi.value(g4) - cmath.exp(1j * cmath.pi)) < 1e-12


class TestBoxSum:
    def test_trivial_character_counts_box(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (4, 5))  # 0 not in B
        assert abs(box_char_sum(Character(f31_2, 0), box) - box.size) < 1e-12

    def test_full_field_vanishes(self, f31_2):
        basis = seeded_basis(f31_2, 4)
        box = Box(basis, (0, 0), (31, 31))
        assert abs(box_char_sum(Character(f31_2, 9), box)) < 1e-9

    def test_against_multiplicative_path(self, f31_2):
        # second evaluation route: chi(x) = chi(g)^dlog(x)
        rng = rng_for(0, 3)
        for trial in range(5):
            basis = sample_basis(f31_2, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=2)),
                      tuple(int(v) for v in rng.integers(1, 6, size=2)))
            chi = sample_character(f31_2, rng)
            base = chi.value(f31_2.g)
            expected = 0j
            for _, elem in box.elements():
                if any(elem):
                    expected += base ** f31_2.dlog_of(elem)
            assert abs(box_char_sum(chi, box) - expected) < 1e-9


class TestCompletePolySums:
    def test_single_shifted_root_vanishes(self, f31_2):
        res = complete_poly_char_sum(Character(f31_2, 7), [(f31_2.decode(5), 1)])
        assert abs(res.value) < 1e-9
        assert res.m == 1 and not res.degenerate

    def test_one_and_q_minus_two_is_minus_one(self, f31_2):
        q = f31_2.q
        res = complete_poly_char_sum(
            Character(f31_2, 7), [(f31_2.decode(3), 1), (f31_2.decode(8), q - 2)]
        )
        assert abs(res.value - (-1)) < 1e-9

    def test_quadratic_q25_bruteforce(self, f25):
        chi = Character(f25, 12)
        assert chi.order == 2
        res = complete_poly_char_sum(chi, [(f25.zero(), 1), (f25.one(), 1)])
        brute = 0j
        for i in range(25):
            u = f25.decode(i)
            brute += chi.value(f25.mul(u, f25.add(u, f25.one())))
        assert abs(res.value - brute) < 1e-12
        assert abs(res.value) <= 5 + 1e-6  # (m-1) sqrt(q)

    def test_degenerate_flag(self, f25):
        chi = Character(f25, 12)  # order 2
        res = complete_poly_char_sum(chi, [(f25.zero(), 2), (f25.one(), 4)])
        assert res.degenerate

    def test_distinct_roots_required(self, f25):
        with pytest.raises(ValueError, match="distinct"):
            complete_poly_char_sum(Character(f25, 1), [(f25.one(), 1), (f25.one(), 2)])


class TestGeneratorIntervalSum:
    def test_empty_interval(self, f31_2):
        value, ratio = generator_interval_sum(Character(f31_2, 3), (0, 1), range(1, 1))
        assert value == 0 and ratio == 0

    def test_p7_bruteforce(self):
        ctx = cached_field(7, 2, seed=0)
        chi = Character(ctx, 3)
        a = (0, 1)
        value, ratio = generator_interval_sum(chi, a, range(1, 8))
        brute = sum(chi.value(ctx.add(a, ctx.from_int(t))) for t in range(1, 8))
        assert abs(value - brute) < 1e-12
        assert abs(ratio - abs(value) / (math.sqrt(7) * math.log(7))) < 1e-12

    def test_rejects_non_generating(self, f31_2):
        with pytest.raises(ValueError, match="generate"):
            generator_interval_sum(Character(f31_2, 3), (5, 0), range(1, 4))

    def test_scan_matches_direct_max(self, f31_2):
        chi = Character(f31_2, 11)
        a = (2, 1)
        ts = np.arange(1, 32, dtype=np.int64)
        triangle = subinterval_abs_triangle(chi.values_at(f31_2.add_int_array(f31_2.encode(a), ts)))
        direct = [
            abs(sum(chi.value(f31_2.add(a, f31_2.from_int(t))) for t in range(lo, hi + 1)))
            for lo in range(1, 32)
            for hi in range(lo, 32)
        ]
        assert np.allclose(triangle, direct, rtol=0, atol=1e-9)  # every [lo, hi], in triu order
        norm = math.sqrt(31) * math.log(31)
        assert interval_sums_scan(chi, a) == float(triangle.max() / norm)
        assert abs(interval_sums_scan(chi, a) * norm - max(direct)) < 1e-9

    @pytest.mark.parametrize("p, n", [(31, 2), (101, 2), (211, 2), (31, 3)])
    def test_row_scan_max_equals_triangle_max(self, p, n):
        # the row-at-a-time kernel takes the same float op per pair as the
        # triangle, so the maxima agree exactly
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(5, p, n)
        ts = np.arange(1, p + 1, dtype=np.int64)
        for _ in range(6):
            a = ctx.decode(int(rng.integers(ctx.p, ctx.q)))
            chi = sample_character(ctx, rng)
            triangle = subinterval_abs_triangle(chi.values_at(ctx.add_int_array(ctx.encode(a), ts)))
            assert interval_sums_scan(chi, a) == float(triangle.max() / (math.sqrt(p) * math.log(p)))


class TestPolyaVinogradov:
    def test_prime_interval_sums_explicit_constant(self):
        # degenerate boxes: x_i = 0 for i < n, last coordinate runs over I
        for (p, n) in ((31, 2), (61, 2), (31, 3)):
            ctx = cached_field(p, n, seed=0)
            rng = rng_for(0, p, n, 4)
            for _ in range(3):
                basis = sample_basis(ctx, rng)
                while True:
                    chi = sample_character(ctx, rng)
                    if not chi.is_trivial_on_prime_subfield():
                        break
                for _ in range(10):
                    lo = int(rng.integers(1, p + 1))
                    hi = int(rng.integers(lo, p + 1))
                    box = Box(basis, (-1,) * (n - 1) + (lo - 1,), (1,) * (n - 1) + (hi - lo + 1,))
                    value = box_char_sum(chi, box)
                    assert abs(value) <= math.sqrt(p) * math.log(p) + 1e-6


def row_sums_abs(chi, box):
    """The outer rows of the tall walk and |sum of chi over each row of B|:
    row r of B is omega_n (a_r + t), so this is |sum_t chi(a_r + t)|."""
    outer, walk = tall_walk(box)
    return outer, np.abs(chi.values_at(box.element_indices()).reshape(walk.shape).sum(axis=1))


class TestTallBoxIdentity:
    def test_identity_holds(self, f31_3):
        rng = rng_for(0, 5)
        for _ in range(10):
            basis = sample_basis(cached_field(31, 3, seed=0), rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=3)),
                      (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(10, 32))))
            chi = sample_character(cached_field(31, 3, seed=0), rng)
            check_tall_split(chi, box)

    def test_identity_holds_n2(self, f31_2):
        rng = rng_for(0, 6)
        for _ in range(10):
            basis = sample_basis(f31_2, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=2)),
                      (int(rng.integers(1, 5)), int(rng.integers(10, 32))))
            chi = sample_character(f31_2, rng)
            check_tall_split(chi, box)

    def test_zero_row_reduces_to_omega_line_sum(self, f31_3, id_basis_31_3):
        ctx = cached_field(31, 3, seed=0)
        box = Box(id_basis_31_3, (-1, -2, 4), (3, 4, 9))  # 0 in I_1 and I_2
        chi = Character(ctx, 6)
        outer, inner_abs = row_sums_abs(chi, box)
        row = {tuple(c): i for i, c in enumerate(outer)}[(0, 0)]
        s_prime = sum(
            chi.value(ctx.mul(ctx.from_int(t), id_basis_31_3.omega(3)))
            for t in range(5, 14)
        )
        w3 = chi.value(id_basis_31_3.omega(3))
        # chi(omega_3) * inner = the omega_n-line partial sum S'
        inner_direct = sum(chi.value(ctx.from_int(t)) for t in range(5, 14))
        assert abs(inner_abs[row] - abs(inner_direct)) < 1e-9
        assert abs(w3 * inner_direct - s_prime) < 1e-12

    def test_generating_rows_against_fixture(self, f31_3):
        from charbox.pilot import load_fixtures

        try:
            fixtures = load_fixtures()
        except FileNotFoundError:
            pytest.skip("fixtures file not generated yet")
        c_est = fixtures["c_est"]["3"]
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(0, 7)
        basis = sample_basis(ctx, rng)
        box = Box(basis, (-1, -2, 0), (3, 4, 31))
        chi = sample_character(ctx, rng)
        bound = c_est * math.sqrt(31) * math.log(31)
        degenerate = {(0, 0)}
        for coords, mag in zip(*row_sums_abs(chi, box)):
            if tuple(coords) not in degenerate:
                assert mag <= bound + 1e-6


class TestOmegaLineAccounting:
    def test_trivial_restriction_line_contribution(self):
        # chi trivial on F_p: the omega_n-line contributes a term of full
        # magnitude (one unit per nonzero line element), so the box sum
        # decomposes as bulk + line with |line| = nonzero line count
        from charbox import omega_line_intersection

        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(0, 9)
        for _ in range(6):
            basis = sample_basis(ctx, rng)
            chi = sample_character(ctx, rng, trivial_on_prime_subfield=True)
            assert chi.is_trivial_on_prime_subfield() and not chi.is_trivial
            box = Box(basis, (-1, -2, int(rng.integers(-31, 31))),
                      (2, 3, int(rng.integers(5, 32))))
            line_term = omega_line_intersection(box)
            assert line_term == box.H[2]

            total = box_char_sum(chi, box)
            line_vals = []
            bulk = 0j
            for coords, elem in box.elements():
                if coords[0] % 31 == 0 and coords[1] % 31 == 0:
                    line_vals.append(chi.value(elem))
                else:
                    bulk += chi.value(elem)
            line_sum = sum(line_vals)
            zeros_on_line = sum(1 for v in line_vals if v == 0)
            assert abs(total - (bulk + line_sum)) < 1e-9
            assert abs(abs(line_sum) - (line_term - zeros_on_line)) < 1e-9


def dlog_multiset(box, mul=1, add=0):
    """Sorted dlogs of B's elements, each nonzero one sent to mul * d + add mod q - 1
    (0 keeps dlog -1)."""
    d = box.ctx.dlog_at(box.element_indices())
    return np.sort(np.where(d < 0, -1, (mul * d + add) % box.ctx.q1))


def sum_tolerance(box) -> float:
    """Bound on |S_1 - u S_2| for two computed box sums of |B| terms whose
    exact values agree, u a unit computed by `Character.value`. A computed chi
    value is within 2^-48 of its root of unity: its angle 2 pi m/(q - 1),
    below 2 pi, takes three roundings (about 2^-48.8 absolute), and np.exp adds
    about one ulp. So each sum is within |B| (2^-48 + 2^-52) of the exact sum,
    u S_2 adds |B| (2^-48 + 2^-51), and |B| 2^-46 covers all of it."""
    return box.size * 2.0**-46


class TestBoxInvariances:
    """Scaling, Frobenius and negation act on B as bijections of F_q, so the
    dlogs of the image are those of B moved by one map, exactly; chi sums pick
    up chi(lambda), chi(-1) or move to chi_{kp}, and E and sum tau^2 stay
    (B0 is the shrunk box of the image).
    Bases are transformed after normalize(), which orders them by H."""

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2), (4093, 2)])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_scaling_frobenius_negation(self, p, n, seed):
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(seed, 47, p, n)
        edge_cap = min(small_edge_cap(p), 16)
        nb = Box(sample_basis(ctx, rng), tuple(int(v) for v in rng.integers(-p, p, size=n)),
                 tuple(int(v) for v in rng.integers(1, edge_cap + 1, size=n))).normalize()
        chi = sample_character(ctx, rng)
        total = box_char_sum(chi, nb)
        tol = sum_tolerance(nb)

        lam = sample_z(ctx, rng, outside_prime_subfield=False)
        scaled = Box(scaled_basis(nb.basis, lam), nb.N, nb.H)
        assert np.array_equal(dlog_multiset(scaled), dlog_multiset(nb, add=ctx.dlog_of(lam)))
        assert abs(box_char_sum(chi, scaled) - chi.value(lam) * total) <= tol

        frob = Box(frobenius_basis(nb.basis), nb.N, nb.H)
        assert np.array_equal(dlog_multiset(frob), dlog_multiset(nb, mul=p))
        # chi_k(x^p) and chi_{kp}(x) are computed from the same integer k p dlog x
        # mod q - 1, and exact_sum does not depend on the order: equal floats
        assert box_char_sum(chi, frob) == box_char_sum(Character(ctx, chi.k * p), nb)

        neg = Box(nb.basis, tuple(-nn - hh - 1 for nn, hh in zip(nb.N, nb.H)), nb.H)
        minus_one = ctx.from_int(p - 1)
        assert np.array_equal(dlog_multiset(neg), dlog_multiset(nb, add=ctx.dlog_of(minus_one)))
        assert abs(box_char_sum(chi, neg) - chi.value(minus_one) * total) <= tol

        e = energy(ctx, nb).E
        tau_sq = tau_profile(nb, scaled_box(nb, 0.15)).sum_tau_sq
        for image in (scaled, frob, neg):
            assert energy(ctx, image).E == e
            assert tau_profile(image, scaled_box(image, 0.15)).sum_tau_sq == tau_sq
