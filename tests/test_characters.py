import cmath
import math

import numpy as np
import pytest

from charbox import (
    Box,
    Character,
    box_char_sum,
    cached_field,
    complete_poly_char_sum,
    generator_interval_sum,
    interval_sums_scan,
    tall_box_identity,
)
from charbox.sampling import rng_for, sample_basis, sample_character
from oracles import seeded_basis


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
        scan = interval_sums_scan(chi, a)
        assert len(scan) == 31 * 32 // 2
        direct = [
            abs(sum(chi.value(f31_2.add(a, f31_2.from_int(t))) for t in range(lo, hi + 1)))
            for lo in range(1, 32)
            for hi in range(lo, 32)
        ]
        assert np.allclose(scan, direct, rtol=0, atol=1e-9)  # every [lo, hi], in triu order
        assert abs(scan.max() - max(direct)) < 1e-9


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


class TestTallBoxIdentity:
    def test_identity_holds(self, f31_3):
        rng = rng_for(0, 5)
        for _ in range(10):
            basis = sample_basis(cached_field(31, 3, seed=0), rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=3)),
                      (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(10, 32))))
            chi = sample_character(cached_field(31, 3, seed=0), rng)
            split = tall_box_identity(chi, box)
            assert abs(split.lhs - split.rhs) < 1e-6

    def test_identity_holds_n2(self, f31_2):
        rng = rng_for(0, 6)
        for _ in range(10):
            basis = sample_basis(f31_2, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=2)),
                      (int(rng.integers(1, 5)), int(rng.integers(10, 32))))
            chi = sample_character(f31_2, rng)
            split = tall_box_identity(chi, box)
            assert abs(split.lhs - split.rhs) < 1e-6

    def test_zero_row_reduces_to_omega_line_sum(self, f31_3, id_basis_31_3):
        ctx = cached_field(31, 3, seed=0)
        box = Box(id_basis_31_3, (-1, -2, 4), (3, 4, 9))  # 0 in I_1 and I_2
        chi = Character(ctx, 6)
        split = tall_box_identity(chi, box)
        rows = {tuple(c): i for i, c in enumerate(split.outer_coords)}
        row = rows[(0, 0)]
        s_prime = sum(
            chi.value(ctx.mul(ctx.from_int(t), id_basis_31_3.omega(3)))
            for t in range(5, 14)
        )
        w3 = chi.value(id_basis_31_3.omega(3))
        # chi(omega_3) * inner = the omega_n-line partial sum S'
        inner_direct = sum(chi.value(ctx.from_int(t)) for t in range(5, 14))
        assert abs(split.inner_abs[row] - abs(inner_direct)) < 1e-9
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
        split = tall_box_identity(chi, box)
        bound = c_est * math.sqrt(31) * math.log(31)
        degenerate = {(0, 0)}
        for coords, mag in zip(split.outer_coords, split.inner_abs):
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
