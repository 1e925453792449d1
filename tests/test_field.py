import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charbox import (
    BasisMatrix,
    FieldError,
    build_field,
    cached_field,
    is_generating,
    is_irreducible,
)
from oracles import min_poly_degree, seeded_basis


class TestBuildField:
    def test_degree_one_modulus_is_t(self, f5):
        assert f5.modulus == (0, 1)
        assert f5.q == 5

    def test_explicit_irreducible_accepted(self, f25):
        # t^2 + 2 has no root mod 5: exhaustive check
        assert all((x * x + 2) % 5 != 0 for x in range(5))
        assert f25.modulus == (2, 0, 1)

    def test_reducible_rejected(self):
        # 2^2 + 1 = 0 mod 5
        with pytest.raises(FieldError, match="reducible"):
            build_field(5, 2, modulus=[1, 0, 1])

    def test_composite_p_rejected(self):
        with pytest.raises(FieldError, match="prime"):
            build_field(15, 2)

    def test_even_p_rejected(self):
        with pytest.raises(FieldError, match="odd"):
            build_field(2, 2)

    def test_budget_rejected(self):
        with pytest.raises(FieldError, match="budget"):
            build_field(101, 3, table_budget=1000)

    def test_seeded_search_deterministic(self):
        a = build_field(7, 3, seed=5)
        b = build_field(7, 3, seed=5)
        assert a.modulus == b.modulus
        assert is_irreducible(a.modulus, 7)

    def test_irreducibility_matches_root_search(self):
        # degree <= 3: reducible iff a root exists; every quadratic mod 7,
        # then random quadratics and cubics mod 7 and 31
        cases = [(7, [c0, c1, 1]) for c0 in range(7) for c1 in range(7)]
        rng = np.random.default_rng(0)
        cases += [(p, [int(c) for c in rng.integers(0, p, size=n)] + [1])
                  for p, n in [(7, 3), (31, 2), (31, 3)] for _ in range(300)]
        for p, mod in cases:
            has_root = any(sum(c * x**i for i, c in enumerate(mod)) % p == 0 for x in range(p))
            assert is_irreducible(mod, p) == (not has_root)

    def test_irreducibility_degree_range(self):
        assert is_irreducible([3, 1], 7)
        assert not is_irreducible([1], 7)  # degree 0
        assert not is_irreducible([1, 0, 0, 0, 1], 7)  # degree 4: t^4 + 1 has no root mod 7 yet splits
        assert not is_irreducible([3, 2], 7)  # not monic


class TestArith:
    def test_mul_identity(self, f25):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = f25.decode(int(rng.integers(0, f25.q)))
            assert f25.mul(a, f25.one()) == a

    def test_t_squared_reduces(self, f25):
        # t^2 = -2 = 3 in F_5[t]/(t^2+2)
        assert f25.mul((0, 1), (0, 1)) == (3, 0)

    def test_inverse_law(self, f25):
        rng = np.random.default_rng(1)
        for _ in range(30):
            b = f25.decode(int(rng.integers(1, f25.q)))
            assert f25.mul(b, f25.inv(b)) == f25.one()

    def test_division_by_zero(self, f25):
        with pytest.raises(ZeroDivisionError):
            f25.inv(f25.zero())
        with pytest.raises(ZeroDivisionError):
            f25.div(f25.one(), f25.zero())

    @pytest.mark.parametrize("p, n", [(7, 3), (31, 2), (31, 3)])
    def test_table_inverse_matches_fermat_everywhere(self, p, n):
        ctx = cached_field(p, n, seed=0)
        for idx in range(1, ctx.q):
            a = ctx.decode(idx)
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)

    @pytest.mark.parametrize("p, n", [(101, 3), (127, 3), (4093, 2)])
    def test_table_inverse_matches_fermat_sampled(self, p, n):
        ctx = build_field(p, n)  # uncached, so the tables go with the test
        for idx in np.random.default_rng(p).integers(1, ctx.q, size=3000):
            a = ctx.decode(int(idx))
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ctx.zero())

    def test_fermat(self, f31_3):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = f31_3.decode(int(rng.integers(1, f31_3.q)))
            assert f31_3.pow(a, f31_3.q - 1) == f31_3.one()


class TestDlog:
    def test_f5_generator_is_two(self, f5):
        # candidate 2: 2^4 = 1 and 2^2 = 4 != 1 mod 5
        assert f5.g == (2,)

    def test_dlog_of_one(self, f25):
        assert f25.dlog_of(f25.one()) == 0

    def test_dlog_roundtrip_small_exponents(self, f31_2):
        # repeated-multiplication oracle
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(0, 400))
            power = f31_2.one()
            for _ in range(k):
                power = f31_2.mul(power, f31_2.g)
            assert f31_2.dlog_of(power) == k

    def test_dlog_roundtrip_full_range(self, f31_2):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(0, f31_2.q - 1))
            assert f31_2.dlog_of(f31_2.pow(f31_2.g, k)) == k

    def test_dlog_bijection(self, f25):
        seen = {f25.dlog_of(f25.decode(i)) for i in range(1, f25.q)}
        assert seen == set(range(f25.q - 1))

    def test_dlog_homomorphism(self, f31_2):
        rng = np.random.default_rng(4)
        q1 = f31_2.q - 1
        for _ in range(200):
            a = f31_2.decode(int(rng.integers(1, f31_2.q)))
            b = f31_2.decode(int(rng.integers(1, f31_2.q)))
            assert f31_2.dlog_of(f31_2.mul(a, b)) == (f31_2.dlog_of(a) + f31_2.dlog_of(b)) % q1


class TestBasis:
    def test_basis_columns(self, f25):
        basis = seeded_basis(f25, 9)
        for i in range(1, 3):
            coords = [0, 0]
            coords[i - 1] = 1
            assert basis.elem_from_coords(coords) == basis.omega(i)

    def test_zero_maps_to_zero(self, f25):
        basis = seeded_basis(f25, 9)
        assert basis.elem_from_coords([0, 0]) == f25.zero()

    def test_roundtrip_against_exhaustive_solve(self, f25):
        basis = seeded_basis(f25, 10)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(0, 5, size=2))
            elem = basis.elem_from_coords(x)
            # oracle: search all coordinate vectors for the unique preimage
            matches = [
                (a, b)
                for a in range(5)
                for b in range(5)
                if basis.elem_from_coords((a, b)) == elem
            ]
            assert matches == [x]
            assert basis.coords_of(elem) == x

    def test_linearity(self, f31_2, id_basis_31_2):
        rng = np.random.default_rng(6)
        basis = seeded_basis(f31_2, 11)
        for _ in range(30):
            x = rng.integers(-50, 50, size=2)
            y = rng.integers(-50, 50, size=2)
            c = int(rng.integers(0, 31))
            lhs = basis.elem_from_coords(x + y)
            rhs = f31_2.add(basis.elem_from_coords(x), basis.elem_from_coords(y))
            assert lhs == rhs
            assert basis.elem_from_coords(c * x) == f31_2.mul(f31_2.from_int(c), basis.elem_from_coords(x))

    def test_singular_basis_rejected(self, f25):
        with pytest.raises(FieldError, match="singular"):
            BasisMatrix(f25, np.array([[1, 2], [2, 4]]))


class TestGenerating:
    def test_constant_not_generating(self, f25):
        assert not is_generating(f25, (3, 0))

    def test_t_generates(self, f25):
        assert is_generating(f25, (0, 1))

    def test_agrees_with_min_poly_oracle(self, f31_3):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = f31_3.decode(int(rng.integers(0, f31_3.q)))
            assert is_generating(f31_3, a) == (min_poly_degree(f31_3, a) == 3)


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=342),
    b=st.integers(min_value=0, max_value=342),
    c=st.integers(min_value=0, max_value=342),
)
def test_field_laws(a, b, c):
    ctx = cached_field(7, 3, seed=0)
    x, y, z = ctx.decode(a), ctx.decode(b), ctx.decode(c)
    assert ctx.mul(x, ctx.mul(y, z)) == ctx.mul(ctx.mul(x, y), z)
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.sub(ctx.add(x, y), y) == x
