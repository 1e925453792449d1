import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charbox import (
    BasisMatrix,
    FieldCtx,
    FieldError,
    build_field,
    cached_field,
    is_generating,
    is_irreducible,
)
from charbox import field
from oracles import (
    dlog_table_sweep, exp_table, inv_mod_p, min_poly_degree, mul_schoolbook, seeded_basis, smallest_generator,
)


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

    def test_budget_rejected(self, monkeypatch):
        monkeypatch.setattr(field, "DEFAULT_TABLE_BUDGET", 1000)
        with pytest.raises(FieldError, match="budget"):
            build_field(101, 3)

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


class TestMulKernel:
    """`mul` and `mul_matrix` against the schoolbook product with long division."""

    @pytest.mark.parametrize("p, n, modulus", [(5, 2, [2, 0, 1]), (3, 3, None), (7, 3, None)])
    def test_mul_matches_schoolbook_exhaustively(self, p, n, modulus):
        ctx = cached_field(p, n, modulus=modulus, seed=0)
        elems = [ctx.decode(i) for i in range(ctx.q)]
        got = [ctx.mul(a, b) for a in elems for b in elems]
        assert got == [mul_schoolbook(a, b, ctx.modulus, p) for a in elems for b in elems]

    @pytest.mark.parametrize("p, n", [(4093, 2), (251, 3), (16777213, 1)])
    def test_mul_matches_schoolbook_random(self, p, n):
        ctx = FieldCtx(p, n, field._find_irreducible(p, n, 0))  # the kernel needs no tables
        rng = np.random.default_rng(p)
        pairs = [tuple(map(tuple, ab)) for ab in rng.integers(0, p, size=(10**4, 2, n)).tolist()]
        assert [ctx.mul(a, b) for a, b in pairs] == [mul_schoolbook(a, b, ctx.modulus, p) for a, b in pairs]

    def test_x_powers_are_companion_powers(self, f31_3):
        ctx = f31_3
        x_k = [ctx.decode(ctx.p**k) for k in range(ctx.n)]  # X^0, X^1, X^2
        for k, mat in enumerate(ctx.x_powers):
            for j in range(ctx.n):
                assert tuple(mat[:, j]) == mul_schoolbook(x_k[k], x_k[j], ctx.modulus, ctx.p)
        assert not ctx.x_powers.flags.writeable and ctx.x_powers.dtype == np.int64

    @pytest.mark.parametrize("p, n", [(5, 1), (31, 2), (31, 3)])
    def test_mul_matrix_shapes_and_products(self, p, n):
        ctx = cached_field(p, n, seed=0)
        rng = np.random.default_rng(n)
        a, b = rng.integers(0, p, size=(2, 6, n))
        mats = ctx.mul_matrix(a)  # (k, n) -> (k, n, n)
        assert mats.shape == (6, n, n) and mats.dtype == np.int64
        for ai, bi, mat in zip(a, b, mats):
            one = ctx.mul_matrix(tuple(int(v) for v in ai))  # (n,) -> (n, n)
            assert one.shape == (n, n) and np.array_equal(one, mat)
            want = mul_schoolbook(ai.tolist(), bi.tolist(), ctx.modulus, p)
            assert tuple((mat @ bi % p).tolist()) == want == ctx.mul(tuple(ai.tolist()), tuple(bi.tolist()))


class TestDlog:
    def test_f5_generator_is_two(self, f5):
        # candidate 2: 2^4 = 1 and 2^2 = 4 != 1 mod 5
        assert f5.g == (2,)

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (5, 3), (7, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_is_smallest_by_index(self, p, n, seed):
        # the search skips F_p (indices below p); the oracle walks every candidate
        ctx = build_field(p, n, seed=seed)
        assert ctx.encode(ctx.g) == smallest_generator(ctx)

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


class TestTables:
    @pytest.mark.parametrize("p, n", [(31, 3), (4093, 2)])
    def test_int32_read_only_tables_with_int64_accessors(self, traced_peak, p, n):
        built = []
        peak = traced_peak(lambda: built.append(build_field(p, n)))  # uncached, so the tables go with the test
        ctx = built[0]
        q1 = ctx.q1
        arrays = {name: v for name, v in vars(ctx).items() if isinstance(v, np.ndarray)}
        assert [name for name, v in arrays.items() if v.size >= q1] == []  # n >= 2: nothing of size q
        assert ctx.dlog.dtype == np.int32 and ctx.dlog.size == p + q1 // (p - 1) - 1
        assert ctx.exp.dtype == np.int32 and ctx.exp.nbytes == 0
        assert ctx.baby.shape == (min(4096, q1), n) and ctx.giant.shape == (-(-q1 // 4096), n, n)
        for table in arrays.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0
        assert ctx.dlog[0] == -1
        idx, m = np.array([0, 1, ctx.q - 1]), np.array([0, 1, q1 - 1])
        for got in (ctx.dlog_at(idx), ctx.dlog_at(slice(0, ctx.p)), ctx.exp_at(m), ctx.exp_at(slice(q1 - 3, None))):
            assert got.dtype == np.int64
        assert ctx.dlog_at(idx).tolist() == [ctx.dlog_of(ctx.decode(i)) if i else -1 for i in idx.tolist()]
        assert ctx.dlog_at(ctx.exp_at(m)).tolist() == m.tolist()
        assert ctx.dlog_at(ctx.exp_at(slice(q1 - 3, None))).tolist() == list(range(q1 - 3, q1))
        assert peak < 2 * 10**6  # the dense table alone was 67 MB at (4093, 2)

    # sha256 of the table bytes as first built by polynomial multiplication,
    # dlog as the dense int32 table of every element: the matrix kernel and
    # the compact table must leave every byte of every table unchanged
    PINNED = {
        (31, 3): ("4855c9890084d99a88a1c2d9dd702b206ce14ce61797824d84e3aeb09555c5c1",
                  "58781661da005e5a7e4cc5c1ee700fc186371debf9912b767efe772237a9618a",
                  "800de7bb469976a20cb9daa9fcd51bd2b898d39769cd23f3852687b5e6df24b3"),
        (101, 3): ("4aa3570c549fbe90a2cec4492a1e94fdc781c995550f547fb077867260f2ba20",
                   "44fa787571f4373db7121358f9d69f70c27ddf5f0aadb597659ebc2d4db6b23f",
                   "95f034661720434705a465aa8cf68f60635a1ca5c6e673789b5a4d7ed9b1825d"),
        (4093, 2): ("0ddda14a367cd3747a6aa2369b973773f7fe24d5d9ec6aa7166ce0cef2d8159d",
                    "64b6bc73271df5f1cade25a6820844d54588d61b53a925aa7e1c59bb0b8311f8",
                    "0741e053a187f612d31a90d3b00cb11bb142840434c8101627181c53fb74e25c"),
    }

    @pytest.mark.parametrize("p, n", sorted(PINNED))
    def test_tables_match_pinned_sha256(self, p, n):
        ctx = build_field(p, n)  # uncached, so the tables go with the test
        tables = (ctx.dlog_at(slice(None)).astype(np.int32), ctx.baby, ctx.giant)
        digests = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables)
        assert digests == self.PINNED[(p, n)]

    def test_only_field_subscripts_the_tables(self):
        # every kernel reads dlog through dlog_at (the compact-table kernel)
        # and g^m through exp_at: no read of .dlog at all, no subscript of a
        # table, no read of the empty .exp
        src = Path(field.__file__).parent
        modules = {"np", "numpy", "math", "cmath"}
        offenders = [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(src.glob("*.py")) if path.name != "field.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("dlog", "exp"))
            or (isinstance(node, ast.Attribute) and node.attr == "dlog")
            or (isinstance(node, ast.Attribute) and node.attr == "exp"
                and not (isinstance(node.value, ast.Name) and node.value.id in modules))
        ]
        assert offenders == []

    def test_only_lattice_takes_an_lcm(self):
        # the gauge encoding (stretches s_j, scale L) lives behind GaugeBody:
        # no other module re-derives it from an lcm of the edges
        src = Path(field.__file__).parent
        offenders = [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(src.glob("*.py")) if path.name != "lattice.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr == "lcm")
            or (isinstance(node, ast.Name) and node.id == "lcm")
            or (isinstance(node, ast.ImportFrom) and any(alias.name == "lcm" for alias in node.names))
        ]
        assert offenders == []

    def test_no_module_calls_triu_indices(self):
        # interval maxima take one row of prefix differences at a time; the
        # all-pairs triangle (O(p^2) memory) is only the test oracle
        src = Path(field.__file__).parent
        offenders = [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr == "triu_indices")
            or (isinstance(node, ast.Name) and node.id == "triu_indices")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "triu_indices" for a in node.names))
        ]
        assert offenders == []

    def test_one_shell_rule_for_every_minimum(self):
        # successive_minima and first_minimum size their shell one way: LLL
        # runs only for the combination bound, a shell is enumerated only by
        # the shared minima helper
        allowed = {"_lll_rows": "_combination_bound", "_shell_vectors": "_shell_minima"}
        offenders = []

        def visit(where, node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    callee = child.func
                    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                    if name in allowed and func != allowed[name]:
                        offenders.append(f"{where}:{child.lineno}: {name} in {func}")
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
                visit(where, child, inner)

        for path in sorted(Path(field.__file__).parent.glob("*.py")):
            visit(path.name, ast.parse(path.read_text()), None)
        assert offenders == []


EXPLICIT_MODULI = [
    (5, (2, 0, 1)), (7, (1, 0, 1)), (13, (11, 0, 1)), (61, (2, 0, 1)),
    (3, (1, 2, 0, 1)), (31, (3, 0, 0, 1)), (101, (1, 1, 0, 1)), (127, (3, 0, 0, 1)),
]


def assert_tables_equal_sweep(ctx):
    tables = (ctx.dlog_at(slice(None)).astype(np.int32), ctx.baby, ctx.giant)
    for got, want in zip(tables, dlog_table_sweep(ctx)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


class TestCosetBuild:
    """The coset build of dlog, baby and giant against one multiplicative
    sweep over F_q^*, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 13, 31, 61, 101, 127]), n=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**16))
    def test_tables_equal_the_sweep(self, p, n, seed):
        # p = 3: p - 1 = 2; p = 1 mod 4 (5, 13, 61, 101) and p = 3 mod 4 (3, 7, 31, 127)
        assert_tables_equal_sweep(build_field(p, n, seed=seed))

    @pytest.mark.parametrize("p, modulus", EXPLICIT_MODULI)
    def test_explicit_moduli_equal_the_sweep(self, p, modulus):
        assert_tables_equal_sweep(build_field(p, len(modulus) - 1, modulus=modulus))

    @pytest.mark.parametrize("p, n", [(4093, 2), (251, 3), (16777213, 1)])
    def test_fields_just_under_the_budget(self, traced_peak, p, n):
        built = []
        peak = traced_peak(lambda: built.append(build_field(p, n)))  # uncached, so the tables go with the test
        ctx = built.pop()
        assert 0.9 * field.DEFAULT_TABLE_BUDGET < ctx.q <= field.DEFAULT_TABLE_BUDGET
        assert peak <= ctx.dlog.nbytes + 8 * 2**20
        assert_tables_equal_sweep(ctx)

    @pytest.mark.parametrize("p, n", [(5, 2), (3, 3)])
    def test_every_element_of_lower_order_fails_the_build(self, p, n):
        # g of order below q - 1 either leaves F_p^* uncovered by g^((q-1)/(p-1))
        # or puts two powers g^i, i < (q-1)/(p-1), in one coset of F_p^*;
        # both happen among these elements, and each generator builds the sweep's tables
        modulus = build_field(p, n).modulus
        failures = set()
        for idx in range(1, p**n):
            ctx = FieldCtx(p, n, modulus)
            ctx.g = ctx.decode(idx)
            order, power = 1, ctx.g
            while power != ctx.one():
                order, power = order + 1, ctx.mul(power, ctx.g)
            if order == ctx.q1:
                field._build_tables(ctx)
                assert_tables_equal_sweep(ctx)
                continue
            with pytest.raises(FieldError, match="generator order wrong") as err:
                field._build_tables(ctx)
            failures.add(str(err.value))
        assert len(failures) == 2


class TestDlogAt:
    """`dlog_at` against the sweep's dense table: int64 out, -1 at 0, the
    shape of the input, for every form of index it takes."""

    @staticmethod
    def check_forms(ctx, every_int):
        want = dlog_table_sweep(ctx)[0].astype(np.int64)
        p, q = ctx.p, ctx.q
        ints = range(q) if every_int else np.random.default_rng(q).integers(0, q, 200).tolist() + [0, 1, p, q - 1]
        for i in ints:
            for idx in (i, np.int64(i), np.asarray(i)):
                got = ctx.dlog_at(idx)
                assert (got.dtype, np.shape(got), int(got)) == (np.int64, (), want[i])
        assert ctx.dlog_at(0) == -1 and ctx.dlog_at(np.zeros((2, 3), dtype=np.int64)).tolist() == [[-1] * 3] * 2
        grid = np.arange(q).reshape(-1, p)
        shuffled = np.random.default_rng(p).permutation(q).reshape(p, -1)
        for idx in (grid, grid.T, shuffled, shuffled[:, ::-1][:1]):
            got = ctx.dlog_at(idx)
            assert got.dtype == np.int64 and np.array_equal(got, want[idx])
        # slices inside a row, across rows and blocks, and ending at q
        for sl in (slice(None), slice(0, p), slice(p - 2, p + 3), slice(p * p - 1, p * p + 2 * p + 1),
                   slice(q - p - 1, None), slice(q - 1, q), slice(-5, None), slice(1, q, 7), slice(q - 1, 0, -p)):
            got = ctx.dlog_at(sl)
            assert got.dtype == np.int64 and np.array_equal(got, want[sl])
        assert np.array_equal(field._dlog_rows(ctx, range(q // p)), want.reshape(-1, p))
        assert np.array_equal(field._dlog_rows(ctx, range(1, 2)), want[p : 2 * p][None])

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)])
    def test_every_form_matches_the_sweep(self, p, n):
        self.check_forms(build_field(p, n), every_int=True)

    @pytest.mark.parametrize("p, modulus", EXPLICIT_MODULI)
    def test_explicit_moduli_match_the_sweep(self, p, modulus):
        self.check_forms(build_field(p, len(modulus) - 1, modulus=modulus), every_int=p**3 < 10**4)


class TestExpAt:
    # (5, 1) and (7, 3): q - 1 below the block B = 4096; (12289, 1): q - 1 = 3B;
    # (10007, 1) and (31, 3): q - 1 not a multiple of B
    @pytest.mark.parametrize("p, n", [(5, 1), (7, 3), (3, 2), (12289, 1), (10007, 1), (31, 2), (31, 3)])
    def test_every_m_matches_the_table_oracle(self, p, n):
        ctx = cached_field(p, n, seed=0)
        assert np.array_equal(ctx.exp_at(np.arange(ctx.q1)), exp_table(ctx))

    @pytest.mark.parametrize("p, n", [(4093, 2), (211, 3), (16777213, 1)])
    def test_random_m_matches_the_table_oracle(self, p, n):
        ctx = build_field(p, n)  # uncached, so the table goes with the test
        m = np.random.default_rng(p).integers(0, ctx.q1, size=10**5)
        assert np.array_equal(ctx.exp_at(m), exp_table(ctx)[m])

    def test_int_array_and_slice_give_int64(self, f31_3):
        ctx, exp = f31_3, exp_table(f31_3)
        m = np.array([[0, 4095], [4096, ctx.q1 - 1]])
        for got, want in [
            (ctx.exp_at(4097), exp[4097]),
            (ctx.exp_at(np.int32(5)), exp[5]),
            (ctx.exp_at(m), exp[m]),
            (ctx.exp_at(slice(4090, 4100)), exp[4090:4100]),
            (ctx.exp_at(slice(None, None, 997)), exp[::997]),
        ]:
            assert got.dtype == np.int64 and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert ctx.exp_at(-1) == exp[-1] and ctx.exp_at(ctx.q1 + 7) == exp[7]  # g^m for any integer m

    @pytest.mark.parametrize("p, n", [(5, 1), (31, 3), (4093, 2), (211, 3)])
    def test_mul_by_inv_is_one(self, p, n):
        ctx = cached_field(p, n, seed=0)
        for idx in np.random.default_rng(n * p).integers(1, ctx.q, size=300):
            a = ctx.decode(int(idx))
            assert ctx.mul(a, ctx.inv(a)) == ctx.one()


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

    @pytest.mark.parametrize("p", [3, 7, 31, 101, 4093])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverse_matches_gauss_jordan(self, p, n):
        # BasisMatrix reads only p and n of its field, so a table-free FieldCtx
        # stands in where p^n is past the table budget
        ctx = FieldCtx(p, n, (0,) * n + (1,))
        rng = np.random.default_rng([p, n, 41])
        mats = list(rng.integers(-2 * p, 2 * p, size=(1000, n, n)))
        mats += list(rng.integers(0, 3, size=(1000, n, n)))  # often singular over Z
        dependent = rng.integers(0, p, size=(1000, n, n))  # singular mod p, det mostly nonzero
        if n == 1:
            dependent[:, 0, 0] = p * rng.integers(-3, 4, size=1000)
        else:
            dependent[:, :, -1] = dependent[:, :, 0] * rng.integers(0, p, size=(1000, 1)) + p
        mats += list(dependent)
        singular = 0
        for mat in mats:
            try:
                want = inv_mod_p(mat, p)
            except FieldError:
                singular += 1
                with pytest.raises(FieldError, match="singular"):
                    BasisMatrix(ctx, mat)
                continue
            got = BasisMatrix(ctx, mat).inv_cols
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 1000 <= singular < len(mats)


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
