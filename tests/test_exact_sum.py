"""exact_sum against math.fsum, and the table-free character sums against a
test-side oracle of the q-sized-table + math.fsum algorithm they replace."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charbox import Box, Character, cached_field, difference_box, f_count, s_decomposition
from charbox import characters, harness
from charbox.characters import box_char_sum, complete_poly_char_sum, exact_sum
from charbox.sampling import rng_for, sample_basis, sample_box, sample_character
from oracles import check_tall_split, exp_table, s_decomposition_dense, seeded_basis


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def fsum_or_none(vals):
    try:
        return math.fsum(vals)
    except OverflowError:  # intermediate overflow: exact_sum is only specified where fsum is finite
        return None


def outcome(fn):
    """The float's bits, or the exception type and message."""
    try:
        return ("value", np.float64(fn()).tobytes())
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


finite = st.floats(allow_nan=False, allow_infinity=False)
near_1e16 = st.floats(min_value=-1e16, max_value=1e16, allow_nan=False)
subnormal = st.floats(min_value=-2.3e-308, max_value=2.3e-308, allow_subnormal=True)
wide = st.builds(
    lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(min_value=-300, max_value=299)
)


class TestExactSumMatchesFsum:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(finite, near_1e16, subnormal, wide), max_size=60))
    def test_mixed(self, vals):
        want = fsum_or_none(vals)
        assume(want is not None)
        assert same_bits(exact_sum(np.array(vals)), want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(near_1e16, min_size=1, max_size=40), st.lists(st.floats(-4.0, 4.0), max_size=8))
    def test_cancellation_around_1e16(self, big, small):
        vals = big + small + [-v for v in big]  # big terms cancel exactly, small ones remain
        assert same_bits(exact_sum(np.array(vals)), math.fsum(vals))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(wide, subnormal), max_size=50))
    def test_exponents_1e_minus_300_to_1e300(self, vals):
        want = fsum_or_none(vals)
        assume(want is not None)
        assert same_bits(exact_sum(np.array(vals)), want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(subnormal, max_size=50))
    def test_subnormals(self, vals):
        assert same_bits(exact_sum(np.array(vals)), math.fsum(vals))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(finite, near_1e16, subnormal), min_size=5, max_size=60))
    def test_longer_than_one_bincount_chunk(self, vals):
        want = fsum_or_none(vals)
        assume(want is not None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(characters, "_SUM_CHUNK", 4)
            got = exact_sum(np.array(vals))
        assert same_bits(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(near_1e16, wide), max_size=40))
    def test_complex_sum_is_fsum_per_part(self, pairs):
        vals = np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)
        want_re, want_im = fsum_or_none(vals.real), fsum_or_none(vals.imag)
        assume(want_re is not None and want_im is not None)
        assert same_bits(characters._fsum_complex(vals), complex(want_re, want_im))

    def test_empty_and_single(self):
        assert same_bits(exact_sum(np.array([])), math.fsum([]))
        for v in (0.0, -0.0, 5e-324, -1.5, 1e300, -2.2250738585072014e-308):
            assert same_bits(exact_sum(np.array([v])), math.fsum([v]))

    def test_non_finite_goes_to_fsum(self):
        assert exact_sum(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(exact_sum(np.array([math.nan, 2.0])))
        with pytest.raises(ValueError):
            exact_sum(np.array([math.inf, -math.inf]))

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30), st.integers(0, 29),
           st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_non_finite_anywhere_goes_to_fsum(self, vals, at, bad):
        vals[at % len(vals)] = bad
        assert outcome(lambda: exact_sum(np.array(vals))) == outcome(lambda: math.fsum(vals))

    def test_sum_beyond_float_range_raises_overflow(self):
        with pytest.raises(OverflowError):
            exact_sum(np.array([1.5e308, 1.5e308, -1e307]))


# ---------------------------------------------------------------------------
# the seed algorithm: one q-sized chi table per character, math.fsum


def seed_table(chi, dlog=None):
    """chi on all of F_q from an int64 dlog table (default: `FieldCtx.dlog_at`)."""
    ctx = chi.ctx
    dlog = ctx.dlog_at(slice(None)) if dlog is None else dlog
    table = np.exp((2j * np.pi / ctx.q1) * (chi.k * dlog % ctx.q1))
    table[0] = 0
    return table


def seed_fsum_complex(vals):
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def seed_moment(table, ctx, interval, r):
    partials = []
    for start in range(0, ctx.q, harness._MOMENT_CHUNK):
        u = np.arange(start, min(start + harness._MOMENT_CHUNK, ctx.q))
        d0 = u % ctx.p
        inner = np.zeros(len(u), dtype=np.complex128)
        for z in interval:
            inner += table[u - d0 + (d0 + z % ctx.p) % ctx.p]
        partials.append(math.fsum(np.abs(inner) ** (2 * r)))
    return math.fsum(partials)


@pytest.mark.parametrize("p,n", [(31, 2), (31, 3), (101, 2), (101, 3)])
def test_sums_equal_seed_oracle(p, n):
    ctx = cached_field(p, n, seed=0)
    rng = rng_for(21, p, n)
    for trial in range(3):
        basis = sample_basis(ctx, rng)
        chi = sample_character(ctx, rng)
        table = seed_table(chi)
        for regime in ("small", "tall", "any"):
            box = sample_box(basis, rng, regime=regime)
            if box.size > 2**18:
                continue
            assert same_bits(box_char_sum(chi, box), seed_fsum_complex(table[box.element_indices()]))
            check_tall_split(chi, box, table)
        interval, r = [(range(1, 4), 4), (range(1, 6), 3), (range(1, 8), 2)][trial]
        got = harness.moment_sum(chi, interval, r).value
        assert same_bits(got, seed_moment(table, ctx, interval, r))


def test_moment_chunks_split_rows():
    # q = 67^3 spans two moment chunks and the chunk boundary falls mid-row
    ctx = cached_field(67, 3, seed=0)
    assert ctx.q > harness._MOMENT_CHUNK and harness._MOMENT_CHUNK % ctx.p != 0
    chi = Character(ctx, 4321)
    table = seed_table(chi)
    got = harness.moment_sum(chi, range(1, 6), 3).value
    assert same_bits(got, seed_moment(table, ctx, range(1, 6), 3))
    box = Box(seeded_basis(ctx, 3), (5, -7, 11), (2, 3, 60))
    assert same_bits(box_char_sum(chi, box), seed_fsum_complex(table[box.element_indices()]))


def seed_poly_char_sum(table, exp, dlog, ctx, roots):
    """sum over u of chi(prod (u + z_i)^e_i) as table[g^m], m = sum e_i dlog(u + z_i)."""
    digits = ctx.decode_array(np.arange(ctx.q))
    m = np.zeros(ctx.q, dtype=np.int64)
    zero = np.zeros(ctx.q, dtype=bool)
    for z, e in roots:
        d = dlog[ctx.encode_array((digits + z) % ctx.p)]
        zero |= d < 0
        m = (m + e * d) % ctx.q1
    vals = table[exp[m]]
    vals[zero] = 0
    return seed_fsum_complex(vals)


@pytest.mark.parametrize("k_back", [1, 2, 4321])
def test_k_near_q_matches_int64_table_oracle(k_back):
    # at (101, 3) k * dlog reaches 10^12, past int32: every kernel must
    # upcast the int32 tables before that product, as this oracle's tables are
    ctx = cached_field(101, 3, seed=0)
    dlog, exp = ctx.dlog_at(slice(None)), exp_table(ctx)
    chi = Character(ctx, ctx.q1 - k_back)
    table = seed_table(chi, dlog)
    rng = rng_for(23, k_back)
    basis = sample_basis(ctx, rng)
    for regime in ("small", "tall"):
        box = sample_box(basis, rng, regime=regime)
        assert same_bits(box_char_sum(chi, box), seed_fsum_complex(table[box.element_indices()]))
        check_tall_split(chi, box, table)

    roots = [(ctx.decode(int(exp[ctx.q1 - k_back])), 1), (ctx.decode(7), 2), (ctx.decode(ctx.q - 1), ctx.q1 - 5)]
    got = complete_poly_char_sum(chi, roots).value
    assert same_bits(got, seed_poly_char_sum(table, exp, dlog, ctx, roots))
    assert same_bits(harness.moment_sum(chi, range(1, 4), 2).value, seed_moment(table, ctx, range(1, 4), 2))

    small = Box(basis, (3, -2, 10), (3, 3, 3))
    b0 = difference_box(small)
    idx = b0.element_indices()
    z = ctx.decode(int(exp[ctx.q1 - k_back]))  # dlog(z) near q - 1
    nz = dlog[idx[idx != 0]]
    pairs = int(((nz[:, None] + dlog[ctx.encode(z)]) % ctx.q1 == nz[None, :]).sum())
    assert f_count(ctx, b0, z) == pairs + 1  # plus (0, 0)
    assert repr(s_decomposition(small)) == repr(s_decomposition_dense(small, dlog)[0])
