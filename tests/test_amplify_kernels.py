"""The amplify kernels against their dense references, bit for bit.

`s_decomposition` bins B0's ratios on F_q^*/{+-1} and sums h_0 in closed
form, `moment_sum` adds row slices instead of gathering each shift, and
`bad_tuple_count` runs an integer recurrence. The oracles in `oracles.py`
are the direct forms: h_0 over all pairs mod q - 1 with (q-1)-sized masks,
an index gather per shift, and the Fraction census.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charbox import BasisMatrix, Box, Character, cached_field
from charbox.sampling import rng_for, sample_basis, small_edge_cap
from oracles import (
    bad_tuple_count_fraction, moment_exact, moment_sum_expected, moment_sum_gather, s_decomposition_dense,
)

energy_mod = importlib.import_module("charbox.energy")  # the package re-exports a function `energy`
harness = importlib.import_module("charbox.harness")

FIELDS = [(31, 2), (61, 2), (101, 2), (31, 3), (61, 3), (101, 3)]


def profile_fields(prof, h_0) -> tuple:
    return (
        prof.E, prof.S, prof.S1, prof.S2, prof.sum_f_sq_over_zprime, prof.z_count,
        prof.zprime_count, prof.f_table, prof.hypothesis_ok, prof.checks,
        h_0.dtype, h_0.tobytes(),
    )


def s_decomposition_with_h0(box):
    """`energy.s_decomposition` and the h_0 it built, read from the private
    histogram function it calls; that returns one period, (q-1)/2 long, and
    h_0 over F_q^* is that period twice."""
    built = []
    real = energy_mod._difference_ratio_histogram

    def capture(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(energy_mod, "_difference_ratio_histogram", capture):
        prof = energy_mod.s_decomposition(box)
    assert len(built) == 1 and len(built[0]) == box.ctx.q1 // 2
    return prof, np.tile(built[0], 2)


def moment_bits(res) -> tuple:
    return (res.value.hex(), res.bound.hex(), res.good_count, res.bad_count, res.bad_bound,
            res.within_bound, res.census_ok)


@settings(max_examples=30, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    identity=st.booleans(),  # the identity basis puts +-1 in B0: the sign cut must split them
    seed=st.integers(0, 2**16),
    chunk=st.sampled_from([None, 3000, 20000]),
)
def test_s_decomposition_matches_dense(field, identity, seed, chunk):
    p, n = field
    ctx = cached_field(p, n, seed=0)
    rng = rng_for(seed, 51, p, n)
    basis = BasisMatrix.identity(ctx) if identity else sample_basis(ctx, rng)
    cap = small_edge_cap(p) if n == 2 else 4  # B0 at most 9^3 elements at n = 3
    box = Box(basis, tuple(int(v) for v in rng.integers(-p, p, size=n)),
              tuple(int(v) for v in rng.integers(1, cap + 1, size=n)))
    want = profile_fields(*s_decomposition_dense(box))
    with mock.patch.object(energy_mod, "_CHUNK", chunk or energy_mod._CHUNK):
        got = profile_fields(*s_decomposition_with_h0(box))
    assert got == want


def test_s_decomposition_full_edges_match_dense():
    # every edge at the sqrt(p/2) cap, B0 of 15^3 = 3375 elements over several sweep chunks
    ctx = cached_field(101, 3, seed=0)
    box = Box(sample_basis(ctx, rng_for(4, 101)), (3, -2, 10), (7, 7, 7))
    assert profile_fields(*s_decomposition_with_h0(box)) == profile_fields(*s_decomposition_dense(box))


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(FIELDS), seed=st.integers(0, 2**16), through_zero=st.booleans())
def test_s_decomposition_energy_is_energy(field, seed, through_zero):
    # E(B) from the ratio histogram h_B equals the product-histogram energy
    p, n = field
    ctx = cached_field(p, n, seed=0)
    rng = rng_for(seed, 52, p, n)
    cap = small_edge_cap(p) if n == 2 else 4
    H = tuple(int(v) for v in rng.integers(1, cap + 1, size=n))
    if through_zero:  # every edge's range N_i + 1 .. N_i + H_i holds coordinate 0
        N = tuple(-int(rng.integers(1, h + 1)) for h in H)
    else:  # coordinate 0 in no edge: 0 is not in B
        N = tuple(int(rng.integers(0, p - h)) for h in H)
    box = Box(sample_basis(ctx, rng), N, H)
    prof = energy_mod.s_decomposition(box)
    assert prof.checks["zero_in_B"] == through_zero
    assert prof.E == energy_mod.energy(ctx, box).E


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    k=st.integers(1, 10**6),
    start=st.integers(-250, 250),
    length=st.integers(1, 2**16),
    r=st.integers(1, 4),
    chunk=st.sampled_from([None, 97, 1000, 4099]),
)
def test_moment_sum_matches_gather(field, k, start, length, r, chunk):
    p, n = field
    ctx = cached_field(p, n, seed=0)
    # intervals up to 2p + 3 long, starts at multiples of p included; q |I| kept below 2^22
    length = 1 + length % min(2 * p + 3, (1 << 22) // ctx.q)
    interval = range(start, start + length)
    chi = Character(ctx, k % ctx.q1 or 1)
    with mock.patch.object(harness, "_MOMENT_CHUNK", chunk or harness._MOMENT_CHUNK):
        # a chunk size prime to p puts chunk boundaries mid-row; |I| <= 2
        # expects the exact integer, the rest the gather's bits
        assert moment_bits(harness.moment_sum(chi, interval, r)) == moment_bits(
            moment_sum_expected(chi, interval, r))


@pytest.mark.parametrize("start", [-31, 0, 62])
def test_moment_sum_zero_shift_long_interval(start):
    # z = 0 mod p adds rows unrotated; |I| > p wraps every row more than once
    ctx = cached_field(31, 3, seed=0)
    chi = Character(ctx, 4321)
    interval = range(start, start + 70)
    with mock.patch.object(harness, "_MOMENT_CHUNK", 5000):
        assert moment_bits(harness.moment_sum(chi, interval, 2)) == moment_bits(
            moment_sum_gather(chi, interval, 2))


@pytest.mark.parametrize("p, n", [(31, 2), (31, 3)])
@pytest.mark.parametrize("order", [1, 2, 3, 10, None])  # None: 4321, of order q1/gcd(q1, 4321)
def test_closed_form_moment(monkeypatch, p, n, order):
    # orders 1 (trivial), 2, 3 and 10 meet d <= r and d > r as r runs to 10.
    # One point and two points distinct mod p take the exact integer and
    # sweep no term; two points equal mod p stay on the sweep, bit for bit
    ctx = cached_field(p, n, seed=0)
    chi = Character(ctx, 4321 if order is None else ctx.q1 // order % ctx.q1)
    assert order in (None, chi.order)
    swept = []
    real_terms = harness._moment_terms

    def counted_terms(*args):
        swept.append(args[1])
        return real_terms(*args)

    monkeypatch.setattr(harness, "_moment_terms", counted_terms)
    intervals = [range(0, 1), range(p - 1, p), range(0, 2), range(p - 1, p + 1), range(-3, -1),
                 range(1, p + 3, p + 1), range(0, 2 * p, p)]
    for r in range(1, 11):
        for interval in intervals:
            swept.clear()
            got = harness.moment_sum(chi, interval, r)
            assert moment_bits(got) == moment_bits(moment_sum_expected(chi, interval, r))
            closed = moment_exact(chi, interval, r) is not None
            assert closed == (interval != range(0, 2 * p, p))
            assert (not swept) == closed


@pytest.mark.parametrize("size", [1, 2])
def test_closed_form_overflow_matches_gather(size):
    # past r = 80, r^(2r) leaves the float range: the bound raises on both paths
    ctx = cached_field(31, 2, seed=0)
    chi, interval, r = Character(ctx, 0), range(1, 1 + size), 100
    with pytest.raises(OverflowError):
        moment_sum_gather(chi, interval, r)
    with pytest.raises(OverflowError):
        harness.moment_sum(chi, interval, r)


def test_bad_tuple_count_matches_fraction():
    for alphabet in range(12):
        for r in list(range(1, 13)) + [20, 30]:
            assert harness.bad_tuple_count(alphabet, r) == bad_tuple_count_fraction(alphabet, r)

