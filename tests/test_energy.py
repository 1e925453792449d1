import importlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from charbox import (
    Box,
    cached_field,
    difference_box,
    energy,
    f_count,
    ratio_set,
    s_decomposition,
    scaled_box,
    tau_profile,
)
from charbox.energy import EnergyBudgetError, one_dim_f_counts
from charbox.lattice import minima_for_z
from charbox.pilot import _lambda1_key_table
from charbox.sampling import rng_for, sample_basis, sample_box, sample_ratio_z, sample_z
from oracles import energy_bruteforce, exp_table, frobenius_basis, ratio_bincount_dense, scaled_basis

energy_mod = importlib.import_module("charbox.energy")  # the package re-exports a function `energy`


def random_subset(ctx, rng, size, include_zero=False):
    idx = set()
    if include_zero:
        idx.add(0)
    while len(idx) < size:
        idx.add(int(rng.integers(0 if include_zero else 1, ctx.q)))
    return [ctx.decode(i) for i in idx]


class TestEnergy:
    def test_singleton(self, f31_2):
        assert energy(f31_2, [f31_2.decode(7)]).E == 1

    def test_zero_and_one_element(self, f31_2):
        ctx = f31_2
        prof = energy(ctx, [ctx.zero(), ctx.decode(9)])
        assert prof.E == 10
        assert prof.r_zero == 3
        sq = ctx.mul(ctx.decode(9), ctx.decode(9))
        assert prof.r(sq) == 1
        # the one key is dlog(sq): dlogs before and after it count 0
        d = ctx.dlog_of(sq)
        assert 0 < d - 1 and d + 1 < ctx.q1 - 1
        exp = exp_table(ctx)
        for other in (0, d - 1, d + 1, ctx.q1 - 1):
            assert prof.r(ctx.decode(int(exp[other]))) == 0
        only_zero = energy(ctx, [ctx.zero()])  # no nonzero products, so no keys
        assert (only_zero.E, only_zero.r(ctx.zero()), only_zero.r(ctx.one()), only_zero.r(sq)) == (1, 1, 0, 0)

    def test_full_multiplicative_group(self):
        ctx = cached_field(3, 2, seed=0)
        prof = energy(ctx, [ctx.decode(i) for i in range(1, 9)])
        assert prof.E == 8**3

    def test_matches_quadruple_oracle(self, f31_2):
        rng = rng_for(0, 10)
        for trial in range(6):
            elems = random_subset(f31_2, rng, 5, include_zero=trial % 2 == 0)
            assert energy(f31_2, elems).E == energy_bruteforce(f31_2, elems)

    def test_histogram_invariants(self, f31_2):
        rng = rng_for(0, 11)
        elems = random_subset(f31_2, rng, 12, include_zero=True)
        prof = energy(f31_2, elems)
        hist = prof.product_histogram
        assert sum(hist.values()) == prof.total_pairs == len(elems) ** 2
        assert prof.E == sum(v * v for v in hist.values())

    def test_dilation_invariance(self, f31_2):
        rng = rng_for(0, 12)
        elems = random_subset(f31_2, rng, 10, include_zero=True)
        c = f31_2.decode(17)
        scaled = [f31_2.mul(c, e) for e in elems]
        assert energy(f31_2, elems).E == energy(f31_2, scaled).E

    def test_bounds(self, f31_2):
        # lower: diagonal quadruples; upper: choosing x, y, w forces t when
        # w != 0, with the zero products counted through r(0)
        rng = rng_for(0, 13)
        for trial in range(10):
            elems = random_subset(f31_2, rng, int(rng.integers(1, 9)), include_zero=trial % 3 == 0)
            prof = energy(f31_2, elems)
            m, z = len(elems), int(any(not any(e) for e in elems))
            assert m**2 <= prof.E <= (m - z) ** 3 + prof.r_zero**2
            if not z:
                assert prof.E <= m**3

    def test_budget(self, f31_2, monkeypatch):
        monkeypatch.setattr(energy_mod, "PAIR_BUDGET", 10)
        with pytest.raises(EnergyBudgetError):
            energy(f31_2, [f31_2.decode(i) for i in range(1, 100)])


class TestFCount:
    def test_z_one_counts_diagonal(self, f31_2):
        rng = rng_for(0, 14)
        elems = random_subset(f31_2, rng, 8)
        assert f_count(f31_2, elems, f31_2.one()) == len(elems)

    def test_disjoint_translate(self, f31_2):
        # S without 0 and z moving S off itself
        elems = [f31_2.decode(i) for i in (1, 2)]
        zs = [z for z in (f31_2.decode(j) for j in range(2, 40)) if f_count(f31_2, elems, z) == 0]
        assert zs  # such z exist

    def test_matches_double_loop(self, f31_2):
        rng = rng_for(0, 15)
        for trial in range(10):
            elems = random_subset(f31_2, rng, 7, include_zero=trial % 2 == 0)
            z = f31_2.decode(int(rng.integers(0, f31_2.q)))
            brute = sum(
                1 for x in elems for y in elems if f31_2.mul(x, z) == y
            )
            assert f_count(f31_2, elems, z) == brute


class TestRatioSet:
    def test_zero_and_a(self, f31_2):
        assert ratio_set(f31_2, [f31_2.zero(), f31_2.decode(5)]) == {f31_2.one()}

    def test_two_distinct(self, f31_2):
        a, b = f31_2.decode(4), f31_2.decode(9)
        expected = {f31_2.one(), f31_2.div(a, b), f31_2.div(b, a)}
        assert ratio_set(f31_2, [a, b]) == expected

    def test_matches_definition_scan(self, f31_2):
        rng = rng_for(0, 16)
        elems = random_subset(f31_2, rng, 9, include_zero=True)
        nonzero = [e for e in elems if any(e)]
        expected = {f31_2.div(y, x) for x in nonzero for y in nonzero}
        got = ratio_set(f31_2, elems)
        assert got == expected
        assert len(got) <= len(nonzero) ** 2


class TestPairSweep:
    """_pair_counts, ratio_set and the pilot's lambda_1 table share one
    chunked pair sweep; a small _CHUNK spreads the pairs over several chunks."""

    def test_pair_counts_matches_pair_loop(self, f31_2, monkeypatch):
        monkeypatch.setattr(energy_mod, "_CHUNK", 20)  # 2 left rows per chunk, 7 chunks
        rng = rng_for(0, 40)
        left = rng.integers(0, f31_2.q1, size=13)
        right = rng.integers(0, f31_2.q1, size=9)
        # modulus (q-1)/2: the difference box's histogram on F_q^*/{+-1}
        for sign, modulus in product((1, -1), (f31_2.q1, f31_2.q1 // 2)):
            expected = np.zeros(modulus, dtype=np.int64)
            for a in left.tolist():
                for b in right.tolist():
                    expected[(a + sign * b) % modulus] += 1
            keys, counts = energy_mod._pair_counts(left, right, sign, modulus)
            assert np.array_equal(keys, np.flatnonzero(expected))
            assert counts.dtype == np.int64 and np.array_equal(counts, expected[keys])

    @settings(max_examples=60, deadline=None)
    @given(
        dlogs=st.lists(st.integers(0, 10**6), max_size=40),
        modulus=st.sampled_from([1, 2, 480, 961, 1_000_003]),
        chunk=st.sampled_from([5, 50, 1 << 21]),
    )
    @example(dlogs=[9, 2, 7, 2, 0, 9, 5, 1], modulus=480, chunk=5)  # unsorted, with repeats
    def test_self_ratio_bincount_matches_all_pairs(self, dlogs, modulus, chunk):
        # the sorted i < j sweep plus reflection and diagonal is the all-pairs
        # histogram, and the caller's array keeps its order
        dlogs = np.array(dlogs, dtype=np.int64) % modulus
        before = dlogs.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy_mod, "_CHUNK", chunk)
            got = energy_mod._self_ratio_bincount(dlogs, modulus)
        expected = np.zeros(modulus, dtype=np.int64)
        np.add.at(expected, (dlogs[:, None] - dlogs[None, :]).ravel() % modulus, 1)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.array_equal(dlogs, before)

    def test_threads_bin_into_their_own_scratch(self):
        # h_0 is binned into a histogram kept per thread: concurrent
        # s_decomposition calls on two fields must not see each other's counts
        boxes = [Box(sample_basis(cached_field(p, 3, seed=0), rng_for(7, p)), (1, -2, 3), (3, 3, 3))
                 for p in (31, 61)]
        want = [repr(s_decomposition(b)) for b in boxes]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda i: repr(s_decomposition(boxes[i % 2])), range(24), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert got == [want[i % 2] for i in range(24)]

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(0, 30), with_zero=st.booleans(), chunk=st.sampled_from([7, 100, 1 << 21]),
           seed=st.integers(0, 2**16))
    def test_ratio_counts_match_dense_histogram_and_energy(self, f31_2, size, with_zero, chunk, seed):
        # sorted-key counts, merged over chunks, are the nonzero bins of the
        # dense ratio histogram, and their square sum gives E
        ctx = f31_2
        idx = np.unique(rng_for(seed, 42).integers(1, ctx.q, size=size))
        if with_zero:
            idx = np.concatenate([[0], idx])
        dlogs = ctx.dlog_at(idx[idx != 0])
        dense = ratio_bincount_dense(dlogs, ctx.q1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy_mod, "_CHUNK", chunk)
            keys, counts, _, e = energy_mod._pair_energy(ctx, idx, -1)
        assert np.array_equal(keys, np.flatnonzero(dense)) and np.array_equal(counts, dense[keys])
        assert counts.dtype == np.int64 and e == energy(ctx, idx).E

    def test_ratio_set_matches_pair_loop(self, f31_2, monkeypatch):
        monkeypatch.setattr(energy_mod, "_CHUNK", 25)
        elems = random_subset(f31_2, rng_for(0, 41), 12, include_zero=True)
        nonzero = [e for e in elems if any(e)]
        assert ratio_set(f31_2, elems) == {f31_2.div(y, x) for x in nonzero for y in nonzero}

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3)])
    def test_lambda1_table_matches_pair_loop(self, monkeypatch, p, n):
        monkeypatch.setattr(energy_mod, "_CHUNK", 1000)
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(1, p, n)
        box = Box(sample_basis(ctx, rng), (0,) * n, tuple(int(v) for v in rng.integers(1, 4, size=n)))
        table, scale = _lambda1_key_table(box)
        assert scale == math.lcm(*box.H)
        pairs = [(coords, ctx.dlog_of(e)) for coords, e in difference_box(box).elements() if any(e)]
        expected: dict[int, int] = {}
        for cx, dx in pairs:
            for cy, dy in pairs:
                key = max(abs(c) * (scale // h) for c, h in zip(cx + cy, box.H * 2))
                d = (dy - dx) % ctx.q1
                expected[d] = min(expected.get(d, key), key)
        hits = np.nonzero(table < np.iinfo(np.int64).max)[0]
        assert {int(d): int(table[d]) for d in hits} == expected

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2), (61, 3)])
    def test_lambda1_table_equals_first_minimum(self, p, n):
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(2, p, n)
        for _ in range(2):
            box = sample_box(sample_basis(ctx, rng), rng, regime="small")
            table, scale = _lambda1_key_table(box)
            b0 = difference_box(box).element_indices()
            nz = b0[b0 != 0]
            checked = 0
            while checked < 8:
                x, y = (ctx.decode(int(nz[i])) for i in rng.integers(0, len(nz), size=2))
                z = ctx.div(y, x)
                if ctx.in_prime_subfield(z):
                    continue
                lam1 = Fraction(int(table[ctx.dlog_of(z)]), scale)
                assert minima_for_z(box, z).lambdas[0] == lam1
                checked += 1


class TestSDecomposition:
    def test_exhaustive_tiny_box(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (3, -5), (1, 1))
        prof = s_decomposition(box)
        ctx = f31_2
        b0 = difference_box(box)
        b0_elems = [e for _, e in b0.elements()]
        nonzero = [e for e in b0_elems if any(e)]
        z_set = {ctx.div(y, x) for x in nonzero for y in nonzero}

        def f0(z):
            return sum(1 for x in b0_elems for y in b0_elems if ctx.mul(x, z) == y)

        s_expected = sum(f0(z) ** 2 for z in z_set)
        s1_expected = sum(f0(z) ** 2 for z in z_set if not ctx.in_prime_subfield(z))
        s2_expected = sum(f0(ctx.from_int(t)) ** 2 for t in range(1, 31))
        assert prof.S == s_expected
        assert prof.S1 == s1_expected
        assert prof.S2 == s2_expected
        assert prof.z_count == len(z_set)
        assert prof.E == energy_bruteforce(ctx, [e for _, e in box.elements()])
        assert all(prof.checks.values()) or not prof.checks["zero_in_B"]

    def test_chain_and_factorization_random(self):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(0, 17)
        for _ in range(8):
            basis = sample_basis(ctx, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-31, 31, size=3)),
                      tuple(int(v) for v in rng.integers(1, 4, size=3)))
            prof = s_decomposition(box)
            assert prof.hypothesis_ok
            for name in ("chain_2_1", "chain_3sq", "f_le_f0", "s_le_s1_plus_s2",
                         "f0_factorizes_on_prime_subfield", "f0_at_least_one"):
                assert prof.checks[name], name

    def test_f0_equals_one_off_z(self, f31_2, id_basis_31_2):
        # Z and f_0 on F_q^* are ratio_set and f_count of the difference box
        ctx = f31_2
        b0 = difference_box(Box(id_basis_31_2, (4, 4), (2, 2)))
        z_set = ratio_set(ctx, b0)
        rng = rng_for(0, 18)
        for _ in range(30):
            z = ctx.decode(int(rng.integers(1, ctx.q)))
            if z not in z_set:
                assert f_count(ctx, b0, z) == 1

    @pytest.mark.parametrize("p, n", [(31, 2), (61, 2), (31, 3)])
    def test_ratio_set_and_f_count_read_h0(self, p, n):
        # the s_decomposition histogram h_0: Z = {h_0 > 0}, f_0(z) = 1 + h_0[dlog z]
        ctx = cached_field(p, n, seed=0)
        exp = exp_table(ctx)
        rng = rng_for(2, 18, p, n)
        for _ in range(4):
            box = sample_box(sample_basis(ctx, rng), rng, regime="small")
            b0 = difference_box(box)
            period = energy_mod._difference_ratio_histogram(ctx, np.unique(b0.element_indices()))
            h_0 = np.tile(period, 2)  # the helper returns one period of h_0, (q-1)/2 long
            in_z = np.flatnonzero(h_0)
            assert ratio_set(ctx, b0) == {ctx.decode(int(exp[d])) for d in in_z}
            sampled = rng.integers(0, ctx.q1, size=40)
            for d in np.concatenate([in_z[:40], sampled]):
                z = ctx.decode(int(exp[d]))
                assert f_count(ctx, b0, z) == 1 + h_0[d]

    def test_hypothesis_flag(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (9, 2))  # 9 >= sqrt(15.5)
        prof = s_decomposition(box)
        assert not prof.hypothesis_ok

    def test_one_dim_counts_match_definition(self):
        p = 31
        for h in (1, 2, 4):
            zs = np.arange(1, p, dtype=np.int64)
            counts = one_dim_f_counts(p, h, zs)
            for z, c in zip(zs, counts):
                brute = sum(
                    1
                    for x in range(-h, h + 1)
                    for y in range(-h, h + 1)
                    if (x * z - y) % p == 0
                )
                assert c == brute


class TestRatioInvariances:
    """Scaling and Frobenius map B0 = difference_box(B) onto the difference box
    of the image: x z = y iff (lam x) z = lam y iff x^p z^p = y^p. So f_0(z)
    moves to f_0(z) on lam B and f_0(z^p) on B^sigma, and S, S1, S2 stay, all
    compared as ints. Bases are transformed after normalize(), which orders
    them by H."""

    @pytest.mark.parametrize("p, n", [(31, 2), (31, 3), (61, 2)])
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20))
    def test_scaling_and_frobenius(self, p, n, seed):
        ctx = cached_field(p, n, seed=0)
        rng = rng_for(seed, 53, p, n)
        nb = sample_box(sample_basis(ctx, rng), rng, regime="small").normalize()
        nz = difference_box(nb).element_indices()
        zs = (sample_ratio_z(ctx, nz[nz != 0], rng), sample_z(ctx, rng))
        f0 = [f_count(ctx, difference_box(nb), z) for z in zs]
        assert f0[0] > 1  # the ratio z meets a nonzero pair of B0
        prof = s_decomposition(nb)

        scaled = Box(scaled_basis(nb.basis, sample_z(ctx, rng, outside_prime_subfield=False)), nb.N, nb.H)
        frob = Box(frobenius_basis(nb.basis), nb.N, nb.H)
        for image, image_zs in ((scaled, zs), (frob, [ctx.pow(z, p) for z in zs])):
            assert [f_count(ctx, difference_box(image), z) for z in image_zs] == f0
            got = s_decomposition(image)
            assert (got.S, got.S1, got.S2) == (prof.S, prof.S1, prof.S2)
            assert all(type(v) is int for v in (got.S, got.S1, got.S2))


class TestTauProfile:
    def test_single_zero_b0(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (3, 3))
        b0 = Box(id_basis_31_2, (-1, -1), (1, 1))  # only the zero element
        prof = tau_profile(box, b0)
        assert prof.sum_tau == 0 and prof.sum_tau_sq == 0
        assert all(prof.checks.values())

    def test_exact_identities(self, f31_2):
        rng = rng_for(0, 19)
        for _ in range(6):
            basis = sample_basis(f31_2, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-10, 10, size=2)),
                      tuple(int(v) for v in rng.integers(1, 4, size=2)))
            b0 = scaled_box(box, 0.15)
            prof = tau_profile(box, b0)
            assert prof.checks["total_pairs"]
            assert prof.checks["tau_zero_bound"]
            assert prof.checks["cauchy_schwarz"]

    def test_tau_squared_equals_quadruple_count(self, f31_2, id_basis_31_2):
        ctx = f31_2
        box = Box(id_basis_31_2, (-1, 2), (2, 2))
        b0 = Box(id_basis_31_2, (-2, -2), (3, 3))
        prof = tau_profile(box, b0)
        b_elems = [e for _, e in box.elements()]
        b0_nonzero = [e for _, e in b0.elements() if any(e)]
        count = sum(
            1
            for x1 in b_elems
            for x2 in b_elems
            for y1 in b0_nonzero
            for y2 in b0_nonzero
            if ctx.mul(x1, y2) == ctx.mul(x2, y1)
        )
        assert prof.sum_tau_sq == count

    def test_box_ratio_histogram_swept_once_per_box(self, f31_2, id_basis_31_2):
        # s_decomposition then tau_profile on one Box sweeps B's ratio pairs
        # once; a fresh Box with the same edges is swept again
        box = Box(id_basis_31_2, (3, -4), (3, 2))
        b0 = scaled_box(box, 0.15)
        idx_b = np.sort(box.element_indices())
        with mock.patch.object(energy_mod, "_pair_energy", wraps=energy_mod._pair_energy) as spy:
            prof = s_decomposition(box)
            tau = tau_profile(box, b0)
            twin = Box(id_basis_31_2, box.N, box.H)
            assert s_decomposition(twin).E == prof.E
        sweeps_of_b = [c for c in spy.call_args_list if np.array_equal(c.args[1], idx_b)]
        assert len(sweeps_of_b) == 2  # box and twin, once each
        assert tau.checks["cauchy_schwarz"] and prof.E == energy(f31_2, box).E

    def test_tau_of_accessor(self, f31_2, id_basis_31_2):
        ctx = f31_2
        b0 = Box(id_basis_31_2, (-2, -2), (3, 3))
        b0_nonzero = [e for _, e in b0.elements() if any(e)]
        rng = rng_for(0, 20)
        for offset in ((0, 0), (5, 5)):
            box = Box(id_basis_31_2, offset, (2, 2))
            prof = tau_profile(box, b0)
            b_elems = [e for _, e in box.elements()]
            us = [ctx.decode(int(rng.integers(0, ctx.q))) for _ in range(20)]
            if offset == (5, 5):  # B misses B0: the first key is past dlog 0, the last before q - 2
                keys = sorted({ctx.dlog_of(ctx.div(x, y)) for x in b_elems for y in b0_nonzero})
                assert 0 < keys[0] - 1 and keys[-1] + 1 < ctx.q1 - 1
                exp = exp_table(ctx)
                edges = [ctx.decode(int(exp[d])) for d in (0, keys[0] - 1, keys[-1] + 1, ctx.q1 - 1)]
                assert all(prof.tau_of(ctx, u) == 0 for u in edges)
                us += edges
            for u in us:
                brute = sum(1 for x in b_elems for y in b0_nonzero if ctx.div(x, y) == u)
                assert prof.tau_of(ctx, u) == brute
        only_zero = tau_profile(Box(id_basis_31_2, (-1, -1), (1, 1)), b0)  # B = {0}: no keys
        assert only_zero.tau_zero == len(b0_nonzero)
        assert only_zero.tau_of(ctx, ctx.one()) == 0 and only_zero.tau_of(ctx, b0_nonzero[0]) == 0


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(0, 960), min_size=1, max_size=8, unique=True),
       c_index=st.integers(1, 960))
def test_energy_dilation_invariance_property(seeds, c_index):
    ctx = cached_field(31, 2, seed=0)
    elems = [ctx.decode(i) for i in seeds]
    c = ctx.decode(c_index)
    assert energy(ctx, elems).E == energy(ctx, [ctx.mul(c, e) for e in elems]).E


def test_pair_kernels_memory_at_field_budget(traced_peak):
    # q = 4093^2 is near the 2^24 table budget, where one (q-1)-sized int64
    # histogram is 134 MB; a 6x6 box has 36^2 pairs and its difference box
    # 121^2, so the sorted-key kernels stay far below 8 MB
    ctx = cached_field(4093, 2, seed=0)
    box = Box(sample_basis(ctx, rng_for(0, 60)), (0, 0), (6, 6))
    b0 = difference_box(box)
    z = ctx.decode(12345)
    for run in (lambda: energy(ctx, box), lambda: tau_profile(box, b0),
                lambda: ratio_set(ctx, box), lambda: f_count(ctx, box, z)):
        assert traced_peak(run) < 8 * 2**20


@pytest.mark.parametrize("modulus", [2**40, 1000])  # every key distinct; few distinct keys
def test_pair_counts_memory_bound(monkeypatch, traced_peak, modulus):
    # the docstring's bound on a call of 88 chunks: 9 B per pair plus 24 B
    # per distinct key, plus one chunk (its keys and a floor-division temporary)
    monkeypatch.setattr(energy_mod, "_CHUNK", 1 << 12)
    rng = rng_for(0, 61)
    left, right = rng.integers(0, modulus, size=700), rng.integers(0, modulus, size=500)
    out = []
    peak = traced_peak(lambda: out.append(energy_mod._pair_counts(left, right, -1, modulus)))
    keys, counts = out[0]
    pairs = left.size * right.size
    assert int(counts.sum()) == pairs
    assert peak <= 9 * pairs + 24 * len(keys) + 2 * 8 * (1 << 12) + 2**16


class TestPairBudget:
    """Every pair sweep obeys one budget, and a Box is refused by its size
    before it is enumerated: B has 24 elements (576 pairs), B0 117 (13,689)."""

    @pytest.fixture
    def box(self, monkeypatch, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (4, 6))

        def enumerated(self):
            raise AssertionError("box enumerated before the budget check")

        monkeypatch.setattr(Box, "element_indices", enumerated)
        monkeypatch.setattr(energy_mod, "PAIR_BUDGET", 575)
        return box

    def test_energy_and_ratio_set(self, f31_2, box):
        for run in (energy, ratio_set):
            with pytest.raises(EnergyBudgetError, match="^576 pairs exceed the pair budget of 575$"):
                run(f31_2, box)

    def test_s_decomposition_and_lambda1_table(self, box):
        for run in (s_decomposition, _lambda1_key_table):
            with pytest.raises(EnergyBudgetError, match="^13689 pairs exceed the pair budget of 575$"):
                run(box)

    def test_tau_profile(self, box):
        # its largest sweep is B0's own ratio histogram
        with pytest.raises(EnergyBudgetError, match="^13689 pairs exceed the pair budget of 575$"):
            tau_profile(box, difference_box(box))

    def test_budget_is_inclusive_and_f_count_is_unchecked(self, f31_2, id_basis_31_2, monkeypatch):
        box = Box(id_basis_31_2, (0, 0), (4, 6))
        monkeypatch.setattr(energy_mod, "PAIR_BUDGET", 576)
        assert energy(f31_2, box).size == box.size
        monkeypatch.setattr(energy_mod, "PAIR_BUDGET", 0)  # f_count sweeps no pairs
        assert f_count(f31_2, box, f31_2.one()) == box.size
