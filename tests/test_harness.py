import numpy as np
import pytest

from charbox import (
    Box,
    Character,
    RegimeError,
    bad_tuple_count,
    build_field,
    burgess_trace,
    choose_parameters,
    delta_bracket_ok,
    moment_sum,
    scaled_box,
)
from charbox import harness
from charbox.sampling import rng_for, sample_basis
from oracles import bad_tuple_count_bruteforce, burgess_shift_loop


class TestChooseParameters:
    def test_eps_point_one(self):
        params = choose_parameters(0.1)
        assert params.r == 30 and params.delta == 0.05

    def test_eps_point_three(self):
        params = choose_parameters(0.3)
        assert params.r == 10 and params.delta == 0.15

    def test_interval_from_p(self):
        params = choose_parameters(0.3, p=101)
        assert params.interval == range(1, int(101**0.15) + 1)

    def test_bracket_over_thousand_samples(self):
        for eps in np.linspace(0.005, 0.4999, 1000):
            params = choose_parameters(float(eps))
            assert delta_bracket_ok(float(eps), params.delta)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 0.5, 0.7):
            with pytest.raises(RegimeError):
                choose_parameters(bad)


class TestBadTupleCensus:
    @pytest.mark.parametrize("alphabet,r", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_matches_bruteforce(self, alphabet, r):
        assert bad_tuple_count(alphabet, r) == bad_tuple_count_bruteforce(alphabet, r)

    def test_exhaustive_threes(self):
        # |I| = 3, r = 2: 81 tuples total
        assert bad_tuple_count(3, 2) == 21
        assert 3**4 == 21 + (3**4 - 21)

    def test_bound(self):
        for alphabet in (2, 5, 17):
            for r in (2, 3, 5):
                assert bad_tuple_count(alphabet, r) <= alphabet**r * r ** (2 * r)


class TestMomentSum:
    def test_single_point_interval(self, f31_2):
        chi = Character(f31_2, 5)
        res = moment_sum(chi, range(1, 2), 3)
        # |chi(u + 1)|^(2r) = 1 except at u = -1
        assert abs(res.value - (f31_2.q - 1)) < 1e-9
        assert res.within_bound and res.census_ok

    def test_bruteforce_p31(self, f31_2):
        chi = Character(f31_2, 7)
        interval, r = range(1, 4), 2
        res = moment_sum(chi, interval, r)
        brute = 0.0
        for i in range(f31_2.q):
            u = f31_2.decode(i)
            inner = sum(chi.value(f31_2.add(u, f31_2.from_int(z))) for z in interval)
            brute += abs(inner) ** (2 * r)
        assert abs(res.value - brute) < 1e-6
        assert res.value <= res.bound + 1e-3
        assert res.good_count == 3**4 - 21 and res.bad_count == 21

    def test_budget(self, f31_2, monkeypatch):
        monkeypatch.setattr(harness, "MOMENT_BUDGET", 100)  # q |I| = 8649
        with pytest.raises(RegimeError, match="budget"):
            moment_sum(Character(f31_2, 5), range(1, 10), 2)


@pytest.fixture(scope="module")
def f67():
    # built, not cached: the fields stay out of the process-wide field cache
    return {n: build_field(67, n, seed=0) for n in (2, 3)}


class TestBurgessTrace:
    def test_full_bruteforce_p61(self, f61_2):
        ctx = f61_2
        rng = rng_for(2, 0)
        basis = sample_basis(ctx, rng)
        box = Box(basis, (4, -3), (3, 4))
        chi = Character(ctx, 17)
        trace = burgess_trace(box, chi, 0.3)
        assert trace.ok, trace.checks

        params_interval = range(1, int(61**trace.delta) + 1)
        b0 = scaled_box(box, trace.delta)
        # independent recomputation of the triple sum and shift diffs
        b_elems = [e for _, e in box.elements()]
        b_idx = {ctx.encode(e) for e in b_elems}
        triple = 0j
        worst_sym = 0
        for _, y in b0.elements():
            for z in params_interval:
                c = ctx.mul(y, ctx.from_int(z))
                shifted = {ctx.encode(ctx.add(x, c)) for x in b_elems}
                worst_sym = max(worst_sym, len(b_idx - shifted) + len(shifted - b_idx))
                triple += sum(chi.value(ctx.add(x, c)) for x in b_elems)
        assert abs(abs(triple) - trace.triple_abs) < 1e-9
        assert worst_sym == trace.max_sym_diff
        assert worst_sym <= 6 * 61 ** (-trace.delta) * box.size
        assert abs(trace.true_sum) <= trace.assembled_bound + 1e-6

    @pytest.mark.parametrize("n, N, H", [
        (2, (-3, -1), (5, 4)),  # through 0
        (2, (64, 130), (5, 5)),  # offsets wrap mod p
        (3, (-2, -3, -1), (5, 4, 5)),
        (3, (63, -70, 130), (5, 5, 5)),
    ])
    @pytest.mark.parametrize("slice_shifts", [1, 3, None])
    def test_batched_shifts_match_shift_loop(self, monkeypatch, f67, n, N, H, slice_shifts):
        # the batched shifts give the per-shift loop's bits at any slice size
        # (None: the default); at p = 67, eps = 0.35 there are |B0| * 2 shifts
        ctx = f67[n]
        box = Box(sample_basis(ctx, rng_for(2, 5, n)), N, H)
        chi = Character(ctx, 1234)
        if slice_shifts is not None:
            monkeypatch.setattr(harness, "_SHIFT_CHUNK", slice_shifts * box.size)
        trace = burgess_trace(box, chi, 0.35)
        averaged, triple_abs, max_sym = burgess_shift_loop(box, chi, 0.35)
        assert trace.b0_size * trace.interval_len > 3
        assert (trace.averaged_sum.real.hex(), trace.averaged_sum.imag.hex()) == (
            averaged.real.hex(), averaged.imag.hex())
        assert trace.triple_abs.hex() == triple_abs.hex()
        assert trace.max_sym_diff == max_sym and type(trace.max_sym_diff) is int

    def test_shift_identity_zero_shift(self, f61_2):
        # y = 0 gives identical boxes: symmetric difference 0
        ctx = f61_2
        basis = sample_basis(ctx, rng_for(2, 1))
        box = Box(basis, (0, 0), (3, 3))
        idx = set(box.element_indices().tolist())
        shifted = {ctx.encode(ctx.add(e, ctx.zero())) for _, e in box.elements()}
        assert idx == shifted

    def test_regime_validation(self, f61_2):
        basis = sample_basis(f61_2, rng_for(2, 2))
        tall = Box(basis, (0, 0), (3, 30))
        with pytest.raises(RegimeError, match="sqrt"):
            burgess_trace(tall, Character(f61_2, 3), 0.3)
        small = Box(basis, (0, 0), (3, 3))
        with pytest.raises(RegimeError):
            burgess_trace(small, Character(f61_2, 0), 0.3)

    def test_r_cap(self, f61_2):
        basis = sample_basis(f61_2, rng_for(2, 3))
        box = Box(basis, (0, 0), (2, 2))
        with pytest.raises(RegimeError, match="cap"):
            burgess_trace(box, Character(f61_2, 3), 0.05)  # r = 60

    def test_holder_chain_members(self, f31_2):
        ctx = f31_2
        basis = sample_basis(ctx, rng_for(2, 4))
        box = Box(basis, (1, 1), (3, 3))
        chi = Character(ctx, 4)
        trace = burgess_trace(box, chi, 0.25)
        lhs = trace.triple_abs
        rhs = (
            trace.sum_tau ** (1 - 1 / trace.r)
            * trace.sum_tau_sq ** (1 / (2 * trace.r))
            * trace.moment.value ** (1 / (2 * trace.r))
            + box.size * trace.interval_len
        )
        assert lhs <= rhs + 1e-6
        assert abs(rhs - trace.holder_rhs) < 1e-9
