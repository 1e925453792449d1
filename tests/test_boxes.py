import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charbox import (
    BasisMatrix,
    Box,
    BoxError,
    Character,
    box_char_sum,
    cached_field,
    degenerate_pair_closed_form,
    degenerate_pair_set,
    difference_box,
    format_box_spec,
    omega_line_intersection,
    parse_box_spec,
    scaled_box,
    subdivide_box,
    tall_box_identity,
)
from charbox.boxes import _sorted_distinct, tall_walk
from charbox.sampling import rng_for, sample_basis, small_edge_cap
from oracles import check_tall_split, omega_line_count_bruteforce, seeded_basis


class TestEnumeration:
    def test_single_element(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (4, -7), (1, 1))
        elems = list(box.elements())
        assert len(elems) == 1
        coords, elem = elems[0]
        assert coords == (5, -6)
        assert elem == f31_2.elem([5, -6])

    def test_indices_computed_once_and_read_only(self, f25):
        box = Box(seeded_basis(f25, 1), (0, 1), (2, 3))
        idx = box.element_indices()
        assert box.element_indices() is idx
        with pytest.raises(ValueError):
            idx[0] = 0

    def test_six_distinct_elements(self, f25):
        box = Box(seeded_basis(f25, 1), (0, 1), (2, 3))
        idx = box.element_indices()
        assert box.size == 6 and len(set(idx.tolist())) == 6

    def test_full_coordinate_range_is_whole_field(self, f25):
        box = Box(seeded_basis(f25, 2), (0, 0), (5, 5))
        assert sorted(box.element_indices().tolist()) == list(range(25))

    def test_distinctness_random(self, f31_3, id_basis_31_3):
        rng = rng_for(0, 100)
        for _ in range(20):
            edges = tuple(int(v) for v in rng.integers(1, 32, size=3))
            offsets = tuple(int(v) for v in rng.integers(-60, 60, size=3))
            box = Box(id_basis_31_3, offsets, edges)
            assert len(np.unique(box.element_indices())) == box.size

    def test_lexicographic_order(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (2, 2))
        coords = [c for c, _ in box.elements()]
        assert coords == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_edge_validation(self, f31_2, id_basis_31_2):
        with pytest.raises(BoxError):
            Box(id_basis_31_2, (0, 0), (0, 3))
        with pytest.raises(BoxError):
            Box(id_basis_31_2, (0, 0), (32, 3))


class TestNormalize:
    def test_sorts_edges(self, f31_3, id_basis_31_3):
        box = Box(id_basis_31_3, (1, 2, 3), (5, 2, 4))
        nb = box.normalize()
        assert nb.H == (2, 4, 5) and nb.N == (2, 3, 1)
        assert list(nb.H) == sorted(nb.H)

    def test_preserves_element_set(self, f31_3):
        rng = rng_for(1, 200)
        for trial in range(10):
            basis = sample_basis(cached_field(31, 3, seed=0), rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-30, 30, size=3)),
                      tuple(int(v) for v in rng.integers(1, 10, size=3)))
            same = sorted(box.element_indices().tolist()) == sorted(
                box.normalize().element_indices().tolist()
            )
            assert same


class TestDifferenceBox:
    def test_three_by_three(self, f31_2, id_basis_31_2):
        b0 = difference_box(Box(id_basis_31_2, (5, 9), (1, 1)))
        assert b0.size == 9
        assert b0.ranges() == [range(-1, 2), range(-1, 2)]

    def test_contains_zero_and_differences(self, f31_2):
        basis = seeded_basis(f31_2, 3)
        box = Box(basis, (2, -4), (3, 3))
        b0 = difference_box(box)
        idx0 = set(b0.element_indices().tolist())
        assert 0 in idx0
        for _, x in box.elements():
            for _, y in box.elements():
                assert f31_2.encode(f31_2.sub(x, y)) in idx0

    def test_symmetric(self, f31_2, id_basis_31_2):
        b0 = difference_box(Box(id_basis_31_2, (0, 0), (2, 3)))
        idx0 = set(b0.element_indices().tolist())
        for i in list(idx0):
            assert f31_2.encode(tuple(-x % 31 for x in f31_2.decode(i))) in idx0

    def test_too_wide_rejected(self, f31_2, id_basis_31_2):
        with pytest.raises(BoxError):
            difference_box(Box(id_basis_31_2, (0, 0), (16, 2)))


class TestScaledBox:
    def test_small_delta_keeps_edges(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (3, 3), (10, 12))
        sb = scaled_box(box, 1e-12)
        # ranges approach [0, H_i] in the delta -> 0 limit
        assert all(h <= sh <= h + 1 for h, sh in zip(box.H, sb.H))
        assert all(r.start == 0 for r in sb.ranges())

    def test_p101_arithmetic(self):
        ctx = cached_field(101, 3, seed=0)
        box = Box(BasisMatrix.identity(ctx), (5, 5, 5), (20, 20, 20))
        sb = scaled_box(box, 0.05)
        expected = int(101 ** (-0.1) * 20) + 1
        assert sb.H == (expected,) * 3
        assert all(r.start == 0 for r in sb.ranges())

    def test_size_inequality(self, f31_3, id_basis_31_3):
        rng = rng_for(2, 300)
        p = 31
        for _ in range(100):
            edges = tuple(int(v) for v in rng.integers(1, p + 1, size=3))
            delta = float(rng.uniform(0.01, 0.49))
            box = Box(id_basis_31_3, (0, 0, 0), edges)
            sb = scaled_box(box, delta)
            assert sb.size >= 2 ** (-3) * p ** (-6 * delta) * box.size


class TestOmegaLine:
    def test_formula_hit(self, f31_3, id_basis_31_3):
        assert omega_line_intersection(Box(id_basis_31_3, (-1, -1, 0), (3, 3, 5))) == 5

    def test_formula_miss(self, f31_3, id_basis_31_3):
        assert omega_line_intersection(Box(id_basis_31_3, (1, -1, 0), (3, 3, 5))) == 0

    def test_matches_bruteforce(self, f31_3):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(3, 400)
        for _ in range(25):
            basis = sample_basis(ctx, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-40, 40, size=3)),
                      tuple(int(v) for v in rng.integers(1, 8, size=3)))
            assert omega_line_intersection(box) == omega_line_count_bruteforce(box)

    @pytest.mark.parametrize("N", [(0, -1, 4), (-1, 31, 4), (-32, -1, 0), (31, 62, 0)])
    def test_offset_on_multiple_of_p(self, f31_3, N):
        # a range starting right after a multiple of p holds one only if H_i = p
        basis = seeded_basis(f31_3, 5)
        for H in [(3, 3, 4), (30, 3, 4), (31, 3, 4), (3, 31, 4)]:
            box = Box(basis, N, H)
            assert omega_line_intersection(box) == omega_line_count_bruteforce(box)
            assert degenerate_pair_closed_form(box) == degenerate_pair_set(box)

    def test_wraparound_offsets(self, f31_3, id_basis_31_3):
        # offsets far from 0: the intersection criterion is 0 mod p
        box = Box(id_basis_31_3, (30, -32, 4), (3, 3, 7))
        assert omega_line_intersection(box) == omega_line_count_bruteforce(box) == 7


class TestSubdivision:
    def test_small_box_unchanged(self, f31_2, id_basis_31_2):
        box = Box(id_basis_31_2, (0, 0), (3, 2))
        assert subdivide_box(box) == [box] or [b.H for b in subdivide_box(box)] == [box.H]

    def test_p101_h60_window(self):
        ctx = cached_field(101, 2, seed=0)
        box = Box(BasisMatrix.identity(ctx), (0, 0), (60, 3))
        pieces = subdivide_box(box)
        lo, hi = math.sqrt(101) / 2, math.sqrt(101 / 2)
        for piece in pieces:
            assert piece.H[1] == 3
            assert lo < piece.H[0] < hi

    def test_upper_bound_always(self):
        ctx = cached_field(61, 2, seed=0)
        rng = rng_for(4, 500)
        basis = BasisMatrix.identity(ctx)
        for _ in range(50):
            box = Box(basis, (0, 0), tuple(int(v) for v in rng.integers(1, 62, size=2)))
            for piece in subdivide_box(box):
                assert max(piece.H) < math.sqrt(61 / 2)

    def test_partition_property(self, f31_2):
        ctx = cached_field(31, 2, seed=0)
        rng = rng_for(5, 600)
        for _ in range(100):
            basis = sample_basis(ctx, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-40, 40, size=2)),
                      tuple(int(v) for v in rng.integers(1, 32, size=2)))
            pieces = subdivide_box(box)
            assert sum(piece.size for piece in pieces) == box.size
            merged = np.concatenate([piece.element_indices() for piece in pieces])
            assert sorted(merged.tolist()) == sorted(box.element_indices().tolist())

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
    def test_tiny_primes_partition_below_cap(self, p):
        # each axis splits into the fewest near-equal pieces of at most the cap,
        # ceil(H / cap) of them; at p <= 7 the cap is 1 and every piece is one coordinate
        cap = small_edge_cap(p)
        basis = BasisMatrix.identity(cached_field(p, 2, seed=0))
        edges = range(1, p + 1)
        # every edge pair at the tiny primes; at p = 101 each axis still runs through every H <= p
        pairs = itertools.product(edges, edges) if p <= 13 else zip(edges, reversed(edges))
        for h0, h1 in pairs:
            box = Box(basis, (-2, p - 1), (h1, h0))
            pieces = subdivide_box(box)
            assert all(max(piece.H) <= cap for piece in pieces)
            assert sum(piece.size for piece in pieces) == box.size
            merged = np.concatenate([piece.coords_grid() for piece in pieces])
            assert sorted(map(tuple, merged.tolist())) == sorted(map(tuple, box.coords_grid().tolist()))
            for axis, h in enumerate(box.H):
                splits = {(piece.N[axis], piece.H[axis]) for piece in pieces}
                assert (len(splits) - 1) * cap < h <= len(splits) * cap
                lengths = {length for _, length in splits}
                assert max(lengths) - min(lengths) <= 1


def test_small_edge_cap_matches_float_form_for_odd_primes_to_2_24():
    # h <= small_edge_cap(p) iff h < sqrt(p/2) for integers h >= 1
    limit = 2**24
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve)[1:].tolist()
    assert len(primes) == 1_077_870
    bad = []
    for p in primes:
        cap, root = small_edge_cap(p), math.sqrt(p / 2)
        if not cap < root <= cap + 1:
            bad.append(p)
    assert bad == []


class TestDegeneratePairs:
    def test_zero_in_both_ranges(self, f31_3):
        basis = seeded_basis(cached_field(31, 3, seed=0), 7)
        box = Box(basis, (-1, -2, 0), (3, 4, 6))
        assert degenerate_pair_set(box) == {(0, 0)}
        assert degenerate_pair_closed_form(box) == {(0, 0)}

    def test_zero_missing(self, f31_3):
        basis = seeded_basis(cached_field(31, 3, seed=0), 7)
        box = Box(basis, (1, -2, 0), (3, 4, 6))
        assert degenerate_pair_set(box) == set()
        assert degenerate_pair_closed_form(box) == set()

    def test_scan_matches_closed_form(self):
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(6, 700)
        for _ in range(40):
            basis = sample_basis(ctx, rng)
            box = Box(basis, tuple(int(v) for v in rng.integers(-40, 40, size=3)),
                      tuple(int(v) for v in rng.integers(1, 12, size=3)))
            assert degenerate_pair_set(box) == degenerate_pair_closed_form(box)

    def test_needs_three_dimensions(self, f31_2, id_basis_31_2):
        with pytest.raises(BoxError):
            degenerate_pair_set(Box(id_basis_31_2, (0, 0), (2, 2)))


class TestOffsetsModP:
    """Offsets are arbitrary integers: every index, sum and pair set equals
    that of the box at the residues N_i mod p, apart from the shift of the
    true coordinates, however far the offsets lie outside int64."""

    @staticmethod
    def _check_against_residue_box(box):
        ctx = box.ctx
        shift = [nn - nn % ctx.p for nn in box.N]
        res = Box(box.basis, tuple(nn % ctx.p for nn in box.N), box.H)
        assert np.array_equal(box.element_indices(), res.element_indices())
        assert box.element_indices().dtype == np.int64
        chi = Character(ctx, 7)
        assert box_char_sum(chi, box) == box_char_sum(chi, res)
        (outer, walk), (outer_res, walk_res) = tall_walk(box), tall_walk(res)
        assert np.array_equal(walk, walk_res)
        assert (outer - np.array(shift[:-1], dtype=object)).tolist() == outer_res.tolist()
        assert tall_box_identity(box) and tall_box_identity(res)
        if ctx.n == 3:
            pairs = degenerate_pair_set(box)
            assert pairs == {(x + shift[0], y + shift[1]) for x, y in degenerate_pair_set(res)}
            assert pairs == degenerate_pair_closed_form(box)
            return pairs

    @pytest.mark.parametrize("big", [2**63 - 2, 2**63 - 1, 2**63, -(2**63), -(2**63) - 5, 10**30, -(10**30)])
    def test_far_offsets_match_the_residue_box(self, f31_3, big):
        basis = seeded_basis(f31_3, 3)
        # residues 29 and 28: both outer ranges hold a multiple of p, so the pair set is not empty
        N = tuple(b - b % 31 + r for b, r in zip((big, -big, big + 5), (29, 28, 3)))
        pairs = self._check_against_residue_box(Box(basis, N, (3, 4, 5)))
        assert pairs == {(N[0] + 2, N[1] + 3)}
        self._check_against_residue_box(Box(basis, (big, big - 1, -big), (2, 6, 9)))

    def test_int64_edge_offset_n2(self, f31_2):
        # the first offset of 9223372036854775806:3,0:3 once wrapped in the grid's int64 sum
        box = Box(seeded_basis(f31_2, 1), (2**63 - 2, 0), (3, 3))
        self._check_against_residue_box(box)
        assert box.coords_grid()[:, 0].tolist() == [2**63 - 1] * 3 + [2**63] * 3 + [2**63 + 1] * 3

    @settings(max_examples=30, deadline=None)
    @given(axis=st.integers(0, 2), seed=st.integers(0, 10**6),
           offsets=st.tuples(*[st.one_of(st.integers(-100, 100), st.integers(-(10**20), 10**20))] * 3))
    def test_full_edge_h_equals_p(self, axis, seed, offsets):
        # H_i = p covers every residue on axis i once: the box stays a set of
        # distinct elements and every route agrees with the residue box
        ctx = cached_field(31, 3, seed=0)
        rng = rng_for(seed, 8)
        H = [int(v) for v in rng.integers(1, 5, size=3)]
        H[axis] = ctx.p
        box = Box(sample_basis(ctx, rng), offsets, tuple(H))
        assert len(np.unique(box.element_indices())) == box.size
        self._check_against_residue_box(box)
        assert omega_line_intersection(box) == omega_line_count_bruteforce(box)
        check_tall_split(Character(ctx, 5), box)


class TestBoxLiteral:
    def test_roundtrip(self, f31_3, id_basis_31_3):
        box = parse_box_spec(id_basis_31_3, "-2:5,0:3,11:1")
        assert box.N == (-2, 0, 11) and box.H == (5, 3, 1)
        assert format_box_spec(box) == "-2:5,0:3,11:1"

    def test_bad_literals(self, f31_2, id_basis_31_2):
        for bad in ("1:2,3", "a:b,c:d", "1:2:3,4:5"):
            with pytest.raises(BoxError):
                parse_box_spec(id_basis_31_2, bad)


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    edges=st.tuples(st.integers(1, 31), st.integers(1, 31)),
)
def test_enumeration_distinct_and_normalize_invariant(offsets, edges):
    ctx = cached_field(31, 2, seed=0)
    box = Box(BasisMatrix.identity(ctx), offsets, edges)
    idx = box.element_indices()
    assert len(np.unique(idx)) == box.size
    assert sorted(idx.tolist()) == sorted(box.normalize().element_indices().tolist())


@settings(max_examples=100, deadline=None)
@given(values=st.one_of(
    st.lists(st.integers(0, 2**24), max_size=300),
    st.builds(lambda v, k: [v] * k, st.integers(0, 2**24), st.integers(1, 50)),
))
@example(values=[])
@example(values=[2**24])
@example(values=[7] * 9)
def test_sorted_distinct_matches_unique(values):
    x = np.array(values, dtype=np.int64)
    got, want = _sorted_distinct(x), np.unique(x)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
