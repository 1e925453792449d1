"""The integer lattice kernels against the rational reference algorithms.

The references below are the exact-Fraction LLL, the recursive shell
enumeration and the Fraction-inverse polar lattice that `charbox.lattice`
used before its integer-only core. The kernels must reproduce them exactly:
the same reduced basis, the same shell vectors and node counts, the same
budget errors and the same polar lattice.
"""

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from charbox import (
    EnumerationBudgetError,
    GaugeBody,
    IntLattice,
    cached_field,
    first_minimum,
    gamma_z,
    polar_body,
    polar_of,
    successive_minima,
    sup_box_body,
)
from charbox import intlinalg, lattice
from charbox.sampling import rng_for, sample_basis, sample_z, small_edge_cap
from oracles import greedy_minima_scan, integer_rank, successive_minima_doubling

# ---------------------------------------------------------------------------
# reference algorithms (rational arithmetic)


def ref_lll_rows(rows, scale):
    """LLL-reduce integer rows under the rescaled l2 metric; exact arithmetic."""
    basis = [[Fraction(v) * s for v, s in zip(r, scale)] for r in rows]
    ints = [list(map(int, r)) for r in rows]
    m = len(basis)

    def gram_schmidt():
        ortho = []
        for vec in basis:
            w = list(vec)
            for u in ortho:
                uu = sum(x * x for x in u)
                if uu:
                    f = sum(x * y for x, y in zip(w, u)) / uu
                    w = [x - f * y for x, y in zip(w, u)]
            ortho.append(w)
        return ortho

    ortho = gram_schmidt()
    delta = Fraction(3, 4)
    k = 1
    guard = 0
    while k < m and guard < 10_000:
        guard += 1
        for j in range(k - 1, -1, -1):
            uu = sum(x * x for x in ortho[j])
            if not uu:
                continue
            mu = sum(x * y for x, y in zip(basis[k], ortho[j])) / uu
            if abs(mu) > Fraction(1, 2):
                r = round(mu)
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                ints[k] = [x - r * y for x, y in zip(ints[k], ints[j])]
        uu_prev = sum(x * x for x in ortho[k - 1])
        mu_k = sum(x * y for x, y in zip(basis[k], ortho[k - 1])) / uu_prev if uu_prev else Fraction(0)
        if sum(x * x for x in ortho[k]) >= (delta - mu_k * mu_k) * uu_prev:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            ints[k], ints[k - 1] = ints[k - 1], ints[k]
            ortho = gram_schmidt()
            k = max(k - 1, 1)
    return ints


def ref_enumerate_shell(hnf, bounds, l1_weights, l1_cap, counter):
    """Recursive depth-first enumeration, one Python call per tree node."""
    m = len(hnf)
    out = []
    acc = [0] * m

    def descend(level, running):
        if level == m:
            if any(acc):
                out.append(tuple(acc))
            return
        hrow = hnf[level]
        piv = hrow[level]
        cb = bounds[level]
        if l1_cap is not None:
            rem = (l1_cap - running) // l1_weights[level]
            if rem < cb:
                cb = rem
        if cb < 0:
            return
        base = acc[level]
        c_lo = -((cb + base) // piv)
        c_hi = (cb - base) // piv
        if c_lo > c_hi:
            return
        counter.spend(c_hi - c_lo + 1)
        saved = acc[level:]
        for j in range(level, m):
            acc[j] += c_lo * hrow[j]
        for _ in range(c_lo, c_hi + 1):
            if l1_cap is not None:
                descend(level + 1, running + l1_weights[level] * abs(acc[level]))
            else:
                descend(level + 1, running)
            for j in range(level, m):
                acc[j] += hrow[j]
        acc[level:] = saved

    descend(0, 0)
    if not out:
        return np.empty((0, m), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def ref_frac_inv(rows):
    m = len(rows)
    a = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(m)] for i, r in enumerate(rows)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        s = a[col][col]
        a[col] = [v / s for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[m:] for row in a]


def ref_det(rows):
    a = [[Fraction(v) for v in r] for r in rows]
    m = len(a)
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return int(det)


def ref_polar_of(lat):
    det = ref_det(lat.rows)
    inv = ref_frac_inv(lat.rows)
    m = lat.dim
    rows = [[Fraction(lat.denom) * inv[j][i] * det for j in range(m)] for i in range(m)]
    sign = 1 if det > 0 else -1
    int_rows = []
    for r in rows:
        assert all((v * sign).denominator == 1 for v in r)
        int_rows.append([int(v * sign) for v in r])
    g = abs(det)
    for r in int_rows:
        for v in r:
            g = math.gcd(g, abs(v))
    return IntLattice(tuple(tuple(v // g for v in r) for r in int_rows), abs(det) // g)


def ref_scale(lat, body):
    """The rational per-coordinate stretch of the gauge metric."""
    w = body.coord_weights()
    if body.kind == "box":
        return [Fraction(1, lat.denom * wi) for wi in w]
    return [Fraction(wi, lat.denom) for wi in w]


def kernel_scale(body):
    w = body.coord_weights()
    return [math.lcm(*w) // wi for wi in w] if body.kind == "box" else list(w)


@contextlib.contextmanager
def reference_pipeline():
    """Route charbox.lattice through the reference LLL and enumeration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_lll_rows", lambda rows, scale: ref_lll_rows(rows, [Fraction(s) for s in scale]))
        mp.setattr(lattice, "_enumerate_shell", ref_enumerate_shell)
        yield


# ---------------------------------------------------------------------------
# sampled lattices: Gamma_z and its polar for random boxes


def gamma_case(p, n, seed, H):
    ctx = cached_field(p, n, seed=0)
    rng = rng_for(seed, 77, p, n)
    return gamma_z(ctx, sample_basis(ctx, rng), sample_z(ctx, rng)), H


@st.composite
def gamma_cases(draw):
    p = draw(st.sampled_from((31, 101, 211)))
    n = draw(st.sampled_from((2, 3)))
    seed = draw(st.integers(0, 2**20))
    cap = small_edge_cap(p) + 2
    return gamma_case(p, n, seed, tuple(sorted(draw(st.lists(st.integers(1, cap), min_size=n, max_size=n)))))


def bodies(lat, H):
    yield lat, sup_box_body(H)
    yield polar_of(lat), polar_body(H)


@st.composite
def integer_bases(draw):
    m = draw(st.integers(1, 6))
    rows = draw(
        st.lists(st.lists(st.integers(-60, 60), min_size=m, max_size=m), min_size=m, max_size=m)
        .filter(lambda r: ref_det(r) != 0)
    )
    return rows


KERNEL_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)


class TestIntegralLLL:
    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_reduced_rows_equal_reference(self, case):
        for lat, body in bodies(*case):
            got = lattice._lll_rows(lat.rows, kernel_scale(body))
            assert got == ref_lll_rows(lat.rows, ref_scale(lat, body))

    @KERNEL_SETTINGS
    @given(integer_bases(), st.data())
    def test_random_integer_bases(self, rows, data):
        m = len(rows)
        scale = data.draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
        assert lattice._lll_rows(rows, scale) == ref_lll_rows(rows, [Fraction(s) for s in scale])

    @pytest.mark.parametrize(
        "rows, scale",
        [
            # mu_10 = 5/2 and 3/2: round half to even
            ([[2, 0], [5, 1]], [1, 1]),
            ([[2, 0], [3, 7]], [1, 1]),
            # the Lovasz test meets equality, which keeps the order
            ([[3, 4, 3], [0, -2, 2], [1, 1, 2]], [2, 2, 2]),
            ([[-1, 3, -3], [0, 2, -1], [4, 1, -3]], [1, 1, 2]),
            ([[3, 3, -2, -2], [-4, 1, 2, 4], [1, 4, 3, 1], [-3, 0, 4, 0]], [2, 1, 2, 1]),
        ],
    )
    def test_tie_cases(self, rows, scale):
        assert lattice._lll_rows(rows, scale) == ref_lll_rows(rows, [Fraction(s) for s in scale])


class TestIntegerAdjugate:
    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_polar_equals_reference(self, case):
        lat, _ = case
        got, ref = polar_of(lat), ref_polar_of(lat)
        assert got.rows == ref.rows and got.denom == ref.denom
        twice, ref_twice = polar_of(got), ref_polar_of(ref)
        assert twice.rows == ref_twice.rows and twice.denom == ref_twice.denom

    @KERNEL_SETTINGS
    @given(integer_bases(), st.integers(1, 9), st.data())
    def test_random_bases(self, rows, denom, data):
        lat = IntLattice(tuple(map(tuple, rows)), denom)
        assert lat.det == ref_det(rows)
        det, adj = intlinalg._int_adjugate(rows)
        m = len(rows)
        for i in range(m):
            row = [sum(adj[i][k] * rows[k][j] for k in range(m)) for j in range(m)]
            assert row == [det * (i == j) for j in range(m)]
        got, ref = polar_of(lat), ref_polar_of(lat)
        assert got.rows == ref.rows and got.denom == ref.denom
        vec = data.draw(st.lists(st.integers(-50, 50), min_size=m, max_size=m))
        inv = ref_frac_inv(rows)
        want = [sum(Fraction(v * denom) * inv[k][i] for k, v in enumerate(vec)) for i in range(m)]
        assert lat.coefficients_of(vec) == want

    def test_singular_rows(self):
        assert intlinalg._int_adjugate([[1, 2], [2, 4]]) == (0, None)
        with pytest.raises(ValueError, match="singular"):
            IntLattice(((1, 2), (2, 4)))


class TestHermiteForm:
    @KERNEL_SETTINGS
    @given(integer_bases())
    def test_reduced_triangular_basis_of_the_same_lattice(self, rows):
        h = intlinalg._hnf_upper(rows)
        m = len(rows)
        assert all(h[i][j] == 0 for i in range(m) for j in range(i))
        for j in range(m):
            assert h[j][j] > 0
            assert all(0 <= h[i][j] < h[j][j] for i in range(j))
        assert math.prod(h[i][i] for i in range(m)) == abs(ref_det(rows))
        given_lat, form_lat = IntLattice(tuple(map(tuple, rows))), IntLattice(tuple(map(tuple, h)))
        assert all(form_lat.contains(r) for r in rows)
        assert all(given_lat.contains(r) for r in h)


# ---------------------------------------------------------------------------
# shell enumeration


def shell_inputs(lat, body, lam):
    """(hnf, bounds, l1 weights, l1 cap) of the gauge-lam shell: cap = floor(lam L),
    |v_j| <= cap // s_j, and for the polar the l1 pair (s, cap)."""
    stretch = kernel_scale(body)
    cap = math.floor(lam * body.gauge_scale(lat.denom))
    l1 = (tuple(stretch), cap) if body.kind == "polar" else (None, None)
    return (lat._hermite_form, [cap // s for s in stretch], *l1)


def run_shell(kernel, args, budget):
    counter = lattice._NodeCounter(budget)
    try:
        vecs = kernel(*args, counter)
    except EnumerationBudgetError:
        return None, counter
    return vecs, counter


def assert_same_shell(args, budget=400_000):
    ref, ref_counter = run_shell(ref_enumerate_shell, args, budget)
    got, counter = run_shell(lattice._enumerate_shell, args, budget)
    if ref is None:
        assert got is None  # both over budget
        return
    assert got is not None and got.dtype == np.int64 and got.shape == ref.shape
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, ref.tolist()))
    assert counter.nodes == ref_counter.nodes


def lll_gauges(lat, body):
    return [body.gauge(r, lat.denom) for r in lattice._lll_rows(lat.rows, body._stretch())]


def ref_gauges(lat, body):
    reduced = ref_lll_rows(lat.rows, ref_scale(lat, body))
    gauges = [body.gauge(r, lat.denom) for r in reduced]
    return min(gauges), max(gauges)


class TestBlockedEnumeration:
    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_shells_equal_reference(self, case):
        for lat, body in bodies(*case):
            lam_min, lam_max = ref_gauges(lat, body)
            for lam in (lam_min, 2 * lam_min, lam_max):
                assert_same_shell(shell_inputs(lat, body, lam))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gamma_cases())
    def test_shell_vectors_is_the_gauge_ball(self, case):
        # the gauge level becomes shell limits in _shell_vectors alone: its
        # shell is the reference shell of shell_inputs, all of gauge <= lam
        for lat, body in bodies(*case):
            lam = 2 * ref_gauges(lat, body)[0]
            ref, _ = run_shell(ref_enumerate_shell, shell_inputs(lat, body, lam), 400_000)
            if ref is None:
                continue
            got = lattice._shell_vectors(lat, body, lam, lattice._NodeCounter(400_000)).tolist()
            assert sorted(map(tuple, got)) == sorted(map(tuple, ref.tolist()))
            assert max(body.gauge(v, lat.denom) for v in got) <= lam

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gamma_cases())
    def test_tiny_block_gives_same_shells(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_BLOCK", 8)
            for lat, body in bodies(*case):
                lam_min, lam_max = ref_gauges(lat, body)
                assert_same_shell(shell_inputs(lat, body, lam_min), budget=20_000)
                assert_same_shell(shell_inputs(lat, body, lam_max), budget=20_000)

    def test_int64_guard_raises_before_allocating(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used before the range check")

        monkeypatch.setattr(lattice, "np", NoNumpy())
        counter = lattice._NodeCounter(10**6)
        hnf = [[1, 2**40], [0, 2**41]]  # fits int64; c_0 * hnf[0][1] does not
        with pytest.raises(OverflowError, match="int64"):
            lattice._enumerate_shell(hnf, [2**40, 2**40], None, None, counter)
        with pytest.raises(OverflowError, match="int64"):
            lattice._enumerate_shell([[1, 0], [0, 1]], [2**30, 2**30], (2**20, 1), 2**45, counter)
        assert counter.nodes == 0

    def test_range_check_passes_shells_beyond_any_node_budget(self):
        # p = 4093 entries, 10^7 coefficients per level: far more nodes than
        # DEFAULT_NODE_BUDGET, still well inside int64
        hnf = [[1, 0, 0, 4092], [0, 1, 0, 4000], [0, 0, 4093, 0], [0, 0, 0, 4093]]
        lattice._check_int64_range(hnf, [10**7] * 4, (1, 1, 4093, 4093), 10**7)


# ---------------------------------------------------------------------------
# greedy witnesses: batched rank tests against the per-candidate scan


def assert_same_picks(lat, body, vecs):
    """Full greedy and its limit-1 path equal the scan oracle, and both sign-
    normalize the shell the same way."""
    ref_vecs = vecs.copy()
    ref = greedy_minima_scan(lat, body, ref_vecs)
    got_vecs = vecs.copy()
    assert lattice._greedy_minima(lat, body, got_vecs, lat.dim) == ref
    assert np.array_equal(got_vecs, ref_vecs)
    first = lattice._greedy_minima(lat, body, vecs.copy(), 1)
    assert first == (ref[0][:1], ref[1][:1])


@st.composite
def deficient_shells(draw, top=3):
    """Many vectors in a random rank-k sublattice (k < m), a few outside it,
    v next to -v and small weights, so gauge keys tie often. Entries of the
    outside vectors reach `top`."""
    n = draw(st.integers(1, 3))
    m = 2 * n
    k = draw(st.integers(1, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    span = rng.integers(-3, 4, size=(k, m)) * rng.integers(1, max(2, top // 2**12), size=(k, 1))
    inside = rng.integers(-2, 3, size=(draw(st.integers(20, 400)), k)) @ span
    outside = rng.integers(-top, top + 1, size=(draw(st.integers(0, 4)), m))
    vecs = np.concatenate([inside, -inside[:20], outside])
    vecs = vecs[vecs.any(axis=1)]  # shells hold nonzero vectors only
    assume(len(vecs))  # and are never empty: each holds an LLL row or a {-1, 0, 1} combination
    rng.shuffle(vecs)
    body = GaugeBody(draw(st.sampled_from(("box", "polar"))), tuple(draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n))))
    lat = IntLattice(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)), draw(st.integers(1, 3)))
    return lat, body, vecs


class TestGreedyMinima:
    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_gamma_shells_equal_scan(self, case):
        for lat, body in bodies(*case):
            bound = lattice._combination_bound(lat, body, lat.dim)
            for lam in (min(lll_gauges(lat, body)), bound, bound + Fraction(1, body.gauge_scale(lat.denom))):
                try:
                    vecs = lattice._shell_vectors(lat, body, lam, lattice._NodeCounter(400_000))
                except EnumerationBudgetError:
                    continue
                assert_same_picks(lat, body, vecs)

    @KERNEL_SETTINGS
    @given(deficient_shells())
    def test_rank_deficient_shells_equal_scan(self, case):
        assert_same_picks(*case)

    @KERNEL_SETTINGS
    @given(deficient_shells(top=2**40))
    def test_oversized_entries_equal_scan(self, case):
        assert_same_picks(*case)

    def test_span_test_leaves_int64_when_products_could_wrap(self):
        vecs = np.array([[2**32, 2**32]], dtype=np.int64)
        null = [[2**31, 2**31]]  # null . v = 2^64, which is 0 in int64
        assert not (vecs @ np.array(null, dtype=np.int64).T).any()
        assert lattice._outside_span(vecs, np.arange(1), null, 2**32).tolist() == [True]


# ---------------------------------------------------------------------------
# successive minima through both pipelines


def minima_outcome(lat, body, budget):
    try:
        res = successive_minima(lat, body, budget)
    except EnumerationBudgetError as exc:
        return "raised", str(exc)
    return "ok", (res.lambdas, res.witnesses, res.nodes)


class TestMinimaAgainstReference:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gamma_cases())
    def test_minima_nodes_and_budget_edges(self, case):
        for lat, body in bodies(*case):
            got = minima_outcome(lat, body, 400_000)
            with reference_pipeline():
                assert got == minima_outcome(lat, body, 400_000)
            if got[0] == "raised":
                continue
            total = got[1][2]
            assert minima_outcome(lat, body, total) == got
            over = minima_outcome(lat, body, total - 1)
            with reference_pipeline():
                assert over == minima_outcome(lat, body, total - 1)
            assert over[0] == "raised"


# ---------------------------------------------------------------------------
# one shell at the combination bound against the doubling schedule


def assert_least_rank_gauge(lat, body, rank):
    """U is the least t at which the nonzero {-1, 0, 1} combinations of the
    LLL rows of gauge <= t reach the given rank, and at most the rank-th least
    LLL gauge."""
    reduced = lattice._lll_rows(lat.rows, body._stretch())
    combos = [[sum(c * r[j] for c, r in zip(coeffs, reduced)) for j in range(lat.dim)]
              for coeffs in itertools.product((-1, 0, 1), repeat=lat.dim) if any(coeffs)]
    gauges = [body.gauge(v, lat.denom) for v in combos]
    bound = lattice._combination_bound(lat, body, rank)
    assert bound in gauges and bound <= sorted(lll_gauges(lat, body))[rank - 1]
    assert integer_rank(v for v, g in zip(combos, gauges) if g < bound) < rank
    assert integer_rank(v for v, g in zip(combos, gauges) if g <= bound) >= rank


class TestCombinationBound:
    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_minima_equal_doubling_schedule(self, case):
        for lat, body in bodies(*case):
            lams, wits, _ = successive_minima_doubling(lat, body)
            res = successive_minima(lat, body)
            assert res.lambdas == tuple(lams) and res.witnesses == tuple(wits)
            assert lams[-1] <= lattice._combination_bound(lat, body, lat.dim) <= max(lll_gauges(lat, body))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gamma_cases())
    def test_bound_is_least_full_rank_gauge(self, case):
        for lat, body in bodies(*case):
            assert_least_rank_gauge(lat, body, lat.dim)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gamma_cases())
    def test_rank_1_bound_is_least_combination_gauge(self, case):
        for lat, body in bodies(*case):
            assert_least_rank_gauge(lat, body, 1)
            # the lambda_1 shell is never larger than one at the least LLL-row gauge
            assert lattice._combination_bound(lat, body, 1) <= min(lll_gauges(lat, body))

    @KERNEL_SETTINGS
    @given(gamma_cases())
    def test_first_minimum_is_the_first_greedy_pick(self, case):
        for lat, body in bodies(*case):
            res = successive_minima(lat, body)
            assert first_minimum(lat, body) == (res.lambdas[0], res.witnesses[0])

    @KERNEL_SETTINGS
    @given(gamma_cases())
    @example(gamma_case(31, 3, 8, (1, 1, 1)))  # both bodies: a combination beats the least LLL row
    def test_first_minimum_shell_is_the_rank_1_bound(self, case):
        # first_minimum enumerates one shell, at the combination bound of rank 1
        levels = []
        shell_vectors = lattice._shell_vectors

        def recording(lat, body, lam, counter):
            levels.append(lam)
            return shell_vectors(lat, body, lam, counter)

        for lat, body in bodies(*case):
            levels.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "_shell_vectors", recording)
                first_minimum(lat, body)
            assert levels == [lattice._combination_bound(lat, body, 1)]

    def test_python_int_combinations_past_int64(self):
        # rows near 2^40, stretch 2^22 on coordinates 0 and 2, and the LLL-
        # reduced b0 = (X, 0, e, 0), b1 = (X/2 - d, 0, -Z, 0): the key of
        # b0 + b1 passes 2^63. In int64 its coordinate-0 term would wrap
        # negative and leave it the key Z - e, so the greedy would end at Z
        # instead of at lambda_4 = Z + e, the key of b0 - b1.
        x, z, e, d = 3 * 2**39, 9 * 2**37, 1000, 10**6
        reduced = [[0, 5, 0, 0], [0, 0, 0, 7], [x, 0, e, 0], [x // 2 - d, 0, -z, 0]]
        mix = [[1, 0, 0, 0], [2, 1, 0, 0], [3, -1, 1, 0], [1, 4, 2, 1]]
        rows = np.array(mix, dtype=object) @ np.array(reduced, dtype=object)
        lat = IntLattice(tuple(map(tuple, rows.tolist())))
        body = sup_box_body((1, 2**22))
        assert sorted(lattice._lll_rows(lat.rows, body._stretch())) == sorted(reduced)
        assert (x + x // 2 - d) * 2**22 >= 2**63
        assert lattice._combination_bound(lat, body, lat.dim) == z + e
        assert_least_rank_gauge(lat, body, lat.dim)
        with pytest.raises(OverflowError, match="int64"):  # the shell at U does not fit either
            successive_minima(lat, body)
