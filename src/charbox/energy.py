"""Multiplicative energy, solution counts and ratio statistics of boxes.

Counts are exact integers throughout. Kernels run on dlog arrays: products
become dlog sums and ratios become dlog differences. Pair histograms are
sorted keys with counts (`_pair_counts`), so their memory follows the pairs,
not q: about 9 B per pair plus 24 B per distinct key, plus one chunk. Every
pair sweep obeys one budget (`_check_pairs`), checked before it allocates
and, for a Box, before it is enumerated. The one modulus-sized array is the
ratio histogram of a difference box (`_self_ratio_bincount`), whose pairs
approach q; it and its key buffer are kept per thread between calls.
Inequality checks compare integers (squared where a bound has a square
root), and the H_i < sqrt(p/2) hypothesis flag is the integer test
H_i <= small_edge_cap(p).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .boxes import Box, _sorted_distinct, difference_box, small_edge_cap
from .field import FieldCtx, FqElem

PAIR_BUDGET = 2**28
_CHUNK = 1 << 16  # pairs per chunk of a pairwise kernel: 512 KiB of int64 keys, which stay in cache


class EnergyBudgetError(RuntimeError):
    pass


def _as_indices(ctx: FieldCtx, elements: Iterable[FqElem] | Box | np.ndarray,
                swept: bool = False) -> np.ndarray:
    """Sorted distinct encoded elements; a Box to be swept is checked by its size first."""
    if isinstance(elements, Box):
        if swept:
            _check_pairs(elements.size**2)
        idx = elements.element_indices()
    elif isinstance(elements, np.ndarray):
        idx = elements.astype(np.int64)
    else:
        idx = np.array([ctx.encode(e) for e in elements], dtype=np.int64)
    return _sorted_distinct(idx)


def _pair_chunks(left_dlogs: np.ndarray, right_dlogs: np.ndarray, sign: int, modulus: int):
    """Yield (rows, keys) with keys[i, j] = left_dlogs[rows][i] + sign *
    right_dlogs[j] mod modulus, over row slices of about _CHUNK pairs each."""
    signed = sign * right_dlogs
    step = max(1, _CHUNK // max(1, len(right_dlogs)))
    for start in range(0, len(left_dlogs), step):
        rows = slice(start, start + step)
        keys = left_dlogs[rows, None] + signed[None, :]
        keys -= modulus * (keys // modulus)  # keys mod modulus; floor division by a scalar is the faster kernel
        yield rows, keys


_SCRATCH = threading.local()


def _scratch(name: str, size: int) -> np.ndarray:
    """The first `size` entries of this thread's int64 buffer `name`, kept
    between calls and grown when too short. Whether a fresh buffer this
    large gets fresh pages from the OS depends on the allocator's history
    (glibc's mmap threshold follows the largest block freed so far); when it
    does, each 4 KiB costs a page fault, about as much as binning into it."""
    buf = getattr(_SCRATCH, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size, dtype=np.int64)
        setattr(_SCRATCH, name, buf)
    return buf[:size]


def _self_ratio_bincount(dlogs: np.ndarray, modulus: int) -> np.ndarray:
    """The dense histogram of dlogs[i] - dlogs[j] mod modulus over all pairs
    (i, j) of dlogs in [0, modulus), from the pairs i < j of the sorted
    dlogs s only: s[j] - s[i] already lies in [0, modulus) and ascends along
    row i. The swap (j, i) of a pair has the key -k of (i, j), and the n
    pairs (i, i) have key 0. Rows fill one key buffer that is binned
    whenever it holds _CHUNK keys or more. Keys and histogram live in this
    thread's `_scratch`: the result is overwritten by the thread's next call."""
    s = np.sort(dlogs)
    n = len(s)
    buf = _scratch("keys", min(_CHUNK + n, n * (n - 1) // 2))
    counts = _scratch("counts", modulus)
    counts[:] = 0
    fill = 0
    for i in range(n - 1):
        end = fill + n - 1 - i
        np.subtract(s[i + 1 :], s[i], out=buf[fill:end])
        fill = end
        if fill >= _CHUNK or i == n - 2:
            np.add.at(counts, buf[:fill], 1)
            fill = 0
    counts[1:] += counts[:0:-1]  # k -> -k; numpy buffers the overlapping operand
    counts[0] = 2 * counts[0] + n
    return counts


def _check_pairs(pairs: int) -> None:
    if pairs > PAIR_BUDGET:  # the one pair budget, checked before a sweep allocates
        raise EnergyBudgetError(f"{pairs} pairs exceed the pair budget of {PAIR_BUDGET}")


def _pair_counts(left_dlogs: np.ndarray, right_dlogs: np.ndarray, sign: int, modulus: int):
    """(keys, counts): the histogram of left_dlogs[i] + sign * right_dlogs[j]
    mod modulus over all pairs (i, j), as its nonzero bins in key order. The
    chunks fill one int64 buffer, sorted in place and counted by runs: a peak
    of about 9 B per pair (buffer, run mask) plus 24 B per distinct key."""
    _check_pairs(len(left_dlogs) * len(right_dlogs))
    buf = np.empty(len(left_dlogs) * len(right_dlogs), dtype=np.int64)
    for rows, keys in _pair_chunks(left_dlogs, right_dlogs, sign, modulus):
        buf[rows.start * len(right_dlogs) : rows.stop * len(right_dlogs)] = keys.ravel()
    buf.sort()
    edge = np.ones(len(buf) + 1, dtype=bool)  # edge[i]: a run of equal keys starts (or ends) at i
    np.not_equal(buf[1:], buf[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return buf[bounds[:-1]], np.diff(bounds)


def _pair_energy(ctx: FieldCtx, idx: np.ndarray, sign: int):
    """(keys, counts, r_zero, E) for sorted distinct encoded elements idx:
    the nonzero bins of the product (sign +1) or ratio (sign -1) histogram
    over idx minus 0, the number r_zero of pairs (x, y) in idx^2 with xy = 0,
    and E = counts.counts + r_zero^2. Both signs give E(idx): xy = wt with
    all four nonzero iff x/w = t/y."""
    m = len(idx)
    zeros = int(m > 0 and idx[0] == 0)
    dlogs = ctx.dlog_at(idx[zeros:])
    keys, counts = _pair_counts(dlogs, dlogs, sign, ctx.q1)
    r_zero = 2 * zeros * m - zeros
    return keys, counts, r_zero, int(counts @ counts) + r_zero * r_zero  # exact: E <= m^3 < 2^63


_BOX_RATIOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _box_ratio_energy(box: Box):
    """`_pair_energy` of the box's elements with sign -1, swept once per Box
    object and kept while the box lives: a Box is immutable and hashes by
    identity, so `s_decomposition` and `tau_profile` on one box share B's
    ratio histogram. The kept arrays are read-only."""
    found = _BOX_RATIOS.get(box)
    if found is None:
        found = _pair_energy(box.ctx, _sorted_distinct(box.element_indices()), -1)
        for arr in found[:2]:
            arr.setflags(write=False)
        _BOX_RATIOS[box] = found
    return found


def _count_at(keys: np.ndarray, counts: np.ndarray, key: int) -> int:
    """The count of key in sorted (keys, counts), 0 where key is absent."""
    i = int(np.searchsorted(keys, key))
    return int(counts[i]) if i < len(keys) and keys[i] == key else 0


@dataclass(frozen=True, eq=False)
class EnergyProfile:
    """E(B) with the product histogram r(m) = #{(x, y) in B^2 : xy = m}."""

    ctx: FieldCtx
    E: int
    size: int
    r_zero: int
    _keys: np.ndarray = field(repr=False)  # sorted dlogs of the nonzero products
    _counts: np.ndarray = field(repr=False)  # r at each key

    def r(self, m: FqElem) -> int:
        if not any(m):
            return self.r_zero
        return _count_at(self._keys, self._counts, self.ctx.dlog_of(m))

    @property
    def product_histogram(self) -> dict[FqElem, int]:
        out: dict[FqElem, int] = {}
        if self.r_zero:
            out[self.ctx.zero()] = self.r_zero
        for e, c in zip(self.ctx.exp_at(self._keys).tolist(), self._counts.tolist()):
            out[self.ctx.decode(e)] = c
        return out

    @property
    def total_pairs(self) -> int:
        return self.r_zero + int(self._counts.sum())


def energy(ctx: FieldCtx, elements: Iterable[FqElem] | Box | np.ndarray) -> EnergyProfile:
    """E(B) = #{(x, y, w, t) in B^4 : xy = wt} via the product histogram."""
    idx = _as_indices(ctx, elements, swept=True)
    keys, counts, r_zero, e = _pair_energy(ctx, idx, +1)
    return EnergyProfile(ctx, e, len(idx), r_zero, keys, counts)


def f_count(ctx: FieldCtx, elements: Iterable[FqElem] | Box | np.ndarray, z: FqElem) -> int:
    """#{(x, y) in S^2 : xz = y}, exact.

    Counted in dlog space: for x, y != 0, xz = y iff dlog x + dlog z =
    dlog y mod q - 1, so the nonzero pairs are the dlogs of S that land on
    dlogs of S when shifted by dlog z; no element is decoded. x = 0 pairs
    only with y = 0, one more pair when 0 is in S.
    """
    idx = _as_indices(ctx, elements)
    zeros = int(len(idx) > 0 and idx[0] == 0)
    if not any(z):
        return zeros * len(idx)  # x*0 = y forces y = 0
    dlogs = ctx.dlog_at(idx[zeros:])
    return int(np.isin((dlogs + ctx.dlog_of(z)) % ctx.q1, dlogs, assume_unique=True).sum()) + zeros


def ratio_set(ctx: FieldCtx, elements: Iterable[FqElem] | Box | np.ndarray) -> set[FqElem]:
    """Z' = {y x^{-1} : x, y in S minus 0}."""
    idx = _as_indices(ctx, elements, swept=True)
    dlogs = ctx.dlog_at(idx[idx != 0])
    keys, _ = _pair_counts(dlogs, dlogs, -1, ctx.q1)
    return {ctx.decode(int(e)) for e in ctx.exp_at(keys)}


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RatioProfile:
    """The S = S1 + S2 decomposition data for a box and its difference box.

    f0 values are 1 + (ratio histogram of B0) on F_q^*; f values likewise
    from the box itself. All sums and inequality checks are exact integers.
    f_table keeps f_0 on F_p^*; Z and f_0 at any z are `ratio_set(ctx, B0)`
    and `f_count(ctx, B0, z)`.
    """

    box: Box
    E: int
    S: int
    S1: int
    S2: int
    sum_f_sq_over_zprime: int
    z_count: int
    zprime_count: int
    f_table: dict[int, int]  # z in F_p^* (as int) -> f_0(z)
    hypothesis_ok: bool  # all H_i < sqrt(p/2)
    checks: dict[str, bool]


def one_dim_f_counts(p: int, h: int, z_values: np.ndarray) -> np.ndarray:
    """f_i(z) = #{(x, y) in [-h, h]^2 : xz = y mod p} for each z; needs 2h < p."""
    xs = np.arange(-h, h + 1, dtype=np.int64)
    residues = (z_values[:, None] * xs[None, :]) % p
    hits = (residues <= h) | (residues >= p - h)
    return hits.sum(axis=1)


def _difference_ratio_histogram(ctx: FieldCtx, idx_b0: np.ndarray) -> np.ndarray:
    """One period of the ratio histogram h_0 mod q - 1 of the difference box
    B0 (encoded elements idx_b0): h_0[d] is this array at d mod (q-1)/2.
    B0 = -B0 and dlog(-1) = (q-1)/2, so h_0 has that period and is twice the
    histogram of the sign class {dlog < (q-1)/2} mod (q-1)/2. The array is
    this thread's scratch, overwritten by its next call."""
    d_b0 = ctx.dlog_at(idx_b0[idx_b0 != 0])
    half = d_b0[d_b0 < ctx.q1 // 2]  # one of each pair {x, -x}: a quarter of the pairs
    h_0 = _self_ratio_bincount(half, ctx.q1 // 2)  # an eighth of the pairs swept
    h_0 *= 2
    return h_0


def s_decomposition(box: Box) -> RatioProfile:
    """Compute Z, f_0, S, S1, S2 for the difference box of B, check the
    energy chain and the prime-subfield factorization of f_0.

    The sums run in closed form over one period of h_0
    (`_difference_ratio_histogram`), S2 over the p - 1 prime-subfield bins
    and the f, f_0 comparison over the nonzero bins of the ratio histogram
    h_B, which also gives E(B) (`_box_ratio_energy`, kept for the box);
    all exact int64.
    """
    ctx = box.ctx
    p, half = ctx.p, ctx.q1 // 2
    hypothesis_ok = all(h <= small_edge_cap(p) for h in box.H)
    b0 = difference_box(box)
    _check_pairs(b0.size**2)  # B0 is the larger set: its sweep bounds B's

    in_zprime, h_b, r_zero, e_b = _box_ratio_energy(box)  # the nonzero bins of h_B; r_zero > 0 iff 0 in B
    idx_b0 = _sorted_distinct(b0.element_indices())  # sorted: about 20% fewer page faults below
    h_0 = _difference_ratio_histogram(ctx, idx_b0)  # one period: h_0 at d is h_0[d % half]

    # S = sum over Z of (1 + h_0)^2, with h_0 = 0 off Z; sums over q - 1 are twice those over a period
    z_count = 2 * int(np.count_nonzero(h_0))
    s_total = 2 * int(h_0 @ h_0) + 4 * int(h_0.sum()) + z_count
    z_ints = np.arange(1, p, dtype=np.int64)  # F_p^*; z in F_p has index z
    f0_prime = 1 + h_0[ctx.dlog_at(z_ints) % half]
    s2 = int(f0_prime @ f0_prime)
    s1 = s_total - int((f0_prime[f0_prime > 1] ** 2).sum())

    f_vals = int(r_zero > 0) + h_b
    sum_f_sq = int(f_vals @ f_vals)

    # f_0(z) = f_1(z) f_2(z) f_3(z) on the prime subfield
    product = np.prod([one_dim_f_counts(p, h, z_ints) for h in box.H], axis=0)

    checks = {
        "zero_in_B": r_zero > 0,
        "chain_2_1": e_b <= 2 * box.size**2 + sum_f_sq,
        "chain_3sq": e_b <= 3 * box.size**2 + s_total,
        "f_le_f0": bool((f_vals <= 1 + h_0[in_zprime % half]).all()),
        "s_le_s1_plus_s2": s_total <= s1 + s2,
        "f0_factorizes_on_prime_subfield": bool((product == f0_prime).all()),
        "f0_at_least_one": bool(h_0.min() >= 0),
    }
    f_table = {int(z): int(v) for z, v in zip(z_ints, f0_prime)}
    return RatioProfile(
        box, e_b, s_total, s1, s2, sum_f_sq, z_count, len(in_zprime),
        f_table, hypothesis_ok, checks,
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TauProfile:
    """tau(u) = #{(x, y) in B x (B0 minus 0) : x y^{-1} = u} statistics."""

    sum_tau: int
    sum_tau_sq: int
    tau_zero: int
    b_size: int
    b0_size: int
    checks: dict[str, bool]
    _keys: np.ndarray = field(repr=False)  # sorted dlogs of the nonzero cross ratios
    _counts: np.ndarray = field(repr=False)  # tau at each key

    def tau_of(self, ctx: FieldCtx, u: FqElem) -> int:
        if not any(u):
            return self.tau_zero
        return _count_at(self._keys, self._counts, ctx.dlog_of(u))


def tau_profile(box: Box, box0: Box) -> TauProfile:
    """Cross-ratio statistics between B and B0 plus the exact checks:
    sum tau = |B| (|B0| - 1), tau(0) <= |B0|, and the Cauchy-Schwarz bound
    (sum_{u != 0} tau^2)^2 <= E(B) E(B0) compared in integers."""
    ctx = box.ctx
    _check_pairs(max(box.size, box0.size) ** 2)  # the largest of its three sweeps
    idx_b, idx_b0 = box.element_indices(), box0.element_indices()  # distinct by construction
    nz_b = idx_b[idx_b != 0]
    nz_b0 = idx_b0[idx_b0 != 0]

    keys, counts = _pair_counts(ctx.dlog_at(nz_b), ctx.dlog_at(nz_b0), -1, ctx.q1)
    tau_zero = (len(idx_b) - len(nz_b)) * len(nz_b0)
    sum_tau = int(counts.sum()) + tau_zero
    sum_tau_sq_nonzero = int(counts @ counts)
    sum_tau_sq = sum_tau_sq_nonzero + tau_zero * tau_zero

    e_b, e_b0 = (_box_ratio_energy(b)[3] for b in (box, box0))
    checks = {
        "total_pairs": sum_tau == len(idx_b) * (len(idx_b0) - 1),
        "tau_zero_bound": tau_zero <= len(idx_b0),
        "cauchy_schwarz": sum_tau_sq_nonzero**2 <= e_b * e_b0,
    }
    return TauProfile(sum_tau, sum_tau_sq, tau_zero, len(idx_b), len(idx_b0), checks, keys, counts)
