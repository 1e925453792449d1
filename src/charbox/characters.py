"""Multiplicative characters of F_{p^n} and the character sums under study.

chi_k sends g^m to exp(2 pi i k m / (q-1)) and 0 to 0, evaluated only where
asked (no q-sized value table) and always by the one kernel `_of_dlogs`. Box
sums enumerate in lexicographic coordinate order and accumulate with
exact_sum, which returns the correctly rounded sum (the math.fsum value), so
summation is deterministic. The survey's route checks (tall split,
subdivision) compare element indices and need no chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box
from .field import FieldCtx, FqElem, is_generating

_TABLE_CACHE_LIMIT = 0  # no field gets a q-sized chi table; values are computed on demand
_SUM_CHUNK = 1 << 18  # exact-sum rows per pass: bounds scratch memory and every bucket sum
_EXACT_UNIT = 1 << 1126  # frexp exponents start at -1073: a finite float is an integer times 2^-1126


@dataclass(frozen=True, eq=False)
class Character:
    ctx: FieldCtx
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k) % self.ctx.q1)

    @property
    def order(self) -> int:
        """Least d with chi^d trivial: (q-1)/gcd(q-1, k)."""
        return self.ctx.q1 // math.gcd(self.ctx.q1, self.k)

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    def is_trivial_on_prime_subfield(self) -> bool:
        # F_p^* is generated by g^((q-1)/(p-1)); chi there is exp(2 pi i k/(p-1))
        return self.k % (self.ctx.p - 1) == 0

    def value(self, a: FqElem) -> complex:
        return complex(self.values_at(np.array([self.ctx.encode(a)]))[0])

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """chi at encoded elements; chi(0) = 0."""
        dlogs = self.ctx.dlog_at(idx)
        return self._of_dlogs(dlogs, dlogs < 0)

    def _of_dlogs(self, dlogs: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """exp(2 pi i k dlogs / (q-1)), and 0 where zero is set."""
        vals = np.exp((2j * np.pi / self.ctx.q1) * (self.k * dlogs % self.ctx.q1))
        vals[zero] = 0
        return vals


def exact_sum(vals) -> float:
    """Correctly rounded sum of float64 values: the same float as math.fsum.

    The sum is taken exactly in a Python int and rounded once
    (`_exact_column_sums`), so it does not depend on the order of the
    values. Non-finite input goes to math.fsum, which returns inf or nan or
    raises as it does; a finite sum beyond the float range raises
    OverflowError."""
    return _exact_column_sums(np.asarray(vals, dtype=np.float64).reshape(-1, 1))[0]


def _fsum_complex(vals: np.ndarray) -> complex:
    pairs = np.ascontiguousarray(vals, dtype=np.complex128).reshape(-1).view(np.float64)
    return complex(*_exact_column_sums(pairs.reshape(-1, 2)))


def _exact_column_sums(x: np.ndarray) -> list[float]:
    """math.fsum of each column of a 2-D float64 array. Non-finite input goes
    to math.fsum.

    Each column is summed exactly into an integer count of 2^-1126 and
    rounded once by int/int true division. np.frexp writes a finite value as
    M * 2^(e - 53) with an integer |M| < 2^53, cut here as M = hi * 2^27 + lo
    with |hi| < 2^26, |lo| < 2^27. np.bincount sums the halves per (column,
    exponent); a bucket meets at most 2 * _SUM_CHUNK halves, so its float64
    sum is exact. The buckets are combined in a Python int (Neal 2015,
    "small superaccumulator").
    """
    k = x.shape[1]
    totals = [0] * k
    for s in range(0, len(x), _SUM_CHUNK):
        mant, expo = np.frexp(x[s : s + _SUM_CHUNK])
        lo, hi = np.modf(mant * 2.0**26)
        lo *= 2.0**27
        e0 = int(expo.min())
        width = (int(expo.max()) - e0 + 35) & ~7  # a column's hi buckets move 27 up; groups of 8
        key = (expo - e0 + np.arange(0, k * width, width, dtype=expo.dtype)).ravel()
        acc, acc_hi = (np.bincount(key, weights=h.ravel(), minlength=k * width) for h in (lo, hi))
        acc[27:] += acc_hi[:-27]
        if not np.isfinite(acc).all():
            return [math.fsum(col) for col in x.T]
        groups = (acc.astype(np.int64).reshape(k, -1, 8) << np.arange(8)).sum(axis=2)  # < 2^58
        for c, row in enumerate(groups.tolist()):
            totals[c] += sum(v << 8 * g for g, v in enumerate(row)) << (e0 + 1073)
    return [t / _EXACT_UNIT for t in totals]


def box_char_sum(chi: Character, box: Box) -> complex:
    """sum over x in B of chi(x), lexicographic order, compensated."""
    return _fsum_complex(chi.values_at(box.element_indices()))


@dataclass(frozen=True)
class PolyCharSum:
    value: complex
    m: int
    weil_bound: float
    degenerate: bool


def complete_poly_char_sum(chi: Character, roots: list[tuple[FqElem, int]]) -> PolyCharSum:
    """sum over u in F_q of chi(prod_i (u + z_i)^{e_i}).

    The z_i must be distinct and the e_i positive. When every exponent is
    divisible by the character order the value is flagged degenerate and the
    Weil bound does not apply.
    """
    ctx = chi.ctx
    if len({ctx.encode(z) for z, _ in roots}) != len(roots):
        raise ValueError("roots must be distinct")
    if any(e < 1 for _, e in roots):
        raise ValueError("exponents must be positive")
    m = len(roots)
    degenerate = all(e % chi.order == 0 for _, e in roots)

    digits = ctx.decode_array(np.arange(ctx.q, dtype=np.int64))
    acc = np.zeros(ctx.q, dtype=np.int64)
    zero_mask = np.zeros(ctx.q, dtype=bool)
    for z, e in roots:
        dl = ctx.dlog_at(ctx.encode_array((digits + z) % ctx.p))
        zero_mask |= dl < 0
        acc = (acc + e * np.where(dl < 0, 0, dl)) % ctx.q1
    value = _fsum_complex(chi._of_dlogs(acc, zero_mask))
    return PolyCharSum(value, m, (m - 1) * math.sqrt(ctx.q), degenerate)


def generator_interval_sum(
    chi: Character, a: FqElem, interval: range
) -> tuple[complex, float]:
    """sum over t in the interval of chi(a + t), plus |sum|/(sqrt(p) log p)."""
    ctx = chi.ctx
    if not is_generating(ctx, a):
        raise ValueError("a must generate F_{p^n} over F_p")
    if chi.is_trivial:
        raise ValueError("chi must be nontrivial")
    if len(interval) == 0:
        return 0j, 0.0
    idx = ctx.add_int_array(ctx.encode(a), np.fromiter(interval, dtype=np.int64))
    value = _fsum_complex(chi.values_at(idx))
    return value, abs(value) / (math.sqrt(ctx.p) * math.log(ctx.p))


def interval_sums_scan(chi: Character, a: FqElem) -> float:
    """max over 1 <= lo <= hi <= p of |sum over t in [lo, hi] of chi(a + t)|,
    normalized by sqrt(p) log p (the generator-shift pilot scan)."""
    ctx = chi.ctx
    ts = np.arange(1, ctx.p + 1, dtype=np.int64)
    return _max_interval_ratio(chi.values_at(ctx.add_int_array(ctx.encode(a), ts)), ctx.p)


def _max_interval_ratio(vals: np.ndarray, p: int) -> float:
    """max over lo <= hi of |vals[lo] + ... + vals[hi]| / (sqrt(p) log p), one
    row of prefix differences at a time, so memory stays O(len(vals))."""
    prefix = np.concatenate([[0j], np.cumsum(vals)])
    best = max(np.abs(prefix[lo + 1:] - prefix[lo]).max() for lo in range(len(vals)))
    return float(best / (math.sqrt(p) * math.log(p)))
