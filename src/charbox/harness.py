"""Burgess amplification trace: shift identity, Holder chain, moment bounds.

Every inequality that the amplification argument uses pointwise is computed
here with explicit constants and checked on the spot; the trace record keeps
all intermediate quantities so failures are diagnosable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boxes import Box, scaled_box, small_edge_cap
from .characters import Character, _exact_column_sums, _fsum_complex, box_char_sum, exact_sum
from .energy import tau_profile
from .field import _dlog_lookup, _dlog_rows

R_CAP = 30
INTERVAL_CAP = 10_000
MOMENT_BUDGET = 2**28
_SHIFT_CHUNK = 1 << 20  # shifted elements per batch of Burgess shifts: bounds the batch's memory


class RegimeError(ValueError):
    """Inputs outside the regime an operation is specified for."""


@dataclass(frozen=True)
class Parameters:
    r: int
    delta: float
    interval: range | None

    @property
    def interval_len(self) -> int:
        return len(self.interval) if self.interval is not None else 0


def choose_parameters(eps: float, p: int | None = None) -> Parameters:
    """r = nearest integer to 3/eps, delta = 3/(2r), I = [1, p^delta]."""
    if not 0 < eps < 0.5:
        raise RegimeError(f"eps must lie in (0, 1/2), got {eps}")
    r = int(round(3.0 / eps))
    delta = 3.0 / (2 * r)
    interval = range(1, int(p**delta) + 1) if p is not None else None
    return Parameters(r, delta, interval)


def delta_bracket_ok(eps: float, delta: float) -> bool:
    """(6/13) eps <= delta <= (6/11) eps, the bound the rounding guarantees."""
    return (6 / 13) * eps <= delta <= (6 / 11) * eps + 1e-15


# ---------------------------------------------------------------------------
# bad-tuple census (exact combinatorics)


def bad_tuple_count(alphabet: int, r: int) -> int:
    """Number of (z_1..z_{2r}) over an alphabet where no value occurs exactly
    once, i.e. every used value occurs at least twice.

    Exact: sum_k C(alphabet, k) a(k, 2r), where a(k, m) counts maps of m
    positions onto k labelled values, each hit at least twice. Position m
    joins a value hit at least twice without it, or pairs with one of the
    m - 1 others: a(k, m) = k (a(k, m-1) + (m-1) a(k-1, m-2)).
    """
    length = 2 * r
    prev = [1] + [0] * length  # a(0, m)
    total = 0
    for k in range(1, length // 2 + 1):
        row = [0] * (length + 1)
        for m in range(2 * k, length + 1):
            row[m] = k * (row[m - 1] + (m - 1) * prev[m - 2])
        total += math.comb(alphabet, k) * row[length]
        prev = row
    return total


@dataclass(frozen=True)
class MomentResult:
    value: float
    bound: float
    good_count: int
    bad_count: int
    bad_bound: int
    within_bound: bool
    census_ok: bool


_MOMENT_CHUNK = 1 << 18  # u's per rounded partial sum and per thread task


def moment_sum(chi: Character, interval: range, r: int) -> MomentResult:
    """sum over u in F_q of |sum over z in I of chi(u+z)|^(2r), against the
    explicit bound 2 r q^(1/2) |I|^(2r) + q |I|^r r^(2r).

    When I is one point, or two points distinct mod p, the value is the
    exact integer of `_closed_form_moment` rounded once to a float, and no
    term is swept. Every other interval (|I| >= 3, or two points equal mod
    p) goes through `_swept_moment`. Either way a value past the float
    range raises OverflowError."""
    ctx = chi.ctx
    size = len(interval)
    if size < 1:
        raise RegimeError("interval must be nonempty")
    if r < 1:
        raise RegimeError(f"r must be at least 1, got {r}")
    if ctx.q * size > MOMENT_BUDGET:
        raise RegimeError(f"q*|I| = {ctx.q * size} exceeds moment budget {MOMENT_BUDGET}")
    closed = size == 1 or (size == 2 and (interval[1] - interval[0]) % ctx.p != 0)
    value = None if closed else _swept_moment(chi, interval, r)
    bound = 2 * r * math.sqrt(ctx.q) * float(size) ** (2 * r) + ctx.q * float(size) ** r * float(
        r
    ) ** (2 * r)
    if closed:  # after the bound, whose OverflowError at large r comes before any big-integer work
        value = float(_closed_form_moment(ctx.q, chi.order, size, r))
    bad = bad_tuple_count(size, r)
    good = size ** (2 * r) - bad
    return MomentResult(
        value,
        bound,
        good,
        bad,
        size**r * r ** (2 * r),
        value <= bound + 1e-3,
        bad <= size**r * r ** (2 * r),
    )


def _closed_form_moment(q: int, order: int, size: int, r: int) -> int:
    """The moment over F_q of a character of the given order, exactly, for
    I = {z} or I = {z1, z2} with z1 != z2 mod p.

    |I| = 1: every term is 1 but the one at u = -z, so the sum is q - 1.
    |I| = 2: u = -z1 and u = -z2 give 1 each. Every other u gives
    |1 + chi(w)|^(2r) with w = (u + z2)/(u + z1), which runs once over F_q
    minus {0, 1}. Expanding |1 + zeta|^(2r) = sum over a, b <= r of
    C(r,a) C(r,b) zeta^(a-b), the sum over w in F_q^* keeps exactly the
    terms with a = b mod order, each q - 1 times: (q - 1) A. The w = 1 term
    is 4^r. This holds for the trivial character (order 1, A = 4^r) too."""
    if size == 1:
        return q - 1
    classes = [0] * min(order, r + 1)  # sum of C(r, a) over each class of a mod order
    binom = 1
    for a in range(r + 1):
        classes[a % order] += binom
        binom = binom * (r - a) // (a + 1)
    return 2 - 4**r + (q - 1) * sum(c * c for c in classes)


def _swept_moment(chi: Character, interval: range, r: int) -> float:
    """The moment summed term by term over F_q, correctly rounded.

    u runs in chunks of _MOMENT_CHUNK. A chunk's terms (`_moment_terms`)
    are summed to one correctly rounded partial, and the value is the
    exact_sum of the partials. The chunks alone fix the bits, so the value
    is the same at any thread count.

    With more than one chunk, the chunks run on a ThreadPoolExecutor with
    one thread per CPU this process may use, at most one per chunk; numpy
    releases the GIL in the chunk-sized work. The pool is made and joined
    within the call, so none outlives it into a fork. Each thread holds one
    chunk's working set, 48 bytes per u or 12 MiB under tracemalloc, so
    memory in use is about threads x 12 MiB whatever q is: two threads
    peak under 26 MiB at q = 101^3."""
    q = chi.ctx.q
    chunks = [(a, min(a + _MOMENT_CHUNK, q)) for a in range(0, q, _MOMENT_CHUNK)]

    def partial(bounds):
        return _exact_column_sums(_moment_terms(chi, interval, r, *bounds)[:, None])[0]

    threads = min(_moment_threads(), len(chunks))
    if threads == 1:
        return exact_sum([partial(c) for c in chunks])
    with ThreadPoolExecutor(threads) as pool:
        return exact_sum(list(pool.map(partial, chunks)))


def _moment_threads() -> int:
    """Threads for a moment sum: one per CPU this process may use."""
    return len(os.sched_getaffinity(0))


def _moment_terms(chi: Character, interval: range, r: int, start: int, stop: int) -> np.ndarray:
    """|sum over z in I of chi(u+z)|^(2r) for u in [start, stop).

    u + z stays in u's row of p indices. When [start, stop) lies in one row
    and its shifts by min I .. max I span less than the row (at n = 1 near
    the budget, where the row is all of F_p), chi is evaluated on that
    window only, wrapping inside the row, and shift z adds the window's
    slice at z - min I. Otherwise chi is evaluated once on the rows
    enclosing [start, stop), and shift z adds those rows rotated left by
    z mod p, as two slices, into an accumulator of the same shape. Either
    way every u sums the same values in the same order as a gather of
    chi(u + z) would, and memory follows the chunk, not p. Runs on worker
    threads, as does the `_exact_column_sums` of its terms, so neither
    calls a public charbox function: a tracer that wraps those keeps one
    span stack for the calling thread. So the dlogs come from the private
    kernel behind `FieldCtx.dlog_at`, whole rows from `field._dlog_rows`.
    """
    p = chi.ctx.p
    lo = start - start % p  # a multiple of p
    z0, width = min(interval), stop - start
    span = width + max(interval) - z0  # u + z for u in [start, stop) and z in I
    if stop <= lo + p and span < p:
        dlogs = _dlog_lookup(chi.ctx, lo + (start - lo + z0 + np.arange(span)) % p)
        window = chi._of_dlogs(dlogs, dlogs < 0)
        acc = window[interval[0] - z0 :][:width].copy()
        for z in interval[1:]:
            acc += window[z - z0 :][:width]
        inner = np.abs(acc)
    else:
        dlogs = _dlog_rows(chi.ctx, range(lo // p, -(-stop // p)))
        rows = chi._of_dlogs(dlogs, dlogs < 0)
        acc = np.empty_like(rows)
        for i, z in enumerate(interval):
            s = z % p
            if i == 0:  # a copy, not 0 + chi: that differs only in the sign of a zero part, which abs drops
                acc[:, : p - s] = rows[:, s:]
                acc[:, p - s :] = rows[:, :s]
            else:
                acc[:, : p - s] += rows[:, s:]
                acc[:, p - s :] += rows[:, :s]
        inner = np.abs(acc.ravel()[start - lo : stop - lo])
    inner **= 2 * r
    return inner


# ---------------------------------------------------------------------------
# the amplification trace


@dataclass(frozen=True, eq=False)
class BurgessTrace:
    box: Box
    chi_index: int
    eps: float
    r: int
    delta: float
    interval_len: int
    b_size: int
    b0_size: int
    true_sum: complex
    averaged_sum: complex
    shift_identity_error: float
    max_sym_diff: int
    sym_diff_bound: float
    sum_tau: int
    sum_tau_sq: int
    moment: MomentResult
    triple_abs: float
    holder_rhs: float
    assembled_bound: float
    tau_sq_log_ratio: float  # sum tau^2 / (|B| |B0| log^3 p)
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def burgess_trace(box: Box, chi: Character, eps: float) -> BurgessTrace:
    """Run the full shift-and-average amplification on one box and character,
    checking every explicit inequality along the way."""
    ctx = box.ctx
    p = ctx.p
    if chi.is_trivial:
        raise RegimeError("chi must be nontrivial")
    if any(h > small_edge_cap(p) for h in box.H):
        raise RegimeError("trace requires all edges below sqrt(p/2)")
    params = choose_parameters(eps, p)
    if params.r > R_CAP:
        raise RegimeError(f"r = {params.r} exceeds cap {R_CAP}; raise eps")
    if params.interval_len > INTERVAL_CAP:
        raise RegimeError(f"|I| = {params.interval_len} exceeds cap {INTERVAL_CAP}")
    r, delta, interval = params.r, params.delta, params.interval

    b0 = scaled_box(box, delta)
    idx_b = box.element_indices()
    b_size = box.size
    shift_bound = 6 * p ** (-delta) * b_size

    true_sum = box_char_sum(chi, box)

    # every shift c = zy, y in B0 outer and z in I inner: B + c by digits,
    # its overlap with B (box elements are distinct) and its character sum,
    # each shift's sum correctly rounded as one column of a batch
    zs = np.fromiter(interval, dtype=np.int64)[:, None]
    shifts = (ctx.decode_array(b0.element_indices())[:, None, :] * zs % p).reshape(-1, ctx.n)
    digits_b = ctx.decode_array(idx_b)
    step = max(1, _SHIFT_CHUNK // b_size)
    max_sym, partial_sums = 0, []
    for start in range(0, len(shifts), step):
        shifted = ctx.encode_array((digits_b + shifts[start : start + step, None, :]) % p)
        overlap = np.isin(shifted, idx_b).sum(axis=1)
        max_sym = max(max_sym, 2 * (b_size - int(overlap.min())))
        vals = np.ascontiguousarray(chi.values_at(shifted).T)  # (|B|, shifts): re, im columns
        partial_sums += _exact_column_sums(vals.view(np.float64))
    triple_total = _fsum_complex(np.array(partial_sums).view(np.complex128))
    b0_size = b0.size
    averaged = triple_total / (b0_size * len(interval))
    identity_err = abs(true_sum - averaged)

    tau = tau_profile(box, b0)
    moment = moment_sum(chi, interval, r)

    a1, a2, a3 = tau.sum_tau, tau.sum_tau_sq, moment.value
    holder_rhs = a1 ** (1 - 1 / r) * a2 ** (1 / (2 * r)) * a3 ** (1 / (2 * r)) + b_size * len(interval)
    triple_abs = abs(triple_total)
    assembled = holder_rhs / (b0_size * len(interval)) + shift_bound
    log3 = math.log(p) ** 3

    checks = {
        "sym_diff_bound": max_sym <= shift_bound,
        "shift_identity": identity_err <= shift_bound + 1e-6,
        "tau_total": tau.checks["total_pairs"],
        "tau_zero": tau.checks["tau_zero_bound"],
        "cauchy_schwarz": tau.checks["cauchy_schwarz"],
        "holder_chain": triple_abs <= holder_rhs + 1e-6,
        "moment_bound": moment.within_bound,
        "bad_census": moment.census_ok,
        "assembled_dominates": abs(true_sum) <= assembled + 1e-6,
    }
    return BurgessTrace(
        box=box,
        chi_index=chi.k,
        eps=eps,
        r=r,
        delta=delta,
        interval_len=len(interval),
        b_size=b_size,
        b0_size=b0_size,
        true_sum=true_sum,
        averaged_sum=averaged,
        shift_identity_error=identity_err,
        max_sym_diff=max_sym,
        sym_diff_bound=shift_bound,
        sum_tau=a1,
        sum_tau_sq=a2,
        moment=moment,
        triple_abs=triple_abs,
        holder_rhs=holder_rhs,
        assembled_bound=assembled,
        tau_sq_log_ratio=a2 / (b_size * b0_size * log3),
        checks=checks,
    )
