"""Slow reference computations that the tests compare charbox against, plus
the seeded basis the CLI and the survey use.

Each oracle follows the textbook definition with no shared kernel, so an
agreement with the library is independent evidence. Tiny inputs only.
"""

import dataclasses
import importlib
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from charbox.boxes import difference_box, scaled_box
from charbox.characters import exact_sum
from charbox.field import FieldError
from charbox.sampling import rng_for, sample_basis

lattice_mod = importlib.import_module("charbox.lattice")
energy_mod = importlib.import_module("charbox.energy")  # the package re-exports a function `energy`
harness = importlib.import_module("charbox.harness")


def seeded_basis(ctx, seed: int):
    """The basis that `charbox ... --basis-seed seed` and the survey use."""
    return sample_basis(ctx, rng_for(seed, ctx.p, ctx.n, 7))


def exp_table(ctx) -> np.ndarray:
    """exp[m] = encode(g^m) for m in [0, q - 1) as int64: the inverse
    permutation of the dlog table, which the field no longer stores."""
    exp = np.empty(ctx.q1, dtype=np.int64)
    exp[ctx.dlog[1:]] = np.arange(1, ctx.q)
    return exp


def energy_bruteforce(ctx, elements) -> int:
    """Quadruple-definition oracle, O(|B|^3)."""
    elems = list(elements)
    count = 0
    for x in elems:
        for y in elems:
            xy = ctx.mul(x, y)
            for w in elems:
                for t in elems:
                    if ctx.mul(w, t) == xy:
                        count += 1
    return count


def omega_line_count_bruteforce(box) -> int:
    """Enumerate B and count elements proportional to omega_n."""
    count = 0
    for _, elem in box.elements():
        coords = box.basis.coords_of(elem)
        if not any(coords[:-1]):
            count += 1
    return count


def bad_tuple_count_bruteforce(alphabet: int, r: int) -> int:
    """Exhaustive oracle over alphabet^(2r) tuples."""
    count = 0
    for tup in product(range(alphabet), repeat=2 * r):
        if all(v >= 2 for v in Counter(tup).values()):
            count += 1
    return count


def bad_tuple_count_fraction(alphabet: int, r: int) -> int:
    """sum_k C(alphabet, k) * L! [x^L] (e^x - 1 - x)^k with L = 2r, in
    Fractions (the census before the integer recurrence)."""
    length = 2 * r
    base = [Fraction(0), Fraction(0)] + [
        Fraction(1, math.factorial(j)) for j in range(2, length + 1)
    ]
    total = 0
    poly = [Fraction(1)] + [Fraction(0)] * length  # (e^x - 1 - x)^0
    for k in range(1, length // 2 + 1):
        nxt = [Fraction(0)] * (length + 1)
        for i, c in enumerate(poly):
            if c:
                for j in range(2, length + 1 - i):
                    nxt[i + j] += c * base[j]
        poly = nxt
        surj = poly[length] * math.factorial(length)
        assert surj.denominator == 1
        total += math.comb(alphabet, k) * int(surj)
    return total


def moment_sum_gather(chi, interval, r):
    """`harness.moment_sum` with each shift gathered through an index array
    (u + z in u's row), chunked by `harness._MOMENT_CHUNK` like the library,
    with the Fraction census."""
    ctx = chi.ctx
    size = len(interval)
    partials = []
    for start in range(0, ctx.q, harness._MOMENT_CHUNK):
        stop = min(start + harness._MOMENT_CHUNK, ctx.q)
        lo = start - start % ctx.p
        local = chi.values_at(np.arange(lo, -(-stop // ctx.p) * ctx.p, dtype=np.int64))
        rel_u = np.arange(start - lo, stop - lo, dtype=np.int64)
        inner = np.zeros(len(rel_u), dtype=np.complex128)
        for z in interval:
            inner += local[ctx.add_int_array(rel_u, z)]
        partials.append(exact_sum(np.abs(inner) ** (2 * r)))
    value = exact_sum(partials)
    bound = 2 * r * math.sqrt(ctx.q) * float(size) ** (2 * r) + ctx.q * float(size) ** r * float(
        r
    ) ** (2 * r)
    bad = bad_tuple_count_fraction(size, r)
    return harness.MomentResult(
        value, bound, size ** (2 * r) - bad, bad, size**r * r ** (2 * r),
        value <= bound + 1e-3, bad <= size**r * r ** (2 * r),
    )


def moment_exact(chi, interval, r) -> int | None:
    """The moment as an exact integer where I is one point or two points
    distinct mod p; None for every other interval.

    |I| = 1: q - 1, one term 0 and the rest 1. |I| = 2: u = -z1 and u = -z2
    give 1 each, and the other u give |1 + chi(w)|^(2r) once for each w in
    F_q minus {0, 1}. chi takes each d-th root of unity (q - 1)/d times on
    F_q^*, so the sum over F_q^* is (q - 1)/d times the sum over j < d of
    |1 + zeta_d^j|^(2r); the w = 1 term 4^r comes off. That sum over j is
    P(1) + ... + P(zeta_d^(d-1)) for P = (1 + x)^r (1 + x^-1)^r, which is d
    times the constant coefficient of P mod x^d - 1, multiplied out here one
    factor at a time."""
    ctx = chi.ctx
    if len(interval) > 2 or len({z % ctx.p for z in interval}) < len(interval):
        return None
    if len(interval) == 1:
        return ctx.q - 1
    d = ctx.q1 // math.gcd(ctx.q1, chi.k)
    poly = Counter({0: 1})
    for step in [1] * r + [-1] * r:
        nxt = Counter(poly)
        for e, c in poly.items():
            nxt[(e + step) % d] += c
        poly = nxt
    return 2 - 4**r + (ctx.q - 1) // d * (d * poly[0])


def moment_gather_error_bound(q: int, size: int, r: int) -> float:
    """A bound on |moment_sum_gather - exact| for an interval of `size`
    points, u = 2^-53.

    A chi value is exp(i theta) with theta = (2 pi / (q - 1)) m in [0, 2 pi):
    2 pi / (q - 1) and the product by m round at most 5u in all, so theta is
    off by at most 10 pi u < 32 u, and cos and sin add 1 ulp (2u) each:
    35u per value. Adding |I| values rounds |I| - 1 times, each time at most
    u |I|; for |I| <= 2 the inner sum s is off by e <= 36 |I| u. Then
    ||s~|^(2r) - |s|^(2r)| <= 2r |I|^(2r-1) e (1 + 2r e), abs and the power
    add 2u each relative, to the power 2r for abs: a term is off by at most
    (77 r + 2) u |I|^(2r). Over q terms, plus the chunk partials and the
    total rounding once each (at most 2u q |I|^(2r)), that is within
    (80 r + 3) u q |I|^(2r)."""
    return (80 * r + 3) * 2.0**-53 * q * float(size) ** (2 * r)


def moment_sum_expected(chi, interval, r):
    """What `harness.moment_sum` returns: the gather, and where
    `moment_exact` gives an integer, float of that integer as the value,
    once the gather is checked to lie within `moment_gather_error_bound`
    of it."""
    gather = moment_sum_gather(chi, interval, r)
    exact = moment_exact(chi, interval, r)
    if exact is None:
        return gather
    assert abs(Fraction(gather.value) - exact) <= moment_gather_error_bound(chi.ctx.q, len(interval), r)
    value = float(exact)
    return dataclasses.replace(gather, value=value, within_bound=value <= gather.bound + 1e-3)


def burgess_shift_loop(box, chi, eps):
    """(averaged_sum, triple_abs, max_sym_diff) of `harness.burgess_trace`
    by one loop over the shifts c = zy, y in B0 (lexicographic) outer and z
    in I inner: each shifted sum is math.fsum of its real and imaginary
    parts, and the overlap a set membership count."""
    ctx = box.ctx
    params = harness.choose_parameters(eps, ctx.p)
    b0 = scaled_box(box, params.delta)
    idx_b = box.element_indices()
    members = set(idx_b.tolist())
    digits_b = ctx.decode_array(idx_b)
    max_sym, partials = 0, []
    for _, y in b0.elements():
        for z in params.interval:
            shifted = ctx.encode_array((digits_b + ctx.mul(y, ctx.from_int(z))) % ctx.p)
            max_sym = max(max_sym, 2 * (box.size - sum(v in members for v in shifted.tolist())))
            vals = chi.values_at(shifted)
            partials.append(complex(math.fsum(vals.real), math.fsum(vals.imag)))
    total = complex(math.fsum(c.real for c in partials), math.fsum(c.imag for c in partials))
    return total / (b0.size * len(params.interval)), abs(total), max_sym


def ratio_bincount_dense(dlogs, modulus):
    """np.bincount of dlogs[i] - dlogs[j] mod modulus over all pairs (i, j),
    taken over the rows of the difference matrix 256 at a time."""
    counts = np.zeros(modulus, dtype=np.int64)
    for s in range(0, len(dlogs), 256):
        keys = (dlogs[s : s + 256, None] - dlogs[None, :]) % modulus
        counts += np.bincount(keys.ravel(), minlength=modulus)
    return counts


def s_decomposition_dense(box, dlog=None):
    """(profile, h_0): `energy.s_decomposition` with h_B and h_0 binned
    densely over all pairs mod q - 1 and every sum taken over (q-1)-sized
    masks, reading dlogs from an int64 table (default: `FieldCtx.dlog_at`)."""
    ctx = box.ctx
    dlog = ctx.dlog_at(slice(None)) if dlog is None else dlog
    p = ctx.p
    hypothesis_ok = all(h < math.sqrt(p / 2) for h in box.H)
    idx_b = np.unique(box.element_indices())
    idx_b0 = np.unique(difference_box(box).element_indices())
    zero_in_b = bool((idx_b == 0).any())
    d_b = dlog[idx_b[idx_b != 0]]
    d_b0 = dlog[idx_b0[idx_b0 != 0]]
    h_b, h_0 = (ratio_bincount_dense(d, ctx.q1) for d in (d_b, d_b0))
    e_b = energy_mod.energy(ctx, idx_b).E
    size = len(idx_b)

    in_z = h_0 > 0
    f0_vals = 1 + h_0
    s_total = int((f0_vals[in_z] ** 2).sum())
    prime_mask = np.zeros(ctx.q1, dtype=bool)
    prime_mask[np.arange(0, ctx.q1, ctx.q1 // (p - 1))] = True
    s1 = int((f0_vals[in_z & ~prime_mask] ** 2).sum())
    s2 = int((f0_vals[prime_mask] ** 2).sum())
    in_zprime = h_b > 0
    f_vals = (1 if zero_in_b else 0) + h_b
    sum_f_sq = int((f_vals[in_zprime] ** 2).sum())

    z_ints = np.arange(1, p, dtype=np.int64)
    product = np.ones(p - 1, dtype=np.int64)
    for h in box.H:
        product *= energy_mod.one_dim_f_counts(p, h, z_ints)
    f0_prime = np.array(
        [1 + int(h_0[ctx.dlog_of(ctx.from_int(int(z)))]) for z in z_ints], dtype=np.int64
    )
    checks = {
        "zero_in_B": zero_in_b,
        "chain_2_1": e_b <= 2 * size**2 + sum_f_sq,
        "chain_3sq": e_b <= 3 * size**2 + s_total,
        "f_le_f0": bool((f_vals[in_zprime] <= f0_vals[in_zprime]).all()),
        "s_le_s1_plus_s2": s_total <= s1 + s2,
        "f0_factorizes_on_prime_subfield": bool((product == f0_prime).all()),
        "f0_at_least_one": bool((f0_vals >= 1).all()),
    }
    f_table = {int(z): int(v) for z, v in zip(z_ints, f0_prime)}
    profile = energy_mod.RatioProfile(
        box, e_b, s_total, s1, s2, sum_f_sq, int(in_z.sum()), int(in_zprime.sum()),
        f_table, hypothesis_ok, checks,
    )
    return profile, h_0


def min_poly_degree(ctx, a) -> int:
    """Degree of the minimal polynomial of a over F_p (1..n)."""
    rows = []
    power = ctx.one()
    for k in range(ctx.n + 1):
        rows.append(power)
        power = ctx.mul(power, a)
        mat = np.array(rows, dtype=np.int64)
        if rank_mod_p(mat, ctx.p) < len(rows):
            return k  # 1, a, ..., a^k dependent: degree k
    return ctx.n


def inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p by Gauss-Jordan elimination;
    FieldError when it is singular mod p."""
    n = mat.shape[0]
    a = mat.astype(np.int64) % p
    inv = np.eye(n, dtype=np.int64)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r, col] % p), None)
        if piv is None:
            raise FieldError("singular matrix mod p")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        s = pow(int(a[col, col]), p - 2, p)
        a[col] = a[col] * s % p
        inv[col] = inv[col] * s % p
        for r in range(n):
            if r != col and a[r, col]:
                f = int(a[r, col])
                a[r] = (a[r] - f * a[col]) % p
                inv[r] = (inv[r] - f * inv[col]) % p
    return inv % p


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    a = mat.astype(np.int64) % p
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r, col] % p), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        s = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * s % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - int(a[r, col]) * a[rank]) % p
        rank += 1
    return rank


def _independent_add(echelon: list[list[int]], vec) -> bool:
    """Fraction-free elimination; if vec is independent, add it and return True."""
    v = list(map(int, vec))
    for row in echelon:
        c = next(i for i, x in enumerate(row) if x != 0)
        if v[c] != 0:
            v = [x * row[c] - y * v[c] for x, y in zip(v, row)]
    if not any(v):
        return False
    g = math.gcd(*[abs(x) for x in v])
    echelon.append([x // g for x in v])
    return True


def integer_rank(vecs) -> int:
    """Rank over Q of integer vectors, by fraction-free elimination."""
    echelon: list[list[int]] = []
    return sum(_independent_add(echelon, v) for v in vecs)


def greedy_minima_scan(lattice, body, vecs: np.ndarray):
    """The greedy minima by a full (gauge, lexicographic) sort of the shell and
    one echelon independence test per candidate. Sign-normalizes vecs in place."""
    if len(vecs) == 0:
        return None
    m = lattice.dim
    scale = body.gauge_scale(lattice.denom)
    keys = np.array([body.gauge_key(v, lattice.denom) for v in vecs.tolist()], dtype=np.int64)
    first = np.argmax(vecs != 0, axis=1)  # canonical sign: first nonzero entry > 0
    vecs *= np.sign(vecs[np.arange(len(vecs)), first])[:, None]
    order = np.lexsort(tuple(vecs[:, j] for j in reversed(range(m))) + (keys,))
    lams, wits = [], []
    echelon: list[list[int]] = []
    for i in order:
        vec = tuple(int(x) for x in vecs[i])
        if _independent_add(echelon, vec):
            lams.append(Fraction(int(keys[i]), scale))
            wits.append(vec)
            if len(wits) == m:
                break
    return lams, wits


def successive_minima_doubling(lattice, body, node_budget: int = 10_000_000):
    """(lambdas, witnesses, nodes) by the doubling shell schedule: start at
    the least gauge of the LLL-reduced rows and double, capped at the
    largest, until one shell holds dim independent vectors. Each shell
    re-enumerates the whole interior. Shares the shell and greedy kernels
    with charbox.lattice, so it checks the schedule alone."""
    gauges = [body.gauge(r, lattice.denom) for r in lattice_mod._lll_rows(lattice.rows, body._stretch())]
    shell, cap = min(gauges), max(gauges)
    counter = lattice_mod._NodeCounter(node_budget)
    while True:
        vecs = lattice_mod._shell_vectors(lattice, body, shell, counter)
        lams, wits = lattice_mod._greedy_minima(lattice, body, vecs)
        if len(wits) == lattice.dim:
            return lams, wits, counter.nodes
        assert shell < cap, "the LLL-reduced rows are dim independent vectors"
        shell = min(2 * shell, cap)


def smallest_generator(ctx) -> int:
    """Index of the least element of multiplicative order q - 1, from the
    orders of the candidates 1, 2, ... found by repeated multiplication."""
    for idx in range(1, ctx.q):
        a = ctx.decode(idx)
        power, order = a, 1
        while power != ctx.one():
            power, order = ctx.mul(power, a), order + 1
        if order == ctx.q - 1:
            return idx
    raise AssertionError("no generator")


def mul_schoolbook(a, b, modulus, p) -> tuple:
    """a * b in F_p[X]/(modulus) in Python ints: the polynomial product, then
    long division by the monic modulus (low degree first)."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for d in range(2 * n - 2, n - 1, -1):  # subtract prod[d] X^(d - n) modulus(X)
        c = prod[d]
        for i, mi in enumerate(modulus):
            prod[d - n + i] -= c * mi
    return tuple(c % p for c in prod[:n])
