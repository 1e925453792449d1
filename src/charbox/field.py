"""Exact arithmetic in F_p and F_{p^n} for n in {1, 2, 3}.

Elements are coefficient tuples in the power basis of a monic irreducible
modulus polynomial. One kernel multiplies, the regular representation
M(a) = sum_k a_k C^k (C the companion matrix of the modulus, C^k built once
per field): `FieldCtx.mul_matrix` over arrays, `FieldCtx.mul` in Python ints.
Discrete logs split along the cosets of F_p^*: x = lam * u with lam in
F_p^* the top nonzero coordinate of x and u = x / lam of top coordinate 1,
so dlog x = dlog lam + dlog u mod q - 1. Every field stores one compact
int32 table of p + (q - 1)/(p - 1) - 1 entries, the log on F_p and one log
per coset (32 KiB at (4093, 2), 248 KiB at (251, 3)), and every read goes
through one kernel, `_dlog_lookup`, behind `FieldCtx.dlog_at` (int64);
characters read dlogs from it and evaluate chi only where asked. Powers
g^m are not tabled: `FieldCtx.exp_at` writes m = jB + r and multiplies the
coordinates of g^r (baby steps) by the multiplication matrix of g^(jB)
(giant steps), two tables of at most 4096 rows (sqrt(q) at the 2^24
budget). The build computes one power of g per coset (`_build_tables`). A
basis matrix is inverted over F_p as its integer adjugate times det^-1 mod p
(`charbox.intlinalg`). Fields are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intlinalg import _int_adjugate

DEFAULT_TABLE_BUDGET = 2**24

FqElem = tuple  # length-n tuple of ints in [0, p)


class FieldError(ValueError):
    """Invalid field parameters (composite p, reducible modulus, budget)."""


def is_prime(m: int) -> bool:
    return m > 1 and factorize(m) == {m: 1}


def factorize(m: int) -> dict[int, int]:
    """Trial-division factorization; fine at desk scale (m <= 2**24)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic f of degree 1..3 is irreducible over F_p iff it has no root in
    F_p, since a proper factorization would have a linear factor. Other
    degrees are outside the fields built here and return False."""
    f = list(modulus)
    n = len(f) - 1
    if not 1 <= n <= 3 or f[-1] != 1:
        return False
    if n == 1:
        return True
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        val = (val * x + c) % p
    return bool(val.all())


def _find_irreducible(p: int, n: int, seed: int) -> tuple[int, ...]:
    """Seeded pseudorandom search over monic degree-n polynomials."""
    if n == 1:
        return (0, 1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, p, n]))
    while True:
        coeffs = [int(c) for c in rng.integers(0, p, size=n)]
        cand = coeffs + [1]
        if is_irreducible(cand, p):
            return tuple(cand)


# ---------------------------------------------------------------------------


class FieldCtx:
    """F_{p^n} with modulus, generator, a compact dlog table and g^m steps.

    Attributes:
        p, n, q: characteristic, degree, order q = p^n.
        modulus: monic degree-n coefficient tuple (low degree first).
        x_powers: read-only int64 (n, n, n); x_powers[k] = C^k = M(X^k), C the
                  companion matrix of the modulus; `mul` and `mul_matrix`
                  multiply through M(a) = sum_k a_k C^k and nothing else.
        g: generator element (coefficient tuple).
        dlog: read-only int32 array of p + (q - 1)/(p - 1) - 1 entries: at
              [0, p) the log on F_p (dlog[a] = m with g^m = a, -1 at 0),
              then for t = 1 .. n - 1 the block of dlog u for the u in
              [p^t, 2 p^t), the elements whose top coordinate is a 1 at t.
              At n = 1 this is the whole table of F_p.
        baby: read-only int64 (B, n); row r holds the coordinates of g^r,
              for the block B = min(4096, q - 1).
        giant: read-only int64 (ceil((q - 1) / B), n, n); giant[j] is the
               multiplication matrix of g^(jB), so g^(jB + r) has the
               coordinates giant[j] @ baby[r] mod p.
        exp: empty read-only int32 array, kept for readers of its size;
             `exp_at` computes g^m from baby and giant instead.

    At n >= 2 no table has q - 1 entries: dlog is O(q / p), baby and giant
    O(sqrt(q) n^2), and the lookup has three tables of p entries: `_inv`
    (inverses mod p) and `_lam_log` (dlog lam - (q - 1)), both reading
    index 0 as 1, and `_top_base` (the start of the top block, 0 at 0).
    Kernels read dlog only through `dlog_at` and powers only through
    `exp_at`, both int64: products such as k * dlog reach 2^48, so no kernel
    does arithmetic on int32 table entries.
    """

    def __init__(self, p: int, n: int, modulus: Sequence[int]):
        self.p = p
        self.n = n
        self.q = p**n
        self.q1 = self.q - 1
        self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        self._pow_vec = tuple(p**i for i in range(n))
        comp = np.eye(n, k=-1, dtype=np.int64)  # companion matrix C: C @ coords(a) = coords(X a)
        comp[:, -1] = [-c % p for c in self.modulus[:-1]]
        powers = [np.eye(n, dtype=np.int64)]  # M(X^k) = C^k
        for _ in range(n - 1):
            powers.append(comp @ powers[-1] % p)
        self.x_powers = np.stack(powers)
        self.x_powers.setflags(write=False)
        self._mul_rows = self.x_powers.transpose(1, 0, 2).reshape(n, n * n).tolist()  # [i][kn + j]
        self.g: FqElem = ()
        self.dlog: np.ndarray = np.empty(0, dtype=np.int32)
        self._inv: np.ndarray = np.empty(0, dtype=np.int64)
        self._lam_log: np.ndarray = np.empty(0, dtype=np.int32)
        self._top_base: np.ndarray = np.empty(0, dtype=np.int64)
        self.baby: np.ndarray = np.empty((0, n), dtype=np.int64)
        self.giant: np.ndarray = np.empty((0, n, n), dtype=np.int64)
        self.exp: np.ndarray = np.empty(0, dtype=np.int32)
        self.exp.setflags(write=False)

    # -- element plumbing ---------------------------------------------------

    def elem(self, coeffs: Iterable[int]) -> FqElem:
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.n:
            raise FieldError(f"element needs {self.n} coordinates, got {len(c)}")
        return c

    def zero(self) -> FqElem:
        return (0,) * self.n

    def one(self) -> FqElem:
        return (1,) + (0,) * (self.n - 1)

    def from_int(self, t: int) -> FqElem:
        """The element t * 1 (image of an integer in the prime subfield)."""
        return (t % self.p,) + (0,) * (self.n - 1)

    def encode(self, a: FqElem) -> int:
        return sum(c * w for c, w in zip(a, self._pow_vec))

    def decode(self, idx: int) -> FqElem:
        out = []
        for _ in range(self.n):
            idx, r = divmod(idx, self.p)
            out.append(r)
        return tuple(out)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        """M(a) @ b in Python ints: coordinate i is sum_{k,j} M(X^k)[i, j] a_k b_j mod p."""
        ab = [x * y for x in a for y in b]
        return tuple(sum(map(operator.mul, row, ab)) % self.p for row in self._mul_rows)

    def pow(self, a: FqElem, e: int) -> FqElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: FqElem) -> FqElem:
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.decode(int(self.exp_at(-self.dlog_of(a) % self.q1)))  # 1/g^m = g^(-m)

    def div(self, a: FqElem, b: FqElem) -> FqElem:
        return self.mul(a, self.inv(b))

    def dlog_of(self, a: FqElem) -> int:
        if not any(a):
            raise ZeroDivisionError("dlog of zero")
        return int(self.dlog_at(self.encode(a)))

    def dlog_at(self, idx: int | np.ndarray | slice) -> np.ndarray:
        """dlog at element indices (or a slice of them) as int64; -1 at 0."""
        return _dlog_lookup(self, idx)

    def exp_at(self, m: int | np.ndarray | slice) -> np.ndarray:
        """Element indices of g^m as int64, for integers m or a slice of
        [0, q - 1): with m = jB + r mod q - 1, g^m has the coordinates
        giant[j] @ baby[r] mod p (entries below n p^2 < 2^48 before the mod)."""
        if isinstance(m, slice):
            m = np.arange(*m.indices(self.q1))
        j, r = divmod(np.asarray(m, dtype=np.int64) % self.q1, len(self.baby))
        return self.encode_array((self.giant[j] @ self.baby[r][..., None])[..., 0] % self.p)

    def in_prime_subfield(self, a: FqElem) -> bool:
        return not any(a[1:])

    # -- vectorized plumbing (used by box/character/energy kernels) ----------

    def encode_array(self, coeffs: np.ndarray) -> np.ndarray:
        """coeffs (m, n) reduced mod p -> element indices (m,)."""
        return coeffs @ np.asarray(self._pow_vec, dtype=np.int64)

    def add_int_array(self, idx: int | np.ndarray, t: int | np.ndarray) -> np.ndarray:
        """Indices of a + t for element indices idx and integers t (broadcast);
        t moves coordinate 0 only, so a + t stays in a's row of p indices."""
        d0 = idx % self.p
        return idx - d0 + (d0 + t % self.p) % self.p

    def decode_array(self, idx: np.ndarray) -> np.ndarray:
        """Element indices, any shape -> coefficients, one more axis of n."""
        return np.asarray(idx, dtype=np.int64)[..., None] // np.asarray(self._pow_vec) % self.p

    def mul_matrix(self, coords: FqElem | np.ndarray) -> np.ndarray:
        """M(c) = sum_k c_k M(X^k) mod p, so M(c) @ coords(x) = coords(c x) mod p;
        coords (..., n) reduced mod p give (..., n, n) (below n p^2 < 2^48 unreduced)."""
        return np.tensordot(np.asarray(coords, dtype=np.int64), self.x_powers, axes=1) % self.p

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"


def _dlog_lookup(ctx: FieldCtx, idx: int | np.ndarray | slice) -> np.ndarray:
    """dlog at element indices (an int, an array of any shape or a slice of
    [0, q)) as int64, -1 at 0: the one read of the compact table, behind
    `FieldCtx.dlog_at`. At n = 1 the table is the log of F_p and this is a
    gather. One index stays a Python int, so it costs scalar operations and
    not array ones."""
    if isinstance(idx, slice):
        x = np.arange(*idx.indices(ctx.q))
    else:
        x = int(idx) if isinstance(idx, (int, np.integer)) else np.asarray(idx, dtype=np.int64)
    if ctx.n == 1:
        return ctx.dlog[x].astype(np.int64)
    hi = x // ctx.p
    return _dlog_split(ctx, hi, x - hi * ctx.p)


def _dlog_rows(ctx: FieldCtx, rows: range) -> np.ndarray:
    """dlog on whole rows of p indices, shape (len(rows), p). The upper
    coordinates of a row fix lam, so each row is one permuted read of a
    block of the table."""
    if ctx.n == 1:
        return _dlog_lookup(ctx, slice(rows.start * ctx.p, rows.stop * ctx.p)).reshape(-1, ctx.p)
    return _dlog_split(ctx, np.arange(rows.start, rows.stop)[:, None], np.arange(ctx.p))


def _dlog_split(ctx: FieldCtx, hi, low):
    """dlog of x = low + p hi at n >= 2 (low < p; ints or arrays that
    broadcast): dlog lam + dlog u mod q - 1, and -1 at x = 0."""
    lam, c = _coset_index(ctx, hi, low)
    out = ctx.dlog[c]
    out += ctx._lam_log[lam]  # int32, in [-q, q - 1), and below -(q - 1) only at x = 0
    out += (out >> 31) & ctx.q1  # mod q - 1 without a branch; -1 stays -1
    return out.astype(np.int64)


def _coset_index(ctx: FieldCtx, hi, low):
    """(lam, c) for x = low + p hi at n >= 2: lam is the top nonzero
    coordinate of x, or 0 (standing for 1) when x lies in F_p, and c the
    index of u = x / lam in the compact table. The top coordinate of u is
    1, so only the lower ones are divided by lam; u in the top block
    [p^(n-1), 2 p^(n-1)) sits at its offset there, any other u at its own
    index (u < 2p)."""
    p = ctx.p
    if ctx.n == 2:
        top = lam = hi
    else:  # hi = d1 + p d2
        top = hi // p
        d1 = hi - top * p
        lam = np.where(top > 0, top, d1)
    inv = ctx._inv[lam]
    c = _mod_p(low * inv, p)
    c += ctx._top_base[top]
    if ctx.n == 3:
        c += _mod_p(d1 * inv, p) * p
    return lam, c


def _mod_p(m, p: int):
    """m mod p for m >= 0, as m - (m // p) p: numpy divides by a scalar
    several times faster than it takes a remainder."""
    return m - m // p * p


def _find_generator(ctx: FieldCtx) -> FqElem:
    """Smallest element (by index) of multiplicative order q - 1."""
    primes = list(factorize(ctx.q1))
    for idx in range(ctx.p if ctx.n >= 2 else 2, ctx.q):  # n >= 2: indices below p are F_p, orders divide p - 1
        a = ctx.decode(idx)
        if all(ctx.pow(a, ctx.q1 // r) != ctx.one() for r in primes):
            return a
    raise FieldError("no generator found (unreachable for a true field)")


_SLAB = 1 << 17  # table entries per step of the build: a slab of int64 is 1 MiB


def _build_tables(ctx: FieldCtx) -> None:
    """baby and giant by doubling, then the compact dlog table.

    F_p^* is the subgroup of index T = (q - 1)/(p - 1) in F_q^*, generated
    by c = g^T, so dlog c^k = kT; at n = 1, T = 1 and this is the whole
    table, filled from the powers of g in slabs. For n > 1 each coset takes
    its log from one power of g (`_fill_cosets`). Two checks raise
    FieldError unless g has order q - 1: the powers of c cover F_p^*, and
    the powers g^i, i < T, lie in T distinct cosets. Together they say that
    g generates F_q^* / F_p^* and g^T the kernel."""
    block = min(4096, ctx.q1)
    ctx.baby = _powers(ctx, ctx.g, block)
    g_block = ctx.mul_matrix(ctx.g) @ ctx.baby[-1] % ctx.p  # g^B
    ctx.giant = ctx.mul_matrix(_powers(ctx, g_block, -(-ctx.q1 // block)))

    p, t_index = ctx.p, ctx.q1 // (ctx.p - 1)
    ctx.dlog = dlog = np.full(p + t_index - 1, -1, dtype=np.int32)
    if ctx.n == 1:
        for m0, coords in _power_slabs(ctx, ctx.q1):
            dlog[coords[:, 0]] = np.arange(m0, m0 + len(coords), dtype=np.int32)
    else:
        kt = np.arange(p - 1, dtype=np.int64) * t_index
        dlog[ctx.exp_at(kt)] = kt  # c^k = g^(kT)
    if not all((dlog[s : min(s + _SLAB, p)] >= 0).all() for s in range(1, p, _SLAB)):
        raise FieldError("g^((q-1)/(p-1)) does not generate F_p^* (generator order wrong)")
    if ctx.n > 1:
        ctx._inv = np.array([pow(a, -1, p) if a else 1 for a in range(p)], dtype=np.int64)
        ctx._lam_log = np.maximum(dlog[:p], 0) - ctx.q1
        ctx._top_base = np.where(np.arange(p) > 0, len(dlog) - p ** (ctx.n - 1), 0)
        _fill_cosets(ctx, t_index)
    for table in (dlog, ctx._inv, ctx._lam_log, ctx._top_base, ctx.baby, ctx.giant):
        table.setflags(write=False)


def _powers(ctx: FieldCtx, h: FqElem | np.ndarray, count: int) -> np.ndarray:
    """Coordinates of h^0 .. h^(count - 1) by doubling: h^k .. h^(2k - 1) =
    h^k * (h^0 .. h^(k - 1)), with h^k = h * h^(k - 1)."""
    h = ctx.mul_matrix(h)
    out = np.array([ctx.one()], dtype=np.int64)
    while len(out) < count:
        out = np.concatenate([out, out @ ctx.mul_matrix(h @ out[-1] % ctx.p).T % ctx.p])[:count]
    return out


def _power_slabs(ctx: FieldCtx, stop: int):
    """(m0, coords) over slabs of the powers g^m, m < stop: row i of coords
    holds the coordinates of g^(m0 + i), giant[j] @ baby[r] for whole
    blocks of baby at once."""
    block = len(ctx.baby)
    giant = ctx.giant[: -(-stop // block)]
    rows = max(1, _SLAB // (block * ctx.n))
    for j in range(0, len(giant), rows):
        coords = ctx.baby @ giant[j : j + rows].transpose(0, 2, 1)  # [j, r] = (giant[j] @ baby[r])^T
        coords %= ctx.p
        yield j * block, coords.reshape(-1, ctx.n)[: stop - j * block]


def _fill_cosets(ctx: FieldCtx, t_index: int) -> None:
    """The coset blocks of the compact table, given the log on F_p^*.

    The u of top coordinate 1 are one per coset of F_p^*. The power g^i,
    i < T, in the coset of u is lam * u, with lam its top nonzero
    coordinate, so dlog u = i - dlog lam mod q - 1, written at the index
    `_coset_index` reads it from."""
    p, dlog = ctx.p, ctx.dlog
    for m0, coords in _power_slabs(ctx, t_index):
        x = ctx.encode_array(coords)
        lam, c = _coset_index(ctx, x // p, coords[:, 0])
        dlog[c] = (np.arange(m0, m0 + len(x)) - ctx._lam_log[lam]) % ctx.q1
    if not (dlog[p:] >= 0).all():
        raise FieldError("two powers g^i, i < (q-1)/(p-1), share a coset of F_p^* (generator order wrong)")


def build_field(p: int, n: int, modulus: Sequence[int] | None = None, seed: int = 0) -> FieldCtx:
    """Construct F_{p^n} with verified modulus, generator, dlog table and g^m steps."""
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if p == 2:
        raise FieldError("p must be odd")
    if n not in (1, 2, 3):
        raise FieldError(f"extension degree must be 1, 2 or 3, got {n}")
    if p**n > DEFAULT_TABLE_BUDGET:
        raise FieldError(f"p^n = {p**n} exceeds table budget {DEFAULT_TABLE_BUDGET}")
    if modulus is not None:
        m = [int(c) % p for c in modulus]
        if len(m) != n + 1 or modulus[-1] % p != 1:
            raise FieldError(f"modulus must be monic of degree {n}")
        if not is_irreducible(m, p):
            raise FieldError(f"modulus {tuple(modulus)} is reducible over F_{p}")
        m = tuple(m)
    else:
        m = _find_irreducible(p, n, seed)
    ctx = FieldCtx(p, n, m)
    ctx.g = _find_generator(ctx)
    _build_tables(ctx)
    return ctx


_FIELD_CACHE: dict[tuple, FieldCtx] = {}


def field_key(p: int, n: int, modulus: Sequence[int] | None = None, seed: int = 0) -> tuple:
    """The `_FIELD_CACHE` key of `cached_field(p, n, modulus, seed)`."""
    return (p, n, tuple(modulus) if modulus is not None else None, seed)


def cached_field(p: int, n: int, modulus: Sequence[int] | None = None, seed: int = 0) -> FieldCtx:
    key = field_key(p, n, modulus, seed)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = build_field(p, n, modulus=modulus, seed=seed)
    return _FIELD_CACHE[key]


# ---------------------------------------------------------------------------
# bases


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """Basis {omega_1..omega_n}; column i holds power-basis coordinates of omega_i."""

    ctx: FieldCtx
    cols: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=np.int64) % self.ctx.p
        if cols.shape != (self.ctx.n, self.ctx.n):
            raise FieldError(f"basis must be {self.ctx.n}x{self.ctx.n}")
        p = self.ctx.p
        det, adj = _int_adjugate(cols.tolist())  # inverse = adj / det
        if det % p == 0:
            raise FieldError("singular matrix mod p")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "inv_cols", np.array(adj, dtype=np.int64) * pow(det, -1, p) % p)
        cols.setflags(write=False)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "BasisMatrix":
        return cls(ctx, np.eye(ctx.n, dtype=np.int64))

    def omega(self, i: int) -> FqElem:
        """omega_i for i in 1..n."""
        return tuple(int(c) for c in self.cols[:, i - 1])

    def elem_from_coords(self, x: Sequence[int]) -> FqElem:
        v = np.array([int(c) % self.ctx.p for c in x], dtype=np.int64)  # any integers, no wrap
        return tuple(int(c) for c in (self.cols @ v) % self.ctx.p)

    def coords_of(self, a: FqElem) -> tuple[int, ...]:
        v = np.asarray(a, dtype=np.int64)
        return tuple(int(c) for c in (self.inv_cols @ v) % self.ctx.p)

    def permute(self, order: Sequence[int]) -> "BasisMatrix":
        return BasisMatrix(self.ctx, self.cols[:, list(order)])


# ---------------------------------------------------------------------------


def is_generating(ctx: FieldCtx, a: FqElem) -> bool:
    """True iff F_p(a) = F_{p^n}; for prime n this means a is outside F_p."""
    if ctx.n not in (2, 3):
        raise FieldError("is_generating requires extension degree 2 or 3")
    return any(a[1:])
