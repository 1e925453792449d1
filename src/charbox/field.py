"""Exact arithmetic in F_p and F_{p^n} for n in {1, 2, 3}.

Elements are coefficient tuples in the power basis of a monic irreducible
modulus polynomial. One kernel multiplies, the regular representation
M(a) = sum_k a_k C^k (C the companion matrix of the modulus, C^k built once
per field): `FieldCtx.mul_matrix` over arrays, `FieldCtx.mul` in Python ints.
Every field carries one dense int32 discrete-log table, filled by one
multiplicative sweep and read as int64 (`FieldCtx.dlog_at`); characters read
dlogs from it and evaluate chi only where asked. Powers g^m are not tabled:
`FieldCtx.exp_at` writes m = jB + r and multiplies the coordinates of g^r
(baby steps) by the multiplication matrix of g^(jB) (giant steps), two
tables of at most 4096 rows (sqrt(q) at the 2^24 budget) that the sweep
leaves behind. A basis matrix is inverted over F_p as its integer adjugate
times det^-1 mod p (`charbox.intlinalg`). Fields are immutable after
construction and safe to share between workers.
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
    """F_{p^n} with modulus, generator, a dense dlog table and g^m steps.

    Attributes:
        p, n, q: characteristic, degree, order q = p^n.
        modulus: monic degree-n coefficient tuple (low degree first).
        x_powers: read-only int64 (n, n, n); x_powers[k] = C^k = M(X^k), C the
                  companion matrix of the modulus; `mul` and `mul_matrix`
                  multiply through M(a) = sum_k a_k C^k and nothing else.
        g: generator element (coefficient tuple).
        dlog: read-only int32 array of size q; dlog[encode(a)] = m with
              g^m = a, and dlog[0] = -1.
        baby: read-only int64 (B, n); row r holds the coordinates of g^r,
              for the sweep's block B = min(4096, q - 1).
        giant: read-only int64 (ceil((q - 1) / B), n, n); giant[j] is the
               multiplication matrix of g^(jB), so g^(jB + r) has the
               coordinates giant[j] @ baby[r] mod p.
        exp: empty read-only int32 array, kept for readers of its size;
             `exp_at` computes g^m from baby and giant instead.

    dlog is the one q-sized table: int32 (every entry is below q <= 2^24),
    4 bytes per element of F_q. baby and giant hold O(sqrt(q) n^2)
    integers at the budget. Kernels read dlog only through `dlog_at` and
    powers only through `exp_at`, both int64: products such as k * dlog
    reach 2^48, so no kernel does arithmetic on int32 table entries.
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
        return _gather(self.dlog, idx)

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


def _gather(table: np.ndarray, idx: int | np.ndarray | slice) -> np.ndarray:
    """table[idx] of the int32 dlog table as int64: the one read of the table,
    behind `FieldCtx.dlog_at`."""
    return table[idx].astype(np.int64)


def _find_generator(ctx: FieldCtx) -> FqElem:
    """Smallest element (by index) of multiplicative order q - 1."""
    primes = list(factorize(ctx.q1))
    for idx in range(ctx.p if ctx.n >= 2 else 2, ctx.q):  # n >= 2: indices below p are F_p, orders divide p - 1
        a = ctx.decode(idx)
        if all(ctx.pow(a, ctx.q1 // r) != ctx.one() for r in primes):
            return a
    raise FieldError("no generator found (unreachable for a true field)")


def _build_tables(ctx: FieldCtx) -> None:
    """One multiplicative sweep g^0, g^1, ... done in matrix blocks of B rows;
    it fills dlog and keeps the first block (baby) and each block's first
    row g^(jB), whose multiplication matrices are giant. Every matrix comes
    from `FieldCtx.mul_matrix`, so the sweep makes no scalar product."""
    g = ctx.mul_matrix(ctx.g)  # M(g)
    block = min(4096, ctx.q1)
    baby = np.array([ctx.one()], dtype=np.int64)
    while len(baby) < block:  # doubling: g^k ... g^(2k-1) = g^k * (g^0 ... g^(k-1)), g^k = g * g^(k-1)
        baby = np.concatenate([baby, baby @ ctx.mul_matrix(g @ baby[-1] % ctx.p).T % ctx.p])[:block]
    step = ctx.mul_matrix(g @ baby[-1] % ctx.p).T  # g^B

    dlog = np.full(ctx.q, -1, dtype=np.int32)  # int32 from the start: no int64 table is ever held
    starts = np.empty((-(-ctx.q1 // block), ctx.n), dtype=np.int64)
    coeffs, done = baby, 0
    while done < ctx.q1:
        take = min(block, ctx.q1 - done)
        dlog[ctx.encode_array(coeffs[:take])] = np.arange(done, done + take)
        starts[done // block] = coeffs[0]
        done += take
        if done < ctx.q1:
            coeffs = (coeffs @ step) % ctx.p
    chunk = 1 << 20  # counted in slices: a q-sized mask would add q bytes to the peak
    if sum(int(np.count_nonzero(dlog[s : s + chunk] >= 0)) for s in range(0, ctx.q, chunk)) != ctx.q1:
        raise FieldError("dlog sweep did not cover F_q^* (generator order wrong)")
    giant = ctx.mul_matrix(starts)
    for table in (dlog, baby, giant):
        table.setflags(write=False)
    ctx.dlog, ctx.baby, ctx.giant = dlog, baby, giant


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
