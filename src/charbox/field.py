"""Exact arithmetic in F_p and F_{p^n} for n in {1, 2, 3}.

Elements are coefficient tuples in the power basis of a monic irreducible
modulus polynomial. Every field carries dense discrete-log and power tables
built by one multiplicative sweep; characters read dlogs from them and
evaluate chi only where asked. Fields are immutable after construction and
safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """a modulo the monic polynomial m over F_p."""
    a = _ptrim([c % p for c in a])
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a = _ptrim(a)
    return a


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
    """F_{p^n} with modulus, generator and dense dlog/exp tables.

    Attributes:
        p, n, q: characteristic, degree, order q = p^n.
        modulus: monic degree-n coefficient tuple (low degree first).
        g: generator element (coefficient tuple).
        dlog: int64 array of size q; dlog[encode(a)] = m with g^m = a,
              and dlog[0] = -1.
        exp: int64 array of size q-1; exp[m] = encode(g^m).
    """

    def __init__(self, p: int, n: int, modulus: Sequence[int]):
        self.p = p
        self.n = n
        self.q = p**n
        self.q1 = self.q - 1
        self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        self._pow_vec = tuple(p**i for i in range(n))
        self.g: FqElem = ()
        self.dlog: np.ndarray = np.empty(0)
        self.exp: np.ndarray = np.empty(0)

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

    def neg(self, a: FqElem) -> FqElem:
        return tuple(-x % self.p for x in a)

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        prod = _pmod(_pmul(a, b, self.p), self.modulus, self.p)
        return tuple(prod) + (0,) * (self.n - len(prod))

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
        return self.decode(int(self.exp[-self.dlog[self.encode(a)] % self.q1]))  # 1/g^m = g^(-m)

    def div(self, a: FqElem, b: FqElem) -> FqElem:
        return self.mul(a, self.inv(b))

    def dlog_of(self, a: FqElem) -> int:
        if not any(a):
            raise ZeroDivisionError("dlog of zero")
        return int(self.dlog[self.encode(a)])

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

    def add_elem_array(self, idx: np.ndarray, b: FqElem) -> np.ndarray:
        out = np.zeros_like(idx)
        rest = np.asarray(idx, dtype=np.int64)
        for i in range(self.n):
            rest, digit = np.divmod(rest, self.p)
            out += ((digit + b[i]) % self.p) * self._pow_vec[i]
        return out

    def mul_matrix_power_basis(self, c: FqElem) -> np.ndarray:
        """n x n matrix M with M @ coeffs(x) = coeffs(c * x) mod p."""
        cols = [self.mul(c, self.decode(self._pow_vec[i])) for i in range(self.n)]
        return np.array(cols, dtype=np.int64).T

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"


def _find_generator(ctx: FieldCtx) -> FqElem:
    """Smallest element (by index) of multiplicative order q - 1."""
    primes = list(factorize(ctx.q1))
    for idx in range(2, ctx.q):
        a = ctx.decode(idx)
        if all(ctx.pow(a, ctx.q1 // r) != ctx.one() for r in primes):
            return a
    raise FieldError("no generator found (unreachable for a true field)")


def _build_tables(ctx: FieldCtx) -> None:
    """One multiplicative sweep g^0, g^1, ... done in matrix blocks."""
    block = min(4096, ctx.q1)
    coeffs = np.empty((block, ctx.n), dtype=np.int64)
    cur = ctx.one()
    for r in range(block):
        coeffs[r] = cur
        cur = ctx.mul(cur, ctx.g)
    step = ctx.mul_matrix_power_basis(ctx.pow(ctx.g, block)).T

    dlog = np.full(ctx.q, -1, dtype=np.int64)
    exp = np.empty(ctx.q1, dtype=np.int64)
    done = 0
    while done < ctx.q1:
        take = min(block, ctx.q1 - done)
        idx = ctx.encode_array(coeffs[:take])
        dlog[idx] = np.arange(done, done + take)
        exp[done : done + take] = idx
        done += take
        if done < ctx.q1:
            coeffs = (coeffs @ step) % ctx.p
    if int((dlog >= 0).sum()) != ctx.q1:
        raise FieldError("dlog sweep did not cover F_q^* (generator order wrong)")
    dlog.setflags(write=False)
    exp.setflags(write=False)
    ctx.dlog, ctx.exp = dlog, exp


def build_field(
    p: int,
    n: int,
    modulus: Sequence[int] | None = None,
    seed: int = 0,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> FieldCtx:
    """Construct F_{p^n} with verified modulus, generator and dlog table."""
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if p == 2:
        raise FieldError("p must be odd")
    if n not in (1, 2, 3):
        raise FieldError(f"extension degree must be 1, 2 or 3, got {n}")
    if p**n > table_budget:
        raise FieldError(f"p^n = {p**n} exceeds table budget {table_budget}")
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


def _inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p by Gaussian elimination."""
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


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """Basis {omega_1..omega_n}; column i holds power-basis coordinates of omega_i."""

    ctx: FieldCtx
    cols: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=np.int64) % self.ctx.p
        if cols.shape != (self.ctx.n, self.ctx.n):
            raise FieldError(f"basis must be {self.ctx.n}x{self.ctx.n}")
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "inv_cols", _inv_mod_p(cols, self.ctx.p))
        cols.setflags(write=False)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "BasisMatrix":
        return cls(ctx, np.eye(ctx.n, dtype=np.int64))

    def omega(self, i: int) -> FqElem:
        """omega_i for i in 1..n."""
        return tuple(int(c) for c in self.cols[:, i - 1])

    def elem_from_coords(self, x: Sequence[int]) -> FqElem:
        v = np.asarray(x, dtype=np.int64) % self.ctx.p
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
